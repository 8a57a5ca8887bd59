"""Spans around calls into groupnear's public functions, recorded from outside.

The traced run looks each function up by name in the module that defines
it and, while a traced op runs, rebinds every name in the ``groupnear``
package that refers to it to a wrapper that records a span.  A function a
later change deletes is reported as missing, and its metrics as null with
the reason, instead of failing the run.

A span is ``{span, start, end, parent, op_id, counts}``.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def resolve(module: str, attr: str):
    """groupnear.<module>.<attr> by name: (function, None), or (None, reason)
    once a later change has removed it."""
    try:
        fn = getattr(importlib.import_module(f"groupnear.{module}"), attr, None)
    except ImportError:
        fn = None
    if callable(fn):
        return fn, None
    return None, f"groupnear.{module}.{attr} no longer exists"


def _distinct_roots(roots) -> int | None:
    fn, _ = resolve("polyres", "distinct_root_count")
    return None if fn is None else int(fn(roots, tol=1e-7))


def _census_counts(args, kwargs, result) -> dict:
    return {
        "points": len(result),
        "attempted": result.attempted,
        "converged": result.converged,
        "failed": result.failed,
    }


# span name -> (defining module, function name, counts from (args, kwargs, result)).
# Counts are computed when the spans are written out, not inside the span.
INSTRUMENTED = {
    "matcore.sym_eig": ("matcore", "sym_eig", lambda a, k, r: {"n": len(r.values)}),
    "orthonear.enumerate": (
        "orthonear",
        "enumerate_orthogonal_critical",
        lambda a, k, r: {"points": len(r)},
    ),
    "orthonear.nearest": ("orthonear", "nearest_orthogonal", lambda a, k, r: {"points": 1}),
    "critsearch.certify": (
        "critsearch",
        "critical_point_from",
        lambda a, k, r: {"residual": float(r.residual)},
    ),
    "critsearch.census": ("critsearch", "multistart_census", _census_counts),
    "polyres.resultant_chain": (
        "polyres",
        "resultant_chain",
        lambda a, k, r: {"degree": int(r.degree)},
    ),
    "polyres.poly_roots": (
        "polyres",
        "poly_roots",
        lambda a, k, r: {"roots": len(r), "distinct": _distinct_roots(r)},
    ),
    "slnear.solve": ("slnear", "sl_critical_points", lambda a, k, r: {"points": len(r)}),
    "torused.count_rank1": (
        "torused",
        "torus_critical_count_rank1",
        lambda a, k, r: {"count": int(r)},
    ),
    "torused.bkk_bound": ("torused", "bkk_bound", lambda a, k, r: {"rank": a[0].m, "bound": int(r)}),
}


@dataclass
class Span:
    span: str
    start: float
    end: float
    parent: int | None
    op_id: str | None
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Records spans for the INSTRUMENTED functions while `active`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._pending: list = []  # (span index, counts fn, args, kwargs, result)
        self._stack: list[int] = []
        self._op_id: str | None = None
        self._bindings: list = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "groupnear"]
        for span, (mod_name, attr, counts) in INSTRUMENTED.items():
            original, reason = resolve(mod_name, attr)
            if original is None:
                self.missing[span] = reason
                continue
            wrapper = self._wrap(span, original, counts)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, name, original, wrapper))

    def _wrap(self, span: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = Span(span, 0.0, 0.0, parent, self._op_id)
            self.spans.append(record)
            self._stack.append(index)
            record.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._stack.pop()
            self._pending.append((index, counts, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def active(self, op_id: str):
        """Trace calls made inside the block, attributing spans to op_id."""
        self._op_id = op_id
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, original, _ in self._bindings:
                setattr(module, name, original)
            self._op_id = None

    def finish(self) -> None:
        """Compute the deferred counts and drop the references to results."""
        for index, counts, args, kwargs, result in self._pending:
            self.spans[index].counts = counts(args, kwargs, result)
        self._pending.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span": s.span,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op_id": s.op_id,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )

    def self_ms(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own
