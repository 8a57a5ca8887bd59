"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes, so the split matters:
input/validation problems are distinct from numerical degeneracies,
which are distinct from features that are out of scope by design.
"""


class GroupnearError(Exception):
    """Base class for all package-specific errors."""


class InputError(GroupnearError, ValueError):
    """Malformed or contract-violating input (shape, schema, symmetry)."""


class DegeneracyError(GroupnearError):
    """Input is numerically degenerate for the requested computation."""


class SingularityError(DegeneracyError):
    """A matrix that must be invertible is singular to working precision."""


class ConditioningError(DegeneracyError):
    """A computation left the double-precision range or lost too much
    accuracy to continue."""


class ConvergenceError(GroupnearError):
    """An iteration exhausted its budget without meeting its tolerance."""


class UnsupportedError(GroupnearError):
    """Requested combination is recognised but deliberately not supported."""
