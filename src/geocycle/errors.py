"""Exception types shared across the package.

Every contract violation raises a subclass of :class:`GeocycleError`, so
callers (and the CLI) can distinguish bad input from genuine bugs.
"""


class GeocycleError(Exception):
    """Base class for all validation and contract errors."""


class AmbientMismatch(GeocycleError):
    """Vector or subspace does not live in the expected ambient space."""


class DegenerateGram(GeocycleError):
    """Gram matrix has determinant zero."""


class NotSquare(GeocycleError):
    """Matrix is not square where a square matrix is required."""


class FormNotPreserved(GeocycleError):
    """Candidate matrix fails g^T B g = B."""


class IsotropicVector(GeocycleError):
    """Reflection requested along a vector of self-pairing zero."""


class NonIntegralMatrix(GeocycleError):
    """Integer entries required (congruence membership)."""


class DetMinusOne(GeocycleError):
    """Determinant +1 required (congruence membership)."""


class NotOrthogonal(GeocycleError):
    """Components of a decomposition are not pairwise orthogonal."""


class WrongInertia(GeocycleError):
    """Restricted form has the wrong signature for its role."""


class NotSpanning(GeocycleError):
    """Components of a decomposition do not span the ambient space."""


class NonNegativeVector(GeocycleError):
    """Hyperplane normal must have negative self-pairing."""


class LatticeMismatch(GeocycleError):
    """Objects built over different lattices were combined."""


class InadmissibleV(GeocycleError):
    """Unit vector fails the admissibility conditions of the sign model."""


class NotOrthogonalPair(GeocycleError):
    """Pair of matrices is not in S(O(p) x O(q))."""


class SearchExhausted(GeocycleError):
    """Parameter search ran out of candidates within its bounds."""


class CertificateFailed(GeocycleError):
    """An exact internal check of a computed result did not hold."""


class BudgetExceeded(GeocycleError):
    """A search needed more work than its fixed budget (root enumeration
    nodes, trial divisions when factoring, arrangement sizes)."""
