"""Exception hierarchy shared by every module of the package."""


class BundleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BundleError):
    """An abscissa or integration bound lies outside the function's domain."""


class DomainMismatchError(BundleError):
    """Two functions were compared but live on different intervals."""


class BadPrefixError(BundleError):
    """A prefix cut a must satisfy support_start < a < S."""


class EmptyInputError(BundleError):
    """An ingestion routine received no data."""


class WouldViolateInvariantsError(BundleError):
    """A perturbation would break positivity or monotonicity."""


class NonPositiveThetaError(BundleError):
    """Thresholds are only defined for finite theta > 0."""


class SingularAbscissaError(BundleError):
    """The theta-inverse of the threshold family does not exist at this x."""


class ZeroValueError(BundleError):
    """A transformed value of 0 maps to theta = 0, which is excluded."""


class ZeroFunctionError(BundleError):
    """The operation is undefined for the identically-zero function."""


class NoRootError(BundleError):
    """The equation T(f)(x) = A(x, theta) has no solution: theta is not admissible."""


class NonUniqueError(BundleError):
    """The equation has more than one root; the solution is not unique."""
