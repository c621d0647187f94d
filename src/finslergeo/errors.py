"""Exception hierarchy shared by all finslergeo modules."""


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FinslerError):
    """Evaluation left the validity region of a metric or hit a pole/branch."""


class NullDirection(FinslerError):
    """A fiber direction was (numerically) zero where the slit bundle is required."""


class NotPositiveDefinite(FinslerError):
    """The fundamental tensor failed its positive-definiteness check."""


class NotHomogeneous(FinslerError):
    """A bare spray's coefficients G are not 2-homogeneous in y: Euler's
    relation N y = 2G fails."""


class DegenerateFlag(FinslerError):
    """Flag denominator g(w,w)g(u,u) - g(w,u)^2 below tolerance."""


class InvalidLift(FinslerError):
    """A lift's semibasic nullity / compatibility preconditions failed."""


class NoConvergence(FinslerError):
    """An iterative solve (Newton) or a table refinement did not converge."""


class GridError(FinslerError):
    """Mismatched or unusable discretization grids."""


class NullReference(FinslerError):
    """A reference field W along a curve vanishes somewhere."""


class DomainExit(FinslerError):
    """A trajectory left the chart / metric validity region."""


class NormalityViolation(FinslerError):
    """Endpoint normality/tangency preconditions of the second variation failed."""


class SingularBasis(FinslerError):
    """Computed basis does not span the required space."""


class ConfigError(FinslerError):
    """Invalid scenario configuration."""
