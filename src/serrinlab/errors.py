"""Exception taxonomy shared by all serrinlab modules."""


class SerrinLabError(Exception):
    """Base class for all serrinlab errors."""


# -- domain construction / geometry --------------------------------------

class InvalidSpec(SerrinLabError, ValueError):
    """A domain spec or mesh parameter is missing, non-finite or out of range."""


class NonPositiveRadius(SerrinLabError):
    """The radial boundary graph r(theta) dips to zero or below."""


class NotStarShaped(SerrinLabError):
    """Fourier truncation or star-shapedness margin check failed."""


class PointNotInterior(SerrinLabError):
    """Query point is not strictly inside the domain."""


# -- meshing / solving ----------------------------------------------------

class MeshTooFine(SerrinLabError):
    """Requested mesh would exceed the degree-of-freedom cap."""


class SolverFailure(SerrinLabError):
    """Linear solve did not reach the required residual."""


class DegeneratePatch(SerrinLabError):
    """A recovery patch holds fewer than 3 elements."""


# -- identity evaluation gates -------------------------------------------

class KindMismatch(SerrinLabError):
    """Boundary-data audit contradicts the requested problem kind."""


class NotTorsion(KindMismatch):
    """Field does not solve the constant-source Poisson equation."""


class NotNeumann(KindMismatch):
    """Field does not carry a constant normal derivative."""


class NotDirichlet(KindMismatch):
    """Field does not carry a constant trace."""


class NotTorsionPolynomial(SerrinLabError):
    """Symbolic Laplacian check failed for a polynomial input."""


# -- spectral / stability -------------------------------------------------

class ConvergenceFailure(SerrinLabError):
    """Iterative eigensolver ran out of iterations."""


class BoundaryMinimum(SerrinLabError):
    """Minimizer of a Neumann torsion field landed on the boundary."""


class GradientNotZeroAtZ(SerrinLabError):
    """The paraboloid offset h = q - u has a non-negligible gradient at z."""
