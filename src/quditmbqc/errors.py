"""Typed error hierarchy shared by all modules."""


class QuditError(Exception):
    """Base class for all library errors."""


# --- dimension / field construction ---

class NonPrimeCharacteristic(QuditError):
    """The requested characteristic p is not prime."""


class ReduciblePolynomial(QuditError):
    """A supplied modulus polynomial has a root and is not irreducible."""


class DimensionMismatch(QuditError):
    """Dimensions or site counts of two objects do not agree."""


class ZeroInverse(QuditError):
    """Inverse of a non-invertible element was requested."""


class WrongCharacteristic(QuditError):
    """Operation requires a specific characteristic (e.g. p = 2)."""


class WrongFormalism(QuditError):
    """Operation requires the other formalism (ring vs. field)."""


class UnsupportedFormalism(QuditError):
    """Requested combination of formalism and dimension is out of scope."""


# --- simulation ---

class NonUnitary(QuditError):
    """Operator fails the unitarity check at the working tolerance."""


class SiteOutOfRange(QuditError):
    """A site index does not address a qudit of the state."""


class ZeroProbabilityForced(QuditError):
    """A forced measurement outcome has (numerically) zero probability."""


class StateTooLarge(QuditError):
    """Requested dense state exceeds the desk-scale amplitude budget."""


# --- gate analysis ---

class NoRealSolution(QuditError):
    """The requested angle equation has no real solution."""


class NotCliffordError(QuditError):
    """A gate required to be Clifford is not (carries offending generator)."""

    def __init__(self, message, generator=None):
        super().__init__(message)
        self.generator = generator


class NotControlledPauliForm(QuditError):
    """Block-diagonal gate is not of controlled-Pauli form."""


class OrderCapExceeded(QuditError):
    """No power up to the cap yielded a Pauli operator."""


class UniversalityViolated(QuditError):
    """Intrinsic gate fails the universality criterion."""


class NonInvertibleLambda(QuditError):
    """Multiplication gate parameter is not invertible."""


class NonInvertibleGcd(QuditError):
    """gcd exponent of the mediator Pauli is not invertible."""


# --- compilation / execution ---

class CompilationDiverged(QuditError):
    """Pattern optimizer failed to reach the residual threshold."""


class FrameMismatch(QuditError):
    """Dense verification of the Pauli-frame semantics failed."""
