"""Exception hierarchy shared across the package."""


class NegabetaError(Exception):
    """Base class for all library errors."""


class SpecError(NegabetaError, ValueError):
    """Malformed base specification, digit sequence, or other bad input."""


class PrecisionExhausted(NegabetaError):
    """A decimal-base decision fell inside the error radius of the stated
    precision (raise the precision or switch to an exact base), or an
    exact-base decision needed refinement beyond the level cap."""


class OrbitUnresolved(NegabetaError):
    """The orbit of 1 did not resolve to a (pre)periodic cycle within the
    budget, but the requested computation needs an exact finite orbit."""


class PrefixTooShort(NegabetaError):
    """A candidate construction needed digits beyond the certified prefix."""


class CanonicalizationCycle(NegabetaError):
    """Rewriting an expansion candidate cycled without reaching a valid one."""


class SolveError(NegabetaError):
    """The inverse solver could not produce or certify a base."""


class PowerIterationError(NegabetaError):
    """Power iteration failed to converge within the iteration cap."""
