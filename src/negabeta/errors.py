"""Exception hierarchy shared across the package."""


class NegabetaError(Exception):
    """Base class for all library errors."""


class SpecError(NegabetaError, ValueError):
    """Malformed base specification, digit sequence, or other bad input."""


class PrecisionExhausted(NegabetaError):
    """An exact-base decision needed refinement beyond the level cap
    ``numerics.MAX_REFINE_LEVEL``, or a density sum more terms than the
    term cap ``measure.MAX_DENSITY_TERMS``."""


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
