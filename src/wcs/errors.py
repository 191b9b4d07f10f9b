"""Semantic exception hierarchy.

Every public operation raises one of these instead of bare ValueError so the
CLI can map a failure to a stable machine-readable error code (the class
name).
"""


class WcsError(Exception):
    """Base class for all toolkit errors."""


class EmptyInput(WcsError, ValueError):
    """A scenario, demand sample or dataset with zero atoms."""


class LengthMismatch(WcsError, ValueError):
    """Cost and probability vectors of different lengths."""


class NonPositiveProbability(WcsError, ValueError):
    """Some p_i <= 0 (or non-finite); atoms with zero mass are rejected, not dropped."""


class ProbSumMismatch(WcsError, ValueError):
    """Probabilities do not sum to one within 1e-12; renormalization is refused."""


class NonFiniteCost(WcsError, ValueError):
    """NaN or infinite entries in a cost vector or a feature matrix."""


class NegativeDemand(WcsError, ValueError):
    """A newsvendor demand atom below zero; zero demand is valid."""


class InvalidNewsvendorParams(WcsError, ValueError):
    """Newsvendor prices outside 0 <= salvage < cost < revenue, or a negative shortage penalty."""


class InvalidLabel(WcsError, ValueError):
    """A classification label other than +1 or -1."""


class InvalidEpsList(WcsError, ValueError):
    """A frontier eps list with a negative or descending entry, or an unreadable --eps-geom."""


class InvalidGeneratorArgs(WcsError, ValueError):
    """Synthetic-data sizes, means or weights out of range, or an unreadable --gen/--gen-class."""


class UnsupportedFamily(WcsError, ValueError):
    """A family or measure that the operation cannot solve with the data it was given."""


class UnknownFamily(WcsError, ValueError):
    """A family name that is not in the registry."""


class NoWorstCase(WcsError, TypeError):
    """A worst case asked of a family that bounds no set (a phi-divergence penalty)."""


class NoTransportGeometry(WcsError, TypeError, ValueError):
    """A Wasserstein solve on a scenario that carries no support points and cost curve."""


class KappaOutOfRange(WcsError, ValueError):
    """n*(1-alpha) outside (0, n) in the CVaR/standard-deviation constant."""


class InvalidCvarLevel(WcsError, ValueError):
    """A CVaR tail level alpha outside [0, 1)."""


class EpsOutOfRange(WcsError, ValueError):
    """Set size outside the family's admissible range."""


class InvalidBoxParams(WcsError, ValueError):
    """A likelihood-ratio band outside 0 <= L <= 1 <= U."""


class InvalidPhiFunction(WcsError, ValueError):
    """A phi generator whose curvature phi''(1) is not finite and > 0, or whose zeta_floor is NaN."""


class InvalidCostCurve(WcsError, ValueError):
    """A piecewise-linear cost with mismatched or non-finite slopes, unsorted breakpoints,
    an empty domain or an anchor outside it."""


class OutsideCostDomain(WcsError, ValueError):
    """A support point outside the domain of its piecewise-linear cost."""


class DuplicateSupportPoints(WcsError, ValueError):
    """Interpolation through support points that are not distinct."""


class UnknownGrowth(WcsError, ValueError):
    """A growth label other than "sqrt" and "linear"."""


class NoBracket(WcsError, RuntimeError):
    """Outer dual root-finding could not bracket a sign change."""


class UnboundedRatio(WcsError, ValueError):
    """A transport ratio oracle reported +inf (cost not Lipschitz)."""


class ResolutionTooCoarse(WcsError, ValueError):
    """Simplex grid step too large relative to min(p)."""


class InvalidOracleMode(WcsError, ValueError):
    """A brute-force oracle given both or neither of a membership test and a polytope."""


class UnknownPolytope(WcsError, TypeError):
    """A polytope descriptor the brute-force oracle cannot enumerate."""


class InvalidEpsSequence(WcsError, ValueError):
    """A finite-difference eps sequence that is empty, not positive or not strictly decreasing."""


class NonMonotoneEstimates(WcsError, RuntimeError):
    """Finite-difference sensitivity quotients increased; upstream concavity bug."""


class InputFileError(WcsError, ValueError):
    """An input file that cannot be read or has a malformed data row."""


class NonConvergence(WcsError, RuntimeError):
    """Iterative solver hit its iteration cap before meeting tolerance."""
