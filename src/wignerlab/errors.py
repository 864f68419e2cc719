"""Exception hierarchy shared by all modules, and their integer test.

Exit-code mapping used by the CLI:
    ConfigError (also wraps a config's PotentialError)                 -> 2
    physics preconditions (Grid/State/Normalization/Purity/Tomography) -> 3
    numerical monitor hard failures (Monitor/Convergence)              -> 4
"""

from numbers import Integral

__all__ = [
    "WignerlabError", "GridError", "StateError", "NormalizationError",
    "PurityError", "ConvergenceError", "PropagationError", "MonitorError",
    "TomographyError", "ConfigError", "PotentialError",
]


def is_integer(value) -> bool:
    """An int or numpy integer, but not a bool (an int to isinstance)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class WignerlabError(Exception):
    """Base class for every error raised by this package."""


class GridError(WignerlabError):
    """Invalid lattice parameters (bounds, sample count, hbar, mass)."""


class StateError(WignerlabError):
    """A state cannot be represented on the requested grid."""


class NormalizationError(WignerlabError):
    """Input field violates its normalization invariant."""


class PurityError(WignerlabError):
    """Pure-state gate failed (mixed or corrupted Wigner function)."""


class ConvergenceError(WignerlabError):
    """A solver had nothing to converge to (a numerically zero kernel)."""


class PropagationError(WignerlabError):
    """Propagator precondition violated (step size, bandwidth, ...)."""


class MonitorError(PropagationError):
    """A runtime numerical monitor tripped its hard threshold.

    Names the route, the step (from 1; step 0 is the set-up check) and
    the time reached, the monitored quantity, its value and threshold.
    """

    def __init__(self, route: str, step: int, t: float, quantity: str,
                 value: float, threshold: float):
        super().__init__(route, step, t, quantity, value, threshold)
        self.route, self.step, self.t = route, step, t
        self.quantity, self.value, self.threshold = quantity, value, threshold

    def __str__(self) -> str:
        return (f"{self.route} route, step {self.step} (t = {self.t:.6g}): "
                f"{self.quantity} {self.value:.3e} exceeds threshold "
                f"{self.threshold:.3e}")


class TomographyError(WignerlabError):
    """Invalid tomogram request (angles, frame count, grid shape)."""


class ConfigError(WignerlabError):
    """Scenario configuration could not be parsed or validated."""


class PotentialError(WignerlabError, ValueError):
    """Invalid potential parameters or derivative order."""
