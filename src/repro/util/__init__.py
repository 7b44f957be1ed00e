"""Small shared utilities used across the simulator.

The utilities here are deliberately free of any simulator-specific
dependencies so that every other sub-package can import them without
creating cycles.
"""

from repro.util.rng import DeterministicRng
from repro.util.stats_math import geometric_mean, harmonic_mean, normalize

__all__ = [
    "DeterministicRng",
    "geometric_mean",
    "harmonic_mean",
    "normalize",
]
