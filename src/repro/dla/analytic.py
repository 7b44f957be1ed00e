"""Probabilistic fetch-buffer model (Appendix B) and its empirical inputs.

The paper analyses the decoupled fetch buffer as a Markov chain: each cycle
the decode stage withdraws instructions according to a demand distribution
``D`` and the fetch unit deposits instructions according to a supply
distribution ``S``.  Convolving the two gives the distribution of the change
in queue length; stacking shifted copies of that distribution (with absorbing
boundaries at 0 and the capacity ``N``) gives the transition matrix whose
principal eigenvector is the steady-state queue-length distribution; and the
expected number of fetch bubbles follows directly.

This module implements that analysis (used for Fig. 5 and validated against
simulation in Fig. 14), plus helpers to measure ``D`` and ``S`` empirically
from a timing-model run, mirroring how the paper measures them by idealising
one side of the machine at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.pipeline import OutOfOrderCore
from repro.emulator.trace import Trace, Window
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem


def _normalise(distribution: Sequence[float]) -> np.ndarray:
    array = np.asarray(distribution, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("distribution must be a non-empty 1-D sequence")
    if np.any(array < 0):
        raise ValueError("distribution entries must be non-negative")
    total = array.sum()
    if total <= 0:
        raise ValueError("distribution must have positive mass")
    return array / total


class FetchBufferModel:
    """Markov-chain model of a fetch queue with capacity ``N``.

    Parameters
    ----------
    demand:
        ``demand[j]`` is the probability the decode stage can absorb ``j``
        instructions in a cycle (j = 0..M, M being the decode width).
    supply:
        ``supply[s]`` is the probability the fetch unit can deposit ``s``
        instructions in a cycle (s = 0..fetch width).
    """

    def __init__(self, demand: Sequence[float], supply: Sequence[float]) -> None:
        self.demand = _normalise(demand)
        self.supply = _normalise(supply)

    # ------------------------------------------------------------------
    def change_distribution(self) -> Tuple[np.ndarray, int]:
        """Distribution of the per-cycle change in queue length.

        Returns ``(C, offset)`` where ``C[k]`` is the probability of a change
        of ``k - offset`` instructions.
        """
        max_withdraw = len(self.demand) - 1
        max_deposit = len(self.supply) - 1
        size = max_withdraw + max_deposit + 1
        change = np.zeros(size)
        for deposit, p_s in enumerate(self.supply):
            for withdraw, p_d in enumerate(self.demand):
                change[deposit - withdraw + max_withdraw] += p_s * p_d
        return change, max_withdraw

    def transition_matrix(self, capacity: int) -> np.ndarray:
        """Column-stochastic transition matrix over queue lengths 0..capacity."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        change, offset = self.change_distribution()
        n_states = capacity + 1
        matrix = np.zeros((n_states, n_states))
        for current in range(n_states):           # column: current length j
            for k, probability in enumerate(change):
                delta = k - offset
                nxt = current + delta
                nxt = min(max(nxt, 0), capacity)  # absorb at the boundaries
                matrix[nxt, current] += probability
        return matrix

    def steady_state(self, capacity: int, iterations: int = 2000,
                     tolerance: float = 1e-12) -> np.ndarray:
        """Steady-state queue-length distribution ``Q`` (power iteration).

        ``P`` is column-stochastic, so its largest eigenvalue is 1 and power
        iteration from the uniform distribution converges to the
        corresponding eigenvector (Perron-Frobenius).
        """
        matrix = self.transition_matrix(capacity)
        state = np.full(capacity + 1, 1.0 / (capacity + 1))
        for _ in range(iterations):
            nxt = matrix @ state
            nxt /= nxt.sum()
            if np.max(np.abs(nxt - state)) < tolerance:
                state = nxt
                break
            state = nxt
        return state

    def expected_fetch_bubbles(self, capacity: int) -> float:
        """E[FB] = sum_i Q_i * sum_{j>i} D_j (j - i)."""
        queue = self.steady_state(capacity)
        expected = 0.0
        for length, q_probability in enumerate(queue):
            shortfall = 0.0
            for demanded, d_probability in enumerate(self.demand):
                if demanded > length:
                    shortfall += d_probability * (demanded - length)
            expected += q_probability * shortfall
        return expected

    def bubble_curve(self, capacities: Sequence[int]) -> Dict[int, float]:
        """Expected bubbles for each capacity (the Fig. 5-b sweep)."""
        return {capacity: self.expected_fetch_bubbles(capacity) for capacity in capacities}


# ---------------------------------------------------------------------------
# Empirical measurement of the demand and supply distributions
# ---------------------------------------------------------------------------
@dataclass
class EmpiricalDistributions:
    """Measured per-cycle demand/supply distributions for one workload."""

    demand: List[float]
    supply: List[float]
    #: Supply distribution under an idealised (trace-cache-like) fetch path.
    trace_cache_supply: List[float]


def _per_cycle_histogram(times: Sequence[float], max_count: int) -> List[float]:
    """Probability distribution of events-per-integer-cycle, clipped at max."""
    if not times:
        return [1.0] + [0.0] * max_count
    counter = Counter(int(t) for t in times)
    first, last = int(min(times)), int(max(times))
    total_cycles = max(1, last - first + 1)
    histogram = [0] * (max_count + 1)
    busy_cycles = 0
    for _, count in counter.items():
        histogram[min(count, max_count)] += 1
        busy_cycles += 1
    histogram[0] = max(0, total_cycles - busy_cycles)
    return _normalise(histogram).tolist()


def empirical_distributions(entries: Window,
                            config: Optional[SystemConfig] = None) -> EmpiricalDistributions:
    """Measure demand (decode) and supply (fetch) distributions.

    Demand is measured by idealising the fetch side: the per-cycle dispatch
    counts of a run with a very large fetch buffer approximate how many
    instructions the back end could absorb each cycle.  Supply is measured
    from the per-cycle fetch counts of a normal run; the trace-cache variant
    re-measures supply with instruction fetch idealised to always hit.
    """
    config = config or SystemConfig()
    decode_width = config.core.decode_width
    fetch_width = config.core.fetch_width
    window = Trace.of(entries)

    # Demand: generous fetch buffer so the back end sets the pace.
    demand_cfg = config.with_overrides(fetch_buffer_entries=512)
    shared = SharedMemorySystem(demand_cfg.memory)
    memory = CoreMemorySystem(shared, demand_cfg.memory)
    core = OutOfOrderCore(demand_cfg.core, memory)
    result = core.run(window, collect_timings=True)
    demand = _per_cycle_histogram(result.timings.dispatch, decode_width)

    # Supply: normal configuration, fetch timestamps.
    shared = SharedMemorySystem(config.memory)
    memory = CoreMemorySystem(shared, config.memory)
    core = OutOfOrderCore(config.core, memory)
    result = core.run(window, collect_timings=True)
    supply = _per_cycle_histogram(result.timings.fetch, fetch_width)

    # Trace-cache-like supply: instruction fetch always hits (zero-latency
    # I-cache), approximating the higher instantaneous fill rate of a trace
    # cache.  The distribution differs from `supply` mainly in the tail.
    ideal_memory_cfg = config.memory
    shared = SharedMemorySystem(ideal_memory_cfg)
    memory = CoreMemorySystem(shared, ideal_memory_cfg)
    # Pre-warm the I-cache with every block of the program so fetch never misses.
    block = ideal_memory_cfg.l1i.block_bytes
    touched = set()
    for pc in window.columns.pc:
        address = pc * 4
        if address // block not in touched:
            touched.add(address // block)
            memory.l1i.fill(address, 0)
    core = OutOfOrderCore(config.core, memory)
    result = core.run(window, collect_timings=True)
    trace_supply = _per_cycle_histogram(result.timings.fetch, fetch_width)

    return EmpiricalDistributions(
        demand=demand, supply=supply, trace_cache_supply=trace_supply
    )


def simulated_queue_distribution(result_histogram: Dict[int, int],
                                 capacity: int) -> List[float]:
    """Normalise a fetch-queue occupancy histogram from the timing model into
    a probability distribution over 0..capacity (for the Fig. 14 comparison)."""
    values = [result_histogram.get(i, 0) for i in range(capacity + 1)]
    total = sum(values)
    if total == 0:
        return [1.0] + [0.0] * capacity
    return [v / total for v in values]
