"""Deterministic random number generation for workload synthesis.

Every stochastic decision in the repository (workload data layout, branch
outcome patterns, graph topology, ...) flows through a
:class:`DeterministicRng` seeded explicitly, so that tests, examples and
benchmarks are exactly reproducible run to run.
"""

from __future__ import annotations

import random
import struct
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """Thin wrapper over :class:`random.Random` with convenience helpers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent stream for a sub-component.

        Forking avoids the classic pitfall where inserting one extra random
        draw in one component perturbs every other component's stream.
        """
        return DeterministicRng((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)

    # -- draws -----------------------------------------------------------
    def randint(self, lo: int, hi: int) -> int:
        if type(lo) is int and type(hi) is int and hi >= lo:
            # CPython's ``randint`` -> ``randrange`` -> ``_randbelow``
            # rejection sampler, inlined: the same draws, the same state.
            width = hi - lo + 1
            bits = width.bit_length()
            getrandbits = self._rng.getrandbits
            draw = getrandbits(bits)
            while draw >= width:
                draw = getrandbits(bits)
            return lo + draw
        return self._rng.randint(lo, hi)

    def randints(self, lo: int, hi: int, n: int) -> List[int]:
        """``[self.randint(lo, hi) for _ in range(n)]``: the same values and
        the same generator state after, drawn a round at a time.

        Each ``randint`` of a width up to 2**32 takes 32-bit words until
        one, shifted down to the width's bit length, falls below the width.
        A round asks ``getrandbits`` for one word per value still missing
        (every value takes at least one, so no word is wasted), splits them
        in draw order and keeps the draws below the width.  Wider ranges
        take the per-call path."""
        width = (hi - lo + 1 if type(lo) is int and type(hi) is int
                 and hi >= lo else 0)
        bits = width.bit_length()
        if not 0 < bits <= 32:
            return [self.randint(lo, hi) for _ in range(n)]
        shift = 32 - bits
        getrandbits = self._rng.getrandbits
        values: List[int] = []
        while len(values) < n:
            need = n - len(values)
            words = struct.unpack(f"<{need}I", getrandbits(32 * need).to_bytes(
                4 * need, "little"))
            values += [lo + draw for word in words
                       if (draw := word >> shift) < width]
        return values

    def random(self) -> float:
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, items: List[T]) -> None:
        self._rng.shuffle(items)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials until the first success (>= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        count = 1
        while self._rng.random() > p:
            count += 1
        return count

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def getstate(self) -> tuple:
        """The generator state (:meth:`random.Random.getstate`)."""
        return self._rng.getstate()

    def setstate(self, state: tuple) -> None:
        self._rng.setstate(state)

    def permutation(self, n: int) -> List[int]:
        values = list(range(n))
        self._rng.shuffle(values)
        return values
