"""Deterministic random-variate generation for the simulator.

All stochastic choices of the closed-queuing model — think times, transaction
lengths, object selection, read/write choice, operation selection, disk
selection, and the random compatibility tables of the ADT workload — go
through one seeded :class:`RandomSource` so that a run is exactly
reproducible from ``(parameters, seed)`` and so that tests can pin specific
decision sequences.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence, TypeVar

__all__ = ["RandomSource"]

T = TypeVar("T")


class RandomSource:
    """A thin, documented wrapper around :class:`random.Random`."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._random = random.Random(seed)

    # ------------------------------------------------------------------
    # Distributions used by the model
    # ------------------------------------------------------------------
    def exponential(self, mean: float) -> float:
        """An exponential variate with the given mean (0.0 if the mean is 0)."""
        if mean <= 0:
            return 0.0
        return self._random.expovariate(1.0 / mean)

    def uniform_int(self, low: int, high: int) -> int:
        """A uniform integer in the inclusive range ``[low, high]``.

        Inlines :meth:`random.Random.randint`'s ``low + _randbelow(width)``
        rejection sampling.  The ``getrandbits`` consumption is bit-identical
        to the stdlib's on every supported interpreter (randint delegates to
        the same loop on 3.11–3.13), so seeded streams are unchanged, minus
        three interpreter frames and three index conversions per draw — this
        is the hottest rng entry point (object/length selection per
        workload step).
        """
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range for uniform_int({low}, {high})")
        getrandbits = self._random.getrandbits
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return low + r

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A uniform float in ``[low, high)``."""
        return self._random.uniform(low, high)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def index(self, n: int) -> int:
        """A uniform index in ``range(n)``: ``seq[index(len(seq))]`` is ``choice(seq)``
        (its ``_randbelow`` inlined: the same ``getrandbits`` calls on 3.11–3.13)."""
        if n <= 0:
            raise ValueError(f"empty range for index({n})")
        getrandbits = self._random.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def choice(self, items: Sequence[T]) -> T:
        """A uniformly random element of a non-empty sequence."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """``count`` distinct elements drawn without replacement."""
        return self._random.sample(list(items), count)

    def shuffle(self, items: List[T]) -> List[T]:
        """Return a new list with the items in random order."""
        shuffled = list(items)
        self._random.shuffle(shuffled)
        return shuffled

    def spawn(self, label: str) -> "RandomSource":
        """Derive an independent, reproducible child stream.

        Distinct labels give distinct streams; the same ``(seed, label)`` pair
        always gives the same stream — including *across* processes, which is
        why the derivation uses CRC32 rather than :func:`hash` (string hashing
        is salted per process, which silently made every run irreproducible
        from one interpreter to the next).  Used to decouple e.g. the workload
        stream from the think-time stream so changing one parameter does not
        perturb every other random decision of the run.
        """
        child_seed = zlib.crc32(f"{self.seed}/{label}".encode("utf-8")) & 0x7FFFFFFF
        return RandomSource(child_seed)
