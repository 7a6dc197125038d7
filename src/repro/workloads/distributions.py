"""Key-popularity and value-size distributions.

Caching workloads are skewed; the paper's micro benchmark uses
CacheBench's Zipf-like popularity and the end-to-end experiment controls
skew with db_bench's ``ReadRandom Exp Range`` parameter ("larger ER
value means more skewed data", §4.2).
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import List, Optional, Sequence, Tuple

from repro.sim.rng import bulk_random, make_rng

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None


class UniformSampler:
    """Uniform key indices over ``[0, num_keys)``."""

    def __init__(self, num_keys: int, seed: int = 1) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        self.num_keys = num_keys
        self._rng = make_rng(seed, "uniform")

    def sample(self) -> int:
        return self._rng.randrange(self.num_keys)


# Distinct (num_keys, theta, seed) tables kept per process.  A run's
# per-scheme drivers share one; a serving fleet's two tenants hold theirs
# while it runs, so two kept tables are never more than the live ones.
# (Keeping a fleet's three sub-seeds' worth, six, raised serve_steady's
# peak RSS by ~6%.)
_ZIPF_TABLES_KEPT = 2


@functools.lru_cache(maxsize=_ZIPF_TABLES_KEPT, typed=True)
def _zipf_tables(
    num_keys: int, theta: float, seed: int
) -> Tuple[List[float], List[int]]:
    """The CDF over popularity ranks and the shuffled rank → key map,
    shared read-only by every sampler built with these arguments."""
    weights = [1.0 / (rank ** theta) for rank in range(1, num_keys + 1)]
    total = math.fsum(weights)
    cumulative = 0.0
    cdf: List[float] = []
    for weight in weights:
        cumulative += weight / total
        cdf.append(cumulative)
    rank_to_key = list(range(num_keys))
    make_rng(seed, "zipf.shuffle").shuffle(rank_to_key)
    return cdf, rank_to_key


@functools.lru_cache(maxsize=_ZIPF_TABLES_KEPT, typed=True)
def _zipf_arrays(num_keys: int, theta: float, seed: int):
    """:func:`_zipf_tables` as numpy arrays, for :meth:`ZipfSampler.sample_many`."""
    cdf, rank_to_key = _zipf_tables(num_keys, theta, seed)
    return _np.array(cdf, dtype=_np.float64), _np.array(rank_to_key, dtype=_np.int64)


class ZipfSampler:
    """Zipf(theta) popularity over a finite keyspace via inverse-CDF.

    Rank 1 is the hottest key; ranks are shuffled deterministically so
    hot keys are spread across the key space (as CacheBench does).  The
    tables are built once per process per ``(num_keys, theta, seed)``;
    each sampler draws from its own rng.
    """

    def __init__(self, num_keys: int, theta: float = 0.9, seed: int = 1) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.num_keys = num_keys
        self.theta = theta
        self._seed = seed
        self._rng = make_rng(seed, "zipf")
        # The CDF over ranks and the ranks' shuffled key ids, shared.
        self._cdf, self._rank_to_key = _zipf_tables(num_keys, theta, seed)
        # Fetched on the first sample_many(); plain sample() never needs
        # the arrays.
        self._cdf_array = None
        self._rank_array = None

    def sample(self) -> int:
        rank = bisect.bisect_left(self._cdf, self._rng.random())
        return self._rank_to_key[min(rank, self.num_keys - 1)]

    def sample_many(self, n: int) -> List[int]:
        """Draw ``n`` key ids, bit-identical to ``n`` ``sample()`` calls.

        ``numpy.searchsorted(side="left")`` places a probe exactly where
        ``bisect.bisect_left`` does, so the vectorized inverse-CDF walk
        reproduces the scalar path draw for draw.
        """
        if n <= 0:
            return []
        us = bulk_random(self._rng, n)
        if _np is not None and isinstance(us, _np.ndarray):
            if self._cdf_array is None:
                self._cdf_array, self._rank_array = _zipf_arrays(
                    self.num_keys, self.theta, self._seed
                )
            ranks = _np.searchsorted(self._cdf_array, us, side="left")
            if self.num_keys > 1:
                _np.minimum(ranks, self.num_keys - 1, out=ranks)
            else:
                ranks = _np.zeros(n, dtype=_np.int64)
            return self._rank_array[ranks].tolist()
        cdf = self._cdf
        last = self.num_keys - 1
        rank_to_key = self._rank_to_key
        bl = bisect.bisect_left
        return [rank_to_key[min(bl(cdf, u), last)] for u in us]

    def key_of_rank(self, rank: int) -> int:
        """Key id holding popularity rank ``rank`` (0 = hottest)."""
        if not 0 <= rank < self.num_keys:
            raise IndexError(f"rank {rank} outside [0, {self.num_keys})")
        return self._rank_to_key[rank]


class ExpRangeSampler:
    """db_bench's ``-read_random_exp_range`` skew model.

    A draw ``x ~ U(0, exp_range)`` selects key ``floor(num_keys *
    exp(-x))``-ish: the probability mass decays exponentially across the
    key space, and a *larger* ``exp_range`` concentrates more of the
    accesses on fewer keys.  Like db_bench we scramble the key order so
    the hot set is not one contiguous range.
    """

    def __init__(self, num_keys: int, exp_range: float, seed: int = 1) -> None:
        if num_keys < 1:
            raise ValueError("num_keys must be >= 1")
        if exp_range < 0:
            raise ValueError("exp_range must be >= 0")
        self.num_keys = num_keys
        self.exp_range = exp_range
        self._rng = make_rng(seed, "exprange")

    def sample(self) -> int:
        if self.exp_range == 0:
            return self._rng.randrange(self.num_keys)
        x = self._rng.random() * self.exp_range
        frac = math.exp(-x)
        index = int(self.num_keys * frac)
        if index >= self.num_keys:
            index = self.num_keys - 1
        # Multiplicative hashing scrambles adjacency, as db_bench does.
        return (index * 0x9E3779B1) % self.num_keys


class ExponentialSampler:
    """Exponential inter-arrival gaps for open-loop (Poisson) traffic.

    ``sample()`` returns one gap in nanoseconds at the given rate;
    ``sample_at(rate)`` draws at a caller-supplied instantaneous rate,
    which is how the serving layer's diurnal/burst arrival processes
    modulate a base Poisson stream without a second RNG.
    """

    def __init__(self, rate_per_sec: float, seed: int = 1) -> None:
        if rate_per_sec <= 0:
            raise ValueError(f"rate_per_sec must be positive, got {rate_per_sec}")
        self.rate_per_sec = rate_per_sec
        self._rng = make_rng(seed, "exponential")

    def sample(self) -> int:
        return self.sample_at(self.rate_per_sec)

    def sample_at(self, rate_per_sec: float) -> int:
        """One inter-arrival gap (ns) at ``rate_per_sec`` requests/s."""
        if rate_per_sec <= 0:
            raise ValueError(f"rate_per_sec must be positive, got {rate_per_sec}")
        gap_seconds = self._rng.expovariate(rate_per_sec)
        # At least 1 ns so two arrivals never share a timestamp and the
        # event order stays well-defined.
        return max(1, int(gap_seconds * 1e9))

    def draw_uniforms(self, n: int) -> Sequence[float]:
        """Expose ``n`` raw uniforms from this stream (see bulk_random).

        Callers that modulate the rate per draw (diurnal/burst arrival
        processes) take the uniforms in bulk and apply the inverse
        transform themselves; the arithmetic must mirror
        :meth:`sample_at` exactly:
        ``max(1, int((-log(1 - u) / rate) * 1e9))``.
        """
        return bulk_random(self._rng, n)

    def sample_many(self, n: int, rate_per_sec: Optional[float] = None) -> List[int]:
        """``n`` gaps (ns) at a fixed rate, bit-identical to a scalar loop."""
        rate = self.rate_per_sec if rate_per_sec is None else rate_per_sec
        if rate <= 0:
            raise ValueError(f"rate_per_sec must be positive, got {rate}")
        log = math.log
        # CPython's expovariate is -log(1 - random()) / lambd; keep the
        # float operation order identical so int truncation matches.
        return [
            max(1, int((-log(1.0 - u) / rate) * 1e9))
            for u in bulk_random(self._rng, n)
        ]


class ValueSizeSampler:
    """Discrete value-size distribution (sizes with relative weights).

    Sizes are drawn :data:`REFILL` at a time — one bulk uniform draw
    (:func:`~repro.sim.rng.bulk_random`) and one vectorized inverse-CDF
    walk — and handed out one per :meth:`sample`.  The sampler owns its
    generator, so the sequence is the one a ``random()`` per call would
    give.  A refill's state hand-off to numpy costs about as much as
    2,000 scalar draws, so the batch is several times that.
    """

    REFILL = 8192

    def __init__(
        self,
        sizes: Sequence[int],
        weights: Sequence[float] = (),
        seed: int = 1,
    ) -> None:
        if not sizes:
            raise ValueError("need at least one size")
        if any(size <= 0 for size in sizes):
            raise ValueError("sizes must be positive")
        if weights and len(weights) != len(sizes):
            raise ValueError("weights must match sizes")
        self.sizes = list(sizes)
        self._weights = list(weights) if weights else [1.0] * len(sizes)
        total = math.fsum(self._weights)
        cumulative = 0.0
        self._cdf = []
        for weight in self._weights:
            cumulative += weight / total
            self._cdf.append(cumulative)
        self._rng = make_rng(seed, "valuesize")
        self._cdf_array = None if _np is None else _np.array(self._cdf, dtype=_np.float64)
        self._drawn: List[int] = []
        self._next = 0

    def sample(self) -> int:
        drawn = self._drawn
        at = self._next
        if at == len(drawn):
            drawn = self._drawn = self._refill()
            at = 0
        self._next = at + 1
        return drawn[at]

    def _refill(self) -> List[int]:
        """The next :data:`REFILL` sizes.  ``numpy.searchsorted(side=
        "left")`` places a draw where ``bisect.bisect_left`` does (as in
        :meth:`ZipfSampler.sample_many`)."""
        uniforms = bulk_random(self._rng, self.REFILL)
        sizes = self.sizes
        last = len(sizes) - 1
        if self._cdf_array is not None and isinstance(uniforms, _np.ndarray):
            slots = _np.searchsorted(self._cdf_array, uniforms, side="left")
            _np.minimum(slots, last, out=slots)
            return list(map(sizes.__getitem__, slots.tolist()))
        cdf = self._cdf
        bisect_left = bisect.bisect_left
        return [sizes[min(bisect_left(cdf, u), last)] for u in uniforms]
