"""Seal-journal growth of a sweep: records written per 1k cache ops and
the peak number of records the journal holds at once.

    PYTHONPATH=src python tools/journal_growth.py failover invalidate --size quick

Every ``HybridCache`` the sweep builds is instrumented in-process (the
crash-recovered engines of a failover run included): cache ops are
counted at ``get`` / ``set`` / ``delete``, records written are the
engine's journal sequence number at the end of its life, and the length
of its journal is sampled before every region invalidation or
quarantine (the only places records are retired) and after the run, so
the peak is exact.  Prints one line per sweep.
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.bench.experiments import run_sweep
from repro.cache import HybridCache


def instrument():
    """Patch ``HybridCache`` to count; returns ``(engines, counters)``."""
    engines = []
    counters = {"ops": 0}

    def sample(cache) -> None:
        # len(cache.seal_journal) without building it: lifecycle and
        # nsbump records plus each region's live dead copies.
        length = len(cache._log) + sum(map(len, cache._dead.values()))
        cache._peak_journal = max(getattr(cache, "_peak_journal", 0), length)

    original_init = HybridCache.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        engines.append(self)

    HybridCache.__init__ = init
    for name in ("get", "set", "delete"):
        method = getattr(HybridCache, name)

        def counted(self, *args, _method=method, **kwargs):
            counters["ops"] += 1
            return _method(self, *args, **kwargs)

        setattr(HybridCache, name, counted)
    for name in ("_evict_keys", "_quarantine_region"):
        method = getattr(HybridCache, name)

        def sampled(self, *args, _method=method, **kwargs):
            sample(self)
            return _method(self, *args, **kwargs)

        setattr(HybridCache, name, sampled)
    return engines, counters, sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweeps", nargs="+")
    parser.add_argument("--size", default="quick", choices=("full", "quick", "smoke"))
    args = parser.parse_args(argv)
    engines, counters, sample = instrument()
    for sweep in args.sweeps:
        del engines[:]
        counters["ops"] = 0
        run_sweep(sweep, size=args.size)
        for cache in engines:
            sample(cache)
        written = sum(cache._journal_seq for cache in engines)
        peak = max(cache._peak_journal for cache in engines)
        ops = counters["ops"]
        print(
            f"{sweep} ({args.size}): {len(engines)} engines, {ops} cache ops, "
            f"{written} records written ({1000 * written / ops:.1f} per 1k ops), "
            f"peak journal {peak} records",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
