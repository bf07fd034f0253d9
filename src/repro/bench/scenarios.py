"""Benchmark scenario definitions.

Each scenario is a self-contained callable that builds its inputs from
scratch (no shared state between repeats), runs the measured region,
and returns ``(work_items, counters)``:

* ``work_items`` — how many units of work the measured region
  performed (cache accesses for the microbenchmark, trace memory
  references for full-system points); divided by the wall-clock time
  it yields the scenario's throughput figure.
* ``counters`` — a flat dict of deterministic event counts.  These
  must be identical on every machine and every run; the CI perf-smoke
  job fails when they drift from the committed baseline.

Scenarios are chosen to stress the distinct hot paths of the
simulator:

* ``cache_hit_micro``  — raw :class:`SetAssociativeCache` hit path on a
  high-associativity set (the linear-scan-vs-tag-index case).
* ``hot_cache``        — full system on a cache-resident workload
  (``eon``): dominated by L1/L2 hits and core bookkeeping.
* ``dram_bound``       — full system on ``mcf``: dominated by the DRAM
  channel/bank scheduling path.
* ``prefetch_heavy``   — full system on ``swim`` with scheduled region
  prefetching: exercises the prefetch queue/region/controller path.
* ``trace_gen``        — synthesis of a ``swim`` trace plus its warm-up
  trace: the numpy workload-generation path.
* ``sweep_batch``      — an 8-configuration sweep over one shared trace
  through ``simulate_batch`` on the default kernel: the cross-point
  amortization path.
* ``sweep_indep``      — the same 8 configurations as 8 independent
  reference ``simulate`` calls, each rebuilding its trace: the naive
  sweep this repo used to run.  Its counters must equal
  ``sweep_batch``'s exactly, so the committed baseline doubles as a
  batch-vs-independent equivalence gate.

The full-system scenarios run the default path — the kernel
``repro.kernel.select_kernel`` picks, so the fast kernel on DRDRAM and
the reference kernel on backends it does not specialize — with traces
from the runner worker's per-process memo (populated during the
harness's untimed warm-up iteration).  Their event counters are
byte-identical to the reference kernel's, so the committed baseline
also gates fast-vs-reference equivalence in CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.core.config import CacheConfig, SystemConfig
from repro.core.stats import CacheStats, SimStats
from repro.core.system import simulate
from repro.kernel import simulate_batch
from repro.runner.worker import get_traces

__all__ = ["Scenario", "SCENARIOS"]

Counters = Dict[str, int]


@dataclass(frozen=True)
class Scenario:
    """One timed benchmark case."""

    name: str
    description: str
    #: (memory_refs) -> (work_items, counters); the callable is timed
    #: end to end, so it must do its setup outside via closures only
    #: when that setup is explicitly part of the measured story.
    run: Callable[[int], Tuple[int, Counters]]
    #: memory references (or accesses) for the full and --quick runs.
    full_refs: int
    quick_refs: int


def _stats_counters(stats: SimStats) -> Counters:
    """Deterministic event counters of one full-system run."""
    return {
        "instructions": int(stats.instructions),
        "loads": int(stats.loads),
        "stores": int(stats.stores),
        "ifetches": int(stats.ifetches),
        "l1d_accesses": int(stats.l1d.accesses),
        "l1d_hits": int(stats.l1d.hits),
        "l1i_accesses": int(stats.l1i.accesses),
        "l2_accesses": int(stats.l2.accesses),
        "l2_misses": int(stats.l2.misses),
        "l2_demand_fetches": int(stats.l2_demand_fetches),
        "dram_accesses": int(stats.dram_accesses),
        "prefetches_issued": int(stats.prefetches_issued),
        "cycles_x1000": int(stats.cycles * 1000),
    }


# -- the cache microbenchmark -----------------------------------------------------

#: geometry of the microbenchmark cache: 16-way, 64 sets.  High
#: associativity is the case the tag index exists for — a linear scan
#: pays up to ``assoc`` Python-level compares per lookup.
_MICRO_CONFIG = CacheConfig(
    size_bytes=64 * 16 * 64, assoc=16, block_bytes=64, hit_latency=1
)


def _cache_hit_micro(accesses: int) -> Tuple[int, Counters]:
    """Round-robin demand hits over a resident working set.

    The working set fills every way of every set, and each pass touches
    the blocks in fill order, so most hits land deep in the recency
    chain — the worst case for a linear tag scan and the common case
    for large L2 studies.
    """
    config = _MICRO_CONFIG
    stats = CacheStats()
    cache = SetAssociativeCache(config, stats)
    blocks = [i * config.block_bytes for i in range(config.num_blocks)]
    for addr in blocks:
        cache.fill(addr, ready_time=0.0)
    access = cache.access
    n = len(blocks)
    for i in range(accesses):
        access(blocks[i % n], False)
    counters = {
        "accesses": int(stats.accesses),
        "hits": int(stats.hits),
        "misses": int(stats.misses),
        "evictions": int(stats.evictions),
    }
    return accesses, counters


# -- full-system points -----------------------------------------------------------

def _run_system(benchmark: str, config: SystemConfig, refs: int) -> Tuple[int, Counters]:
    warm, main = get_traces(benchmark, refs, 0, config.l2.size_bytes)
    stats = simulate(main, config, warmup_trace=warm)
    return refs, _stats_counters(stats)


def _hot_cache(refs: int) -> Tuple[int, Counters]:
    return _run_system("eon", SystemConfig(), refs)


def _dram_bound(refs: int) -> Tuple[int, Counters]:
    return _run_system("mcf", SystemConfig(), refs)


def _prefetch_heavy(refs: int) -> Tuple[int, Counters]:
    return _run_system("swim", SystemConfig().with_prefetch(enabled=True), refs)


# -- the sweep pair ---------------------------------------------------------------

#: 8 configuration variants sharing one trace recipe (same L2 size, so
#: the same warm-up/main traces serve every point) — the shape of the
#: paper's mapping/prefetch sweeps.
def _sweep_configs() -> Tuple[SystemConfig, ...]:
    base = SystemConfig()
    return (
        base,
        replace(base, dram=replace(base.dram, mapping="base")),
        replace(base, dram=replace(base.dram, row_policy="closed")),
        replace(base, l2=replace(base.l2, assoc=2)),
        base.with_prefetch(enabled=True),
        base.with_prefetch(enabled=True, policy="fifo"),
        base.with_prefetch(enabled=True, bank_aware=False),
        base.with_prefetch(enabled=True, scheduled=False),
    )


def _accumulate(totals: Counters, stats: SimStats) -> None:
    for key, value in _stats_counters(stats).items():
        totals[key] = totals.get(key, 0) + value


def _sweep_batch(refs: int) -> Tuple[int, Counters]:
    """8-config sweep over one shared trace, batched on the default kernel.

    The traces come from the runner worker's memo, and one compilation
    of each is shared by all eight points.  Counters are the per-config
    sums, byte-identical to ``sweep_indep``'s.
    """
    configs = _sweep_configs()
    warm, main = get_traces("eon", refs, 0, configs[0].l2.size_bytes)
    totals: Counters = {}
    for stats in simulate_batch(main, configs, warmup_trace=warm):
        _accumulate(totals, stats)
    return refs * len(configs), totals


def _sweep_indep(refs: int) -> Tuple[int, Counters]:
    """The same 8-config sweep as N independent reference simulations.

    Each point rebuilds its warm-up and main traces and runs the
    reference kernel end to end — the pre-batching sweep cost model.
    ``fast=False`` pins the reference path, so the batch/independent
    ratio in one bench file is always default-batched vs
    reference-naive.
    """
    from repro.workloads import build_trace
    from repro.workloads.registry import build_warmup_trace

    configs = _sweep_configs()
    totals: Counters = {}
    for config in configs:
        warm = build_warmup_trace("eon", seed=0, l2_bytes=config.l2.size_bytes)
        main = build_trace("eon", refs, seed=0)
        _accumulate(
            totals, simulate(main, config, warmup_trace=warm, fast=False)
        )
    return refs * len(configs), totals


def _trace_gen(refs: int) -> Tuple[int, Counters]:
    from repro.workloads import build_trace
    from repro.workloads.registry import build_warmup_trace

    warm = build_warmup_trace("swim", seed=0, l2_bytes=1 << 20)
    main = build_trace("swim", refs, seed=0)
    counters = {
        "warmup_records": len(warm),
        "trace_records": len(main),
        "instructions": int(main.instruction_count),
        "addr_checksum": int(main.addrs.sum() % (1 << 62)),
    }
    return len(warm) + len(main), counters


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="cache_hit_micro",
            description="SetAssociativeCache demand hits, 16-way sets, LRU-depth hits",
            run=_cache_hit_micro,
            full_refs=400_000,
            quick_refs=80_000,
        ),
        Scenario(
            name="hot_cache",
            description="full system, cache-resident workload (eon)",
            run=_hot_cache,
            full_refs=30_000,
            quick_refs=6_000,
        ),
        Scenario(
            name="dram_bound",
            description="full system, channel-saturating workload (mcf)",
            run=_dram_bound,
            full_refs=30_000,
            quick_refs=6_000,
        ),
        Scenario(
            name="prefetch_heavy",
            description="full system, streaming workload (swim) + scheduled region prefetch",
            run=_prefetch_heavy,
            full_refs=30_000,
            quick_refs=6_000,
        ),
        Scenario(
            name="sweep_batch",
            description="8-config sweep, one shared trace, batched default kernel",
            run=_sweep_batch,
            full_refs=12_000,
            quick_refs=3_000,
        ),
        Scenario(
            name="sweep_indep",
            description="8-config sweep, independent reference simulate calls",
            run=_sweep_indep,
            full_refs=12_000,
            quick_refs=3_000,
        ),
        Scenario(
            name="trace_gen",
            description="synthetic trace + warm-up trace construction (swim)",
            run=_trace_gen,
            full_refs=120_000,
            quick_refs=30_000,
        ),
    )
}


def time_scenario(scenario: Scenario, refs: int) -> Tuple[float, int, Counters]:
    """One timed execution; returns (seconds, work_items, counters).

    Full-system scenarios route trace construction through the runner
    worker's per-process memo, so after the harness's warm-up repeat
    the measured repeats time only the simulation kernel; the
    ``trace_gen`` scenario calls the builders directly and therefore
    measures construction every time.
    """
    started = time.perf_counter()
    work, counters = scenario.run(refs)
    return time.perf_counter() - started, work, counters
