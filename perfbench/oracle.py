"""Output checks: an independent re-simulation and a stats digest.

The oracle rebuilds a point's traces from scratch (never from the trace
store or a memo) and re-simulates it on the reference kernel, then
compares every statistic field for field with what the workload
returned.  It runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Mapping, Sequence


def resimulate(benchmark: str, config, memory_refs: int, seed: int) -> Dict[str, object]:
    """Statistics of one point, simulated from scratch on the reference kernel."""
    from repro.core.system import simulate
    from repro.workloads import build_trace
    from repro.workloads.registry import build_warmup_trace

    warm = build_warmup_trace(benchmark, seed=seed, l2_bytes=config.l2.size_bytes)
    main = build_trace(benchmark, memory_refs, seed=seed)
    stats = simulate(main, config, warmup_trace=warm if len(warm) else None, fast=False)
    return stats.to_dict()


def diff(expected: Mapping[str, object], got: Mapping[str, object]) -> List[str]:
    """Field names whose values differ (or exist on one side only)."""
    return sorted(
        field for field in set(expected) | set(got)
        if expected.get(field) != got.get(field)
    )


def sample(items: Sequence, k: int, seed: int) -> list:
    """A seed-chosen sample of ``k`` items (all of them when fewer)."""
    return random.Random(seed).sample(list(items), min(k, len(items)))


def digest(stats: Sequence[Mapping[str, object]]) -> str:
    """Order-independent digest of a run's simulated statistics."""
    lines = sorted(json.dumps(s, sort_keys=True, separators=(",", ":")) for s in stats)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
