"""Multi-config batching over one shared compiled trace.

``simulate_batch`` compiles a trace once per call and steps several
configuration variants over it: the trace's list conversions and
derived cache columns are built once and shared by every point, so the
per-config cost is the simulation proper.  Each point runs on the
kernel :func:`~repro.kernel.fastcore.select_kernel` picks for it, and
the results are byte-identical to independent ``simulate`` calls —
enforced by the singleton-equivalence property test in
``tests/test_kernel_ab.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.cpu.trace import Trace
from repro.kernel.compiled import compile_trace
from repro.kernel.fastcore import select_kernel

__all__ = ["simulate_batch"]


def simulate_batch(
    trace: Trace,
    configs: Sequence[SystemConfig],
    warmup_trace: Optional[Trace] = None,
    warmup_traces: Optional[Sequence[Optional[Trace]]] = None,
    obs=None,
    sanitize=None,
    fast: Optional[bool] = None,
) -> List[SimStats]:
    """Simulate ``trace`` under each config; returns one stats per config.

    ``warmup_trace`` warms every point with the same trace;
    ``warmup_traces`` supplies one per config (entries may be None) for
    sweeps whose warm-up depends on the config, e.g. on the L2 size.
    ``obs``/``sanitize``/``fast`` apply to every point exactly as in
    :func:`repro.core.system.simulate`.  Statistics are byte-identical
    to N independent ``simulate`` calls in every mode.
    """
    if warmup_traces is not None:
        if warmup_trace is not None:
            raise ValueError("pass warmup_trace or warmup_traces, not both")
        if len(warmup_traces) != len(configs):
            raise ValueError(
                f"warmup_traces has {len(warmup_traces)} entries "
                f"for {len(configs)} configs"
            )
    else:
        warmup_traces = [warmup_trace] * len(configs)

    # One compilation per distinct trace object, shared within this call.
    compiled = {id(trace): compile_trace(trace)}
    results: List[SimStats] = []
    for config, warm in zip(configs, warmup_traces):
        system = select_kernel(config, obs=obs, sanitize=sanitize, fast=fast)
        if warm is not None:
            if id(warm) not in compiled:
                compiled[id(warm)] = compile_trace(warm)
            system.warmup(warm, compiled[id(warm)])
        results.append(system.run(trace, compiled[id(trace)]))
    return results
