"""Top-level simulated system: core + caches + controller + DRAM.

    >>> from repro import System, SystemConfig
    >>> from repro.workloads import build_trace
    >>> stats = System(SystemConfig()).run(build_trace("swim", memory_refs=10_000))
    >>> stats.ipc > 0
    True
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import SystemConfig
from repro.core.stats import SimStats
from repro.cpu.core import OutOfOrderCore
from repro.cpu.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.kernel.compiled import CompiledTrace
    from repro.obs.observer import Observer
    from repro.sanitize.sanitizer import Sanitizer

__all__ = ["System", "simulate"]


class System:
    """One simulated machine instance.

    A ``System`` is single-use per run in the sense that caches and DRAM
    state persist across :meth:`run` calls (useful for warm-up phases);
    construct a fresh instance for an independent experiment.

    ``obs`` threads an optional :class:`repro.obs.Observer` through
    every component; observability never changes the simulation — the
    statistics are byte-identical with it on or off.

    ``sanitize`` threads an optional :class:`repro.sanitize.Sanitizer`
    through the same seams: pass ``True`` to build one, or an existing
    instance to share it.  Like observability it never changes the
    simulation; it only *checks* it, raising
    :class:`repro.sanitize.SanitizerError` on the first violated
    invariant.
    """

    def __init__(
        self,
        config: SystemConfig,
        obs: "Optional[Observer]" = None,
        sanitize: "Union[bool, Sanitizer, None]" = None,
    ) -> None:
        self.config = config.validate()
        self.stats = SimStats()
        self.obs = obs
        if sanitize is True:
            from repro.sanitize.sanitizer import Sanitizer

            san: "Optional[Sanitizer]" = Sanitizer()
        else:
            san = sanitize or None
        self.san = san
        self.hierarchy = MemoryHierarchy(config, self.stats, obs=obs, san=san)
        self.core = OutOfOrderCore(config, self.hierarchy, self.stats, obs=obs, san=san)
        self._clock = 0.0

    def run(
        self, trace: Trace, compiled: "Optional[CompiledTrace]" = None
    ) -> SimStats:
        """Execute ``trace`` on this system; returns accumulated stats.

        ``compiled`` optionally passes the trace's
        :class:`~repro.kernel.compiled.CompiledTrace`, whose list columns
        the core loop then walks instead of converting the trace itself.
        """
        columns = compiled.base_columns() if compiled is not None else None
        self._clock = self.core.run(trace, start_time=self._clock, columns=columns)
        if self.san is not None:
            # End-of-run structural sweep: tag/recency mirrors,
            # conservation counts, shadow-vs-real DRAM bank state.
            self.san.quiesce(self._clock)
        return self.stats

    def warmup(
        self, trace: Trace, compiled: "Optional[CompiledTrace]" = None
    ) -> None:
        """Run ``trace`` to warm caches and DRAM state, then zero the
        statistics; the simulated clock keeps advancing so utilization
        accounting stays consistent.  Observability is muted for the
        duration — like the statistics, recorded traces and histograms
        cover only the measured window."""
        if self.obs is not None:
            self.obs.mute()
        try:
            self.run(trace, compiled)
        finally:
            if self.obs is not None:
                self.obs.unmute()
        self.stats.reset()


def simulate(
    trace: Trace,
    config: SystemConfig,
    warmup_trace: Optional[Trace] = None,
    obs: "Optional[Observer]" = None,
    sanitize: "Union[bool, Sanitizer, None]" = None,
    fast: Optional[bool] = None,
) -> SimStats:
    """Run ``trace`` on a fresh system built from ``config``.

    ``warmup_trace``, when given, runs first and is excluded from the
    returned statistics (the paper similarly verified that cold-start
    misses did not perturb its measurements, Section 3.1).  ``obs``
    optionally records traces/histograms/timelines without perturbing
    the statistics; ``sanitize`` runs the same simulation under the
    runtime invariant checker.

    ``fast`` chooses between the specialized kernel in
    :mod:`repro.kernel` (the default; ``None`` reads the ``REPRO_FAST``
    opt-out) and the reference kernel, which stays authoritative and
    always runs observed or sanitized points and geometries the fast
    kernel does not specialize.  Both produce byte-identical statistics.
    """
    # Imported lazily: repro.kernel builds on this module.
    from repro.kernel.compiled import compile_trace
    from repro.kernel.fastcore import select_kernel

    system = select_kernel(config, obs=obs, sanitize=sanitize, fast=fast)
    if warmup_trace is not None:
        # The warm-up's compiled views are dropped before the main run.
        system.warmup(warmup_trace, compile_trace(warmup_trace))
    return system.run(trace, compile_trace(trace))
