"""Compiled trace columns, the specialized kernel, and its dispatch.

This package is the performance layer over the reference simulator:

* :mod:`repro.kernel.compiled` — derived trace columns (list views,
  cache set indices) built per point, or once per ``simulate_batch``
  call and shared by its configurations;
* :mod:`repro.kernel.fastcore` — ``FastSystem``, the specialized
  interpreter (byte-identical to the reference kernel), and
  ``select_kernel``, the one place a kernel is chosen: fast by default,
  ``REPRO_FAST=0`` opts out;
* :mod:`repro.kernel.batch` — ``simulate_batch`` for multi-config
  sweeps over one shared compiled trace;
* :mod:`repro.kernel.store` — the content-addressed on-disk trace
  store (``REPRO_TRACE_STORE``) that shares built traces across
  worker processes.

The pure-Python reference kernel (``repro.cpu.core`` and friends)
remains authoritative: the fast path must match it byte for byte, and
``select_kernel`` falls back to it whenever observability, sanitizing,
or a configuration the fast kernel does not specialize is involved.
"""

from repro.kernel.batch import simulate_batch
from repro.kernel.compiled import CompiledTrace, compile_trace, trace_digest
from repro.kernel.fastcore import (
    FastSystem,
    fast_enabled,
    kernel_supports,
    select_kernel,
)
from repro.kernel.store import TraceStore, trace_store_from_env

__all__ = [
    "CompiledTrace",
    "FastSystem",
    "TraceStore",
    "compile_trace",
    "fast_enabled",
    "kernel_supports",
    "select_kernel",
    "simulate_batch",
    "trace_digest",
    "trace_store_from_env",
]
