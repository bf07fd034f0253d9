"""Precompiled trace columns for the simulation kernels.

A :class:`CompiledTrace` wraps an immutable :class:`~repro.cpu.trace.Trace`
and converts its numpy columns to plain Python lists, which both
kernels walk (``ndarray.__getitem__`` in a tight loop is several times
slower than list iteration).  Both kernels need exactly these five
columns and derive everything else (cache blocks and sets, DRAM bank
and row) per record, so the fast kernel holds no more trace data than
the reference one.

The lists cost several times the numpy columns, so nothing is memoized
across calls: a compilation lives exactly as long as its holder — one
point's warm-up or main run, or one ``simulate_batch`` call that shares
it between configurations.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

from repro.cpu.trace import Trace

__all__ = ["CompiledTrace", "compile_trace", "trace_digest"]


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: sha256 over its columns and name."""
    h = hashlib.sha256()
    h.update(trace.name.encode("utf-8"))
    h.update(b"\0")
    for column in (trace.kinds, trace.gaps, trace.addrs, trace.deps, trace.pcs):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


class CompiledTrace:
    """List columns of one trace.

    Consumers must treat the lists as immutable: one compilation may be
    shared by several configurations of a batch.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._columns = (
            trace.kinds.tolist(),
            trace.gaps.tolist(),
            trace.addrs.tolist(),
            trace.deps.tolist(),
            trace.pcs.tolist(),
        )

    def __len__(self) -> int:
        return len(self.trace)

    def base_columns(self) -> Tuple[list, list, list, list, list]:
        """(kinds, gaps, addrs, deps, pcs) as plain lists."""
        return self._columns


def compile_trace(trace: Trace) -> CompiledTrace:
    """A fresh :class:`CompiledTrace` for ``trace``, freed with its
    holder."""
    return CompiledTrace(trace)
