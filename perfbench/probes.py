"""Tracing probes installed from outside the program.

Two instruments, both kept in memory until the run ends:

* **Spans.**  :class:`Tracer` replaces public functions and methods of
  the program with wrappers that record ``(name, start, end, parent,
  point id)``.  A function is patched in every
  module that binds it, because ``from x import y`` copies the binding
  into the caller at import time.
* **Self time.**  :class:`Sampler` is a statistical profiler: a
  ``SIGPROF`` timer samples the innermost Python frame of every thread
  and charges the sample to the ``repro/<module>/`` directory that
  frame's file lives in.  It adds far less cost than ``cProfile`` and
  sees the service's executor threads as well as the main thread.

Drift tolerance: a probe site whose module or attribute no longer
exists is recorded as absent with a warning naming it; the metrics it
feeds are reported as ``None`` (printed as ``absent``), never as 0.
"""

from __future__ import annotations

import functools
import importlib
import signal
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: probe name -> sites ("module:attr" or "module:Class.method").
PROBE_SITES: Dict[str, Tuple[str, ...]] = {
    "workloads.build": (
        "repro.runner.worker:build_trace",
        "repro.runner.worker:build_warmup_trace",
    ),
    "kernel.compile": (
        "repro.kernel.compiled:compile_trace",
        "repro.kernel.batch:compile_trace",
    ),
    "core.warmup": (
        "repro.core.system:System.warmup",
        "repro.kernel.fastcore:FastSystem.warmup",
    ),
    "core.run": (
        "repro.core.system:System.run",
        "repro.kernel.fastcore:FastSystem.run",
    ),
    "point": (
        "repro.runner.runner:execute_point",
        "repro.service.engine:execute_point",
    ),
    "runner.run_points": ("repro.runner.runner:Runner.run_points",),
}

#: modules whose self time is folded into ``<module>.self_s``.
SELF_MODULES = ("cpu", "cache", "dram", "prefetch", "kernel", "sanitize", "obs")


def warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr, flush=True)


def _resolve(site: str):
    """(owner, attribute) for a site, or None when it has moved."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _point_id(args: tuple) -> Optional[str]:
    point = args[0] if args else None
    label = getattr(point, "label", None)
    return label() if callable(label) else None


def _length(args: tuple) -> int:
    """Trace records handed to a kernel entry point (``self, trace``)."""
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 0


class Tracer:
    """Span recorder; :meth:`install` patches the program in place."""

    def __init__(self, sites: Dict[str, Tuple[str, ...]] = PROBE_SITES) -> None:
        self.sites = sites
        self.spans: List[dict] = []
        self.absent: List[str] = []
        #: seconds the wrappers spent on their own bookkeeping.
        self.overhead = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn: Callable, args: tuple, kwargs: dict, kernel: str = ""):
        entered = time.perf_counter()
        stack = self._stack()
        span = {
            "name": name,
            "parent": stack[-1]["name"] if stack else None,
            "point": _point_id(args) if name == "point" else None,
            "records": _length(args) if name.startswith("core.") else 0,
            "kernel": kernel,
        }
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
                self.overhead += (span["start"] - entered) + (time.perf_counter() - span["end"])

    # -- patching -----------------------------------------------------------

    def install(self) -> "Tracer":
        for name, sites in self.sites.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    self.absent.append(site)
                    warn(f"probe {name} site {site} is absent")
                    continue
                owner, attr = found
                original = owner.__dict__.get(attr, getattr(owner, attr))
                # every site of one function shares one wrapper
                if getattr(original, "__perfbench__", False):
                    continue
                self._undo.append((owner, attr, original))
                # kernel entry points under repro.kernel are the fast kernel
                kernel = "fast" if site.startswith("repro.kernel.") else "reference"
                setattr(owner, attr, self._wrap(name, original, kernel))
        return self

    def _wrap(self, name: str, fn: Callable, kernel: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.record(name, fn, args, kwargs, kernel)

        wrapper.__perfbench__ = True
        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def missing(self, name: str) -> bool:
        """True when every site of probe ``name`` is absent."""
        return all(site in self.absent for site in self.sites.get(name, ()))


class Sampler:
    """SIGPROF sampling profiler folding self time by ``repro/<module>/``."""

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.seconds: Dict[str, float] = {}
        #: seconds spent inside the sampling handler.
        self.overhead = 0.0

    def start(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    @staticmethod
    def module_of(filename: str) -> Optional[str]:
        marker = "/repro/"
        at = filename.replace("\\", "/").rfind(marker)
        if at < 0:
            return None
        rest = filename[at + len(marker):].split("/")
        return rest[0] if len(rest) > 1 else "repro"

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        main = threading.main_thread().ident
        modules = []
        for ident, top in sys._current_frames().items():
            if ident == main:
                top = frame
            module = self.module_of(top.f_code.co_filename) if top else None
            if module is not None:
                modules.append(module)
        if modules:
            share = self.interval / len(modules)
            for module in modules:
                self.seconds[module] = self.seconds.get(module, 0.0) + share
        self.overhead += time.perf_counter() - entered


# -- folding spans into per-layer metrics ---------------------------------------


def _total(spans: Sequence[dict], name: str) -> Tuple[float, int]:
    chosen = [s for s in spans if s["name"] == name]
    return sum(s["end"] - s["start"] for s in chosen), len(chosen)


def layer_metrics(
    spans: Sequence[dict],
    self_seconds: Dict[str, float],
    absent: Callable[[str], bool],
    runner: Optional[Dict[str, Optional[float]]] = None,
) -> Dict[str, Optional[float]]:
    """Per-layer numbers from one traced run.

    ``absent(probe)`` says whether a probe could not be installed; its
    metrics come back as None.  ``runner`` carries the Runner's own
    counters (``simulated``, ``reused``, ``disk_hits``, ``sim_seconds``,
    ``jobs``), each None when the attribute has moved.
    """
    out: Dict[str, Optional[float]] = {}

    def put(name: str, value: Optional[float], *probes: str) -> None:
        out[name] = None if any(absent(p) for p in probes) else value

    build_s, builds = _total(spans, "workloads.build")
    put("workloads.build_s", build_s, "workloads.build")
    put("workloads.builds", builds, "workloads.build")
    compile_s, compiles = _total(spans, "kernel.compile")
    put("kernel.compile_s", compile_s, "kernel.compile")
    put("kernel.compiles", compiles, "kernel.compile")

    warm_s, _ = _total(spans, "core.warmup")
    measured = [s for s in spans if s["name"] == "core.run" and s["parent"] != "core.warmup"]
    run_s = sum(s["end"] - s["start"] for s in measured)
    put("core.warmup_s", warm_s, "core.warmup")
    put("core.run_s", run_s, "core.run")
    top = [s for s in spans if s["name"] == "core.warmup"] + measured
    records = sum(s["records"] for s in top)
    put("core.us_per_ref", (warm_s + run_s) * 1e6 / records if records else 0.0,
        "core.warmup", "core.run")
    fast = sum(1 for s in measured if s.get("kernel") == "fast")
    put("kernel.fast_share", fast / len(measured) if measured else 0.0, "core.run")

    for module in SELF_MODULES:
        out[f"{module}.self_s"] = self_seconds.get(module, 0.0)

    run_points = [s for s in spans if s["name"] == "runner.run_points"]
    wall = sum(s["end"] - s["start"] for s in run_points)
    points = [s for s in spans if s["name"] == "point" and s["parent"] == "runner.run_points"]
    dispatch = wall - sum(s["end"] - s["start"] for s in points)
    put("runner.dispatch_s", dispatch if run_points else 0.0, "runner.run_points", "point")
    if runner is None:  # the workload does not go through a Runner
        runner = {"sim_seconds": 0.0, "jobs": 1, "simulated": 0, "reused": 0, "disk_hits": 0}
    sim_seconds, jobs = runner.get("sim_seconds"), runner.get("jobs")
    if sim_seconds is None or jobs is None or absent("runner.run_points"):
        out["runner.busy_frac"] = None
    else:
        out["runner.busy_frac"] = sim_seconds / (wall * jobs) if wall else 0.0
    for name in ("simulated", "reused", "disk_hits"):
        out[f"runner.{name}"] = runner.get(name)
    return out
