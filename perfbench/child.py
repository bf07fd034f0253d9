"""One batch workload in a fresh interpreter.

``run.py`` launches this file once per set-up sample (``setup``) and
once for the measured run (``run``); with ``--trace`` the measured run
executes inline under the span probes and the sampling profiler.  The
result is written as JSON to ``--out``.

Workloads:

* ``fig5-sweep`` — ``figure5.run`` at the quick profile through a
  ``Runner`` with ``jobs=nproc`` and no on-disk result cache;
* ``checked-backends`` — every registered DRAM backend x {xor,
  prefetch} on a few tiny-profile benchmarks, one point per call,
  through ``Runner(sanitize=True, observe=ObsSession(...))`` inline.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import probes  # noqa: E402

#: tiny-profile benchmarks for checked-backends, cheapest warm-up first.
CHECKED_BENCHMARKS = ("swim", "facerec", "mcf", "eon", "parser", "twolf")
#: host seconds one checked-backends benchmark (8 points) takes here.
CHECKED_SECONDS_PER_BENCHMARK = 8.5
#: oracle re-simulations per run.
ORACLE_POINTS = 2


def checked_points(seed: int, seconds: float):
    """The checked-backends points, in a seed-chosen order."""
    from repro.core.presets import prefetch_4ch_64b, xor_4ch_64b
    from repro.dram.backends import backend_names
    from repro.experiments.common import PROFILES
    from repro.runner import SimPoint

    count = max(1, min(len(CHECKED_BENCHMARKS), round(seconds / CHECKED_SECONDS_PER_BENCHMARK)))
    refs = PROFILES["tiny"].memory_refs
    points = [
        SimPoint(benchmark, policy().with_backend(backend), refs, seed)
        for benchmark in CHECKED_BENCHMARKS[:count]
        for backend in backend_names()
        for policy in (xor_4ch_64b, prefetch_4ch_64b)
    ]
    random.Random(seed).shuffle(points)
    return points


def make_runner(workload: str, tmp: str, inline: bool):
    """The workload's Runner; constructing it ends the set-up interval."""
    from repro.runner import Runner, set_runner

    if workload == "fig5-sweep":
        from repro.experiments import figure5  # noqa: F401  (part of set-up)

        jobs = 1 if inline else (os.cpu_count() or 1)
        return set_runner(Runner(jobs=jobs, cache_dir=None, keep_going=True))
    from repro.obs.observer import ObsSession

    return Runner(
        jobs=1,
        cache_dir=None,
        keep_going=True,
        sanitize=True,
        observe=ObsSession(metrics_path=os.path.join(tmp, "obs-metrics.json")),
    )


def _runner_counters(runner) -> dict:
    out = {}
    for name in ("simulated", "reused", "disk_hits", "sim_seconds", "jobs"):
        value = getattr(runner, name, None)
        if value is None:
            probes.warn(f"Runner.{name} is absent")
        out[name] = value
    return out


def _fig5(runner, profile):
    from repro.experiments import figure5

    result = figure5.run(profile)
    latencies = [job.wall_seconds for job in runner.job_log]
    return latencies, {
        "xor": result.xor_speedup,
        "prefetch": result.prefetch_speedup,
        "best": result.best_speedup_over_base,
    }


def run(args) -> dict:
    traced = args.trace
    runner = make_runner(args.workload, args.tmp, inline=traced)
    ready = time.monotonic()
    if args.mode == "setup":
        return {"ready": ready}

    tracer = sampler = None
    if traced:
        tracer = probes.Tracer().install()
        sampler = probes.Sampler().start()
    from repro.experiments.common import PROFILES

    fig5 = None
    started = time.perf_counter()
    if args.workload == "fig5-sweep":
        latencies, fig5 = _fig5(runner, PROFILES["quick"])
    else:
        points = checked_points(args.seed, args.seconds)
        latencies = []
        for point in points:
            t0 = time.perf_counter()
            runner.run_points([point])
            latencies.append(time.perf_counter() - t0)
        runner.observe.close()
    wall = time.perf_counter() - started
    if traced:
        sampler.stop()
        tracer.uninstall()

    # -- outside the timed region ------------------------------------------
    done = [job.point for job in runner.job_log]
    failed = sum(1 for record in runner.failures if record.fatal)
    out = {
        "ready": ready,
        "wall": wall,
        "points": len(done),
        "attempted": len(done) + failed,
        "failed": failed,
        "latencies": latencies,
        "fig5": fig5,
    }
    if traced:
        out["layers"] = probes.layer_metrics(
            tracer.spans, sampler.seconds, tracer.missing, _runner_counters(runner)
        )
        out["layers"]["trace.overhead_frac"] = (tracer.overhead + sampler.overhead) / wall
        out["absent"] = tracer.absent
    served = {point: runner.run_points([point])[0].to_dict() for point in done}
    mismatches = []
    for point in oracle.sample(done, ORACLE_POINTS, args.seed):
        fields = oracle.diff(
            oracle.resimulate(point.benchmark, point.config, point.memory_refs, point.seed),
            served[point],
        )
        if fields:
            mismatches.append(f"{point.label()}: {', '.join(fields)}")
    out["oracle_checked"] = min(ORACLE_POINTS, len(done))
    out["mismatches"] = mismatches
    out["digest"] = oracle.digest(
        [{"point": p.label(), "stats": s} for p, s in served.items()]
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=("fig5-sweep", "checked-backends"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
