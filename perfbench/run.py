#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of the repro simulator on its default path.

    python3 perfbench/run.py --workload fig5-sweep --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``fig5-sweep``       — the paper's Figure 5 quick sweep, cold, jobs=nproc;
* ``serve-mix``        — nproc closed-loop HTTP clients against ``repro-serve``;
* ``checked-backends`` — a sanitized, observed sweep over every DRAM backend.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with span probes and a sampling profiler and reports per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run works in a fresh
directory under ``.perfbench_tmp/`` in the checkout and removes it at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fig5-sweep", "serve-mix", "checked-backends")
#: set-up samples per run (the measured run's own set-up is one more).
SETUP_SAMPLES = 8
#: a workload that has not finished by then is killed and counted failed.
DEADLINE_S = 165.0
#: Section 4.3 of the paper: XOR +33%, prefetching +43%, 8ch/256B+PF +118%.
PAPER_GAINS_PCT = {"xor": 33.0, "prefetch": 43.0, "best": 118.0}

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "kernel.compile_s": "s",
    "kernel.compiles": "count",
    "kernel.fast_share": "ratio",
    "core.warmup_s": "s",
    "core.run_s": "s",
    "core.us_per_ref": "us",
    "cpu.self_s": "s",
    "cache.self_s": "s",
    "dram.self_s": "s",
    "prefetch.self_s": "s",
    "kernel.self_s": "s",
    "sanitize.self_s": "s",
    "obs.self_s": "s",
    "runner.busy_frac": "ratio",
    "runner.dispatch_s": "s",
    "runner.simulated": "count",
    "runner.reused": "count",
    "runner.disk_hits": "count",
    "service.submit_p50_s": "s",
    "service.fetch_p50_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_p95_s": "s",
    "service.point_p50_s": "s",
    "service.busy_frac": "ratio",
    "service.store_hit_ratio": "ratio",
    "service.hit_latency_p50_s": "s",
    "service.miss_latency_p50_s": "s",
    "trace.overhead_frac": "ratio",
}


class WorkloadError(RuntimeError):
    """The workload could not finish; the run reports it as failed."""


def percentile(values: List[float], pct: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- process handling -------------------------------------------------------------


def _die_with_parent() -> None:
    """Child pre-exec hook: the kernel kills the child if we die first."""
    try:
        import ctypes

        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Run:
    """A run's scratch directory, child environment and child processes."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        base = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = os.path.join(base, f"{workload}-{os.getpid()}-{time.time_ns()}")
        for sub in ("home", "tmp", "traces"):
            os.makedirs(os.path.join(self.tmp, sub))
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            HOME=os.path.join(self.tmp, "home"),
            TMPDIR=os.path.join(self.tmp, "tmp"),
            REPRO_TRACE_STORE=os.path.join(self.tmp, "traces"),
            PYTHONPATH=SRC,
        )
        self.env = env
        self.procs: List[subprocess.Popen] = []

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def fresh_store(self) -> None:
        """Point the trace store at an empty directory of its own."""
        store = os.path.join(self.tmp, f"traces-{time.time_ns()}")
        os.makedirs(store)
        self.env["REPRO_TRACE_STORE"] = store

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise WorkloadError(f"deadline of {DEADLINE_S:.0f}s passed")
        return left

    def spawn(self, argv: List[str], log: str) -> subprocess.Popen:
        with open(self.path(log), "ab") as sink:
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=sink,
                stderr=subprocess.STDOUT,
                preexec_fn=_die_with_parent,
            )
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 20.0) -> int:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return proc.returncode

    def child(self, mode: str, out: str, *extra: str) -> dict:
        """Run ``child.py`` to completion and return its JSON result."""
        proc = self.spawn(
            [os.path.join(HERE, "child.py"), mode, "--workload", self.workload,
             "--seed", str(self.seed), "--seconds", str(self.seconds),
             "--tmp", self.tmp, "--out", self.path(out), *extra],
            log="child.log",
        )
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.stop(proc, grace=2.0)
            raise WorkloadError(f"child {mode} passed the deadline") from None
        if code != 0:
            raise WorkloadError(f"child {mode} exited {code}; log tail:\n{self.log_tail('child.log')}")
        with open(self.path(out), encoding="utf-8") as handle:
            return json.load(handle)

    def log_tail(self, name: str, lines: int = 15) -> str:
        try:
            with open(self.path(name), encoding="utf-8", errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass


def peak_rss_mb() -> float:
    """Largest resident set of any waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- batch workloads ----------------------------------------------------------------


def run_batch(run: Run, trace: bool) -> dict:
    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES):
            launched = time.monotonic()
            setups.append(run.child("setup", f"setup-{i}.json")["ready"] - launched)
    run.fresh_store()
    launched = time.monotonic()
    out = run.child("run", "run.json", *(["--trace"] if trace else []))
    setups.append(out["ready"] - launched)
    points = out["points"]
    result = {
        "attempted": out["attempted"],
        "failed": out["failed"] + len(out["mismatches"]),
        "mismatches": out["mismatches"],
        "oracle_checked": out["oracle_checked"],
        "digest": out["digest"],
        "notes": [],
        "metrics": {
            "setup_s": median(setups),
            "points_per_s": points / out["wall"],
            "latency_p50_s": median(out["latencies"]),
            "latency_p95_s": percentile(out["latencies"], 95),
            "peak_rss_mb": peak_rss_mb(),
        },
        "latencies": out["latencies"],
    }
    if out.get("fig5"):
        result["fig5"] = out["fig5"]
    if trace:
        result["layers"] = dict(out["layers"])
        result["layers"].update({name: 0.0 for name in PER_LAYER if name.startswith("service.")})
        result["absent"] = out.get("absent", [])
    return result


# -- serve-mix ------------------------------------------------------------------------

#: cheapest-to-warm benchmarks; the mix cycles through all of them.  With
#: two clients and a multiple of REPEAT_EVERY requests each, the fresh
#: requests cover every benchmark equally often, so seeds do equal work.
SERVE_BENCHMARKS = ("swim", "mcf", "facerec", "mgrid", "applu", "lucas")
SERVE_REFS = 8_000
#: jobs all clients together complete per host second on a 2-CPU host
#: (sizes a run to --seconds; the server is GIL-bound, so this does not
#: grow with the client count).
SERVE_JOBS_PER_S = 2.0
#: every REPEAT_EVERY-th request of a client repeats one of its earlier ones.
REPEAT_EVERY = 4

XOR = {"mapping": "xor"}
PREFETCH = {
    "enabled": True,
    "region_bytes": 4096,
    "policy": "lifo",
    "scheduled": True,
    "bank_aware": True,
    "insertion": "lru",
}


def serve_requests(seed: int, clients: int, per_client: int, backends) -> List[list]:
    """Each client's request list: (payload, index of the repeated request or None)."""
    rng = random.Random(seed)
    order = list(SERVE_BENCHMARKS)
    rng.shuffle(order)
    offset = rng.randrange(len(backends))
    combos = len(order) * len(backends)
    lists = []
    for client in range(clients):
        requests: list = []
        fresh = 0
        for i in range(per_client):
            if i % REPEAT_EVERY == REPEAT_EVERY - 1:
                earlier = rng.choice([k for k, (_, rep) in enumerate(requests) if rep is None])
                requests.append((requests[earlier][0], earlier))
                continue
            # fresh requests are unique across clients: j enumerates
            # (benchmark, backend) pairs, then moves to the next trace seed
            j = fresh * clients + client
            fresh += 1
            backend = backends[(j + j // len(order) + offset) % len(backends)]
            dram = dict(XOR, backend=backend)
            requests.append(({
                "benchmarks": [order[j % len(order)]],
                "memory_refs": SERVE_REFS,
                "seed": seed + j // combos,
                "configs": [{"dram": dram}, {"dram": dram, "prefetch": PREFETCH}],
            }, None))
        lists.append(requests)
    return lists


class Server:
    """A ``repro-serve serve`` subprocess on an OS-assigned port."""

    def __init__(self, run: Run, name: str, trace: bool) -> None:
        self.run = run
        self.log = f"{name}.log"
        self.spans = run.path(f"{name}-spans.json")
        argv = [os.path.join(HERE, "serve_child.py")]
        if trace:
            argv += ["--trace", "--spans-out", self.spans]
        argv += ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--journal", run.path(f"{name}-journal.jsonl"),
                 "--cache-dir", run.path(f"{name}-store")]
        self.launched = time.monotonic()
        self.proc = run.spawn(argv, log=self.log)
        self.url = self._wait_healthy()
        self.setup_s = time.monotonic() - self.launched

    def _wait_healthy(self) -> str:
        from repro.service.client import ServiceClient

        pattern = re.compile(r"listening on (http://127\.0\.0\.1:\d+)")
        url = None
        while True:
            self.run.remaining()
            if self.proc.poll() is not None:
                raise WorkloadError(f"server exited {self.proc.returncode}:\n"
                                    f"{self.run.log_tail(self.log)}")
            if url is None:
                with open(self.run.path(self.log), encoding="utf-8", errors="replace") as handle:
                    found = pattern.search(handle.read())
                url = found.group(1) if found else None
            if url is not None and ServiceClient(url, timeout=2.0).healthy():
                return url
            time.sleep(0.005)

    def stop(self) -> Optional[dict]:
        """Drain and stop; returns the server's spans in traced mode."""
        self.run.stop(self.proc)
        if os.path.exists(self.spans):
            with open(self.spans, encoding="utf-8") as handle:
                return json.load(handle)
        return None


def _client(url: str, requests: list, results: list, deadline: float) -> None:
    """One closed-loop caller: submit, follow the SSE stream, fetch."""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url, timeout=60.0)
    for payload, repeat_of in requests:
        record = {"repeat_of": repeat_of, "ok": False, "results": None}
        results.append(record)
        if time.monotonic() > deadline:
            record["error"] = "deadline"
            continue
        try:
            started = time.perf_counter()
            job = client.submit(payload)
            submitted = time.perf_counter()
            state = None
            for event in client.stream(job["id"]):
                if event.get("type") == "job":
                    state = event.get("state")
                    break
            fetching = time.perf_counter()
            status = client.job(job["id"])
            done = time.perf_counter()
        except (ServiceError, OSError, ValueError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            continue
        record.update(
            ok=state == "completed" and status.get("state") == "completed",
            error=None if state == "completed" else f"job ended {state}",
            latency=done - started,
            submit=submitted - started,
            fetch=done - fetching,
            finished=time.monotonic(),
            results=status.get("results"),
            payload=payload,
        )


def _dig(tree: dict, path: str):
    """``tree['a']['b']`` for ``"a.b"``; warns and returns None when absent."""
    node = tree
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            from probes import warn

            warn(f"/v1/stats field {path} is absent")
            return None
        node = node[key]
    return node


def run_serve(run: Run, trace: bool) -> dict:
    from repro.dram.backends import backend_names
    from repro.service.schema import build_config

    import oracle

    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES):
            server = Server(run, f"setup-{i}", trace=False)
            setups.append(server.setup_s)
            server.stop()
    clients = os.cpu_count() or 1
    per_client = REPEAT_EVERY * max(
        1, round(run.seconds * SERVE_JOBS_PER_S / clients / REPEAT_EVERY)
    )
    lists = serve_requests(run.seed, clients, per_client, list(backend_names()))
    run.fresh_store()
    server = Server(run, "server", trace=trace)
    setups.append(server.setup_s)
    try:
        records: List[list] = [[] for _ in lists]
        threads = [
            threading.Thread(
                target=_client, args=(server.url, requests, out, run.deadline - 15), daemon=True
            )
            for requests, out in zip(lists, records)
        ]
        window0 = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, run.deadline - time.monotonic()))
        if any(thread.is_alive() for thread in threads):
            raise WorkloadError("clients passed the deadline")
        from repro.service.client import ServiceClient

        stats = ServiceClient(server.url, timeout=10.0).stats()
    finally:
        spans = server.stop()
    flat = [r for per in records for r in per]
    ok = [r for r in flat if r["ok"]]
    window = max((r["finished"] for r in ok), default=window0) - window0
    fresh = [r for r in ok if r["repeat_of"] is None]
    fresh_points = sum(len(r["results"]) for r in fresh)

    # -- outside the timed region: the oracle --------------------------------
    mismatches = []
    for per in records:
        for r in per:
            if not r["ok"] or r["repeat_of"] is None:
                continue
            original = per[r["repeat_of"]]
            if original["ok"] and original["results"] != r["results"]:
                mismatches.append(f"repeat of request {r['repeat_of']} differs from the original")
    served = [(r["payload"], entry) for r in fresh for entry in r["results"]]
    for payload, entry in oracle.sample(served, 2, run.seed):
        config = next(
            (c for c in map(build_config, payload["configs"]) if c.digest() == entry["config_digest"]),
            None,
        )
        if config is None:
            mismatches.append(f"unknown config digest {entry['config_digest']}")
            continue
        expected = oracle.resimulate(entry["benchmark"], config, entry["memory_refs"], entry["seed"])
        fields = oracle.diff(expected, entry["stats"])
        if fields:
            mismatches.append(f"{entry['benchmark']}@{entry['config_digest'][:8]}: {', '.join(fields)}")
    failed_jobs = sum(1 for r in flat if not r["ok"])
    latencies = [r["latency"] for r in ok]
    result = {
        "attempted": len(flat),
        "failed": failed_jobs + len(mismatches),
        "mismatches": mismatches,
        "oracle_checked": min(2, len(served)),
        "digest": oracle.digest(
            [{"key": e["key"], "stats": e["stats"]} for _, e in served]
        ),
        "notes": [r.get("error") for r in flat if not r["ok"]][:5],
        "metrics": {
            "setup_s": median(setups),
            "points_per_s": fresh_points / window if window > 0 else 0.0,
            "latency_p50_s": median(latencies),
            "latency_p95_s": percentile(latencies, 95),
            "peak_rss_mb": peak_rss_mb(),
        },
        "latencies": latencies,
    }
    # A request repeated verbatim must be served from the result store,
    # so the store's hit share is the mix's repeat share exactly.
    requested = sum(len(r["results"]) for r in ok)
    misses = _dig(stats, "store.misses")
    repeat_share = sum(len(r["results"]) for r in ok if r["repeat_of"] is not None) / max(1, requested)
    hit_ratio = None if misses is None else 1.0 - misses / max(1, requested)
    if hit_ratio is not None and abs(hit_ratio - repeat_share) > 1e-9:
        result["failed"] += 1
        result["mismatches"].append(
            f"store hit ratio {hit_ratio:.4f} != repeat share {repeat_share:.4f}"
        )
    if trace:
        import probes

        spans = spans or {"spans": [], "self_seconds": {}, "absent": list(probes.PROBE_SITES)}
        absent = set(spans["absent"])
        layers = probes.layer_metrics(
            spans["spans"], spans["self_seconds"],
            lambda name: all(site in absent for site in probes.PROBE_SITES[name]),
            runner=None,
        )
        queue_wait = _dig(stats, "latency.job_queue_wait_seconds") or {}
        point = _dig(stats, "latency.point_seconds") or {}
        sim_seconds, workers = _dig(stats, "sim_seconds"), _dig(stats, "workers")
        hits = [r["latency"] for r in ok if r["repeat_of"] is not None]
        misses_lat = [r["latency"] for r in ok if r["repeat_of"] is None]
        layers.update({
            "service.submit_p50_s": median([r["submit"] for r in ok]),
            "service.fetch_p50_s": median([r["fetch"] for r in ok]),
            "service.queue_wait_p50_s": queue_wait.get("p50"),
            "service.queue_wait_p95_s": queue_wait.get("p95"),
            "service.point_p50_s": point.get("p50"),
            "service.busy_frac": (
                None if sim_seconds is None or workers is None
                else sim_seconds / (window * workers)
            ),
            "service.store_hit_ratio": hit_ratio,
            "service.hit_latency_p50_s": median(hits),
            "service.miss_latency_p50_s": median(misses_lat),
        })
        result["layers"] = layers
        result["absent"] = spans["absent"]
        layers["trace.overhead_frac"] = spans.get("overhead_frac")
    return result


# -- reporting --------------------------------------------------------------------------


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds)
    os.environ.clear()
    os.environ.update(run.env)
    trace = bool(args.trace)
    try:
        if args.workload == "serve-mix":
            result = run_serve(run, trace)
        else:
            result = run_batch(run, trace)
    except WorkloadError as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / max(1, attempted):.4g} ratio")
    print(f"  oracle: {result['oracle_checked']} point(s) re-simulated, "
          f"{len(result['mismatches'])} mismatch(es); stats digest {result['digest']}")
    for line in result["mismatches"]:
        print(f"  MISMATCH {line}")
    for note in result["notes"]:
        print(f"  note: {note}")
    if args.trace:
        chosen = {name: result["layers"].get(name) for name in PER_LAYER}
        units = PER_LAYER
    else:
        chosen = result["metrics"]
        units = END_TO_END
        lat = result["latencies"]
        p95 = result["metrics"]["latency_p95_s"]
        print(f"  latency samples: {len(lat)}, {sum(1 for v in lat if v > p95)} beyond p95")
    for name, value in chosen.items():
        print(f"  {name} {fmt(value)} {units[name]}")
    if "fig5" in result and not args.trace:
        for key, gain in result["fig5"].items():
            gap = abs(100.0 * gain - PAPER_GAINS_PCT[key])
            print(f"  {key}_gain_gap_pp {gap:.4f} pp "
                  f"(measured {100.0 * gain:+.2f}%, paper {PAPER_GAINS_PCT[key]:+.0f}%)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
