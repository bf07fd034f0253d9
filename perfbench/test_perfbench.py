"""Tests for the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The minimal-length runs take about two minutes on a 2-CPU machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_run_prints_every_metric_with_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] is None or isinstance(metric["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and line.endswith(metric["unit"])
                   for line in lines[:-1]), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "fig5-sweep" and trace == "0":
        for name in ("xor_gain_gap_pp", "prefetch_gain_gap_pp", "best_gain_gap_pp"):
            assert any(line.split()[:1] == [name] for line in lines), name
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_tmp"))


def test_oracle_catches_an_injected_mismatch():
    from repro.core.presets import prefetch_4ch_64b
    from repro.runner import SimPoint
    from repro.runner.worker import execute_point

    config = prefetch_4ch_64b().with_backend("chargecache")
    served, _ = execute_point(SimPoint("swim", config, 2_000, 7))
    expected = oracle.resimulate("swim", config, 2_000, 7)
    assert oracle.diff(expected, served) == []
    tampered = dict(served, cycles=served["cycles"] + 1)
    assert oracle.diff(expected, tampered) == ["cycles"]
    assert oracle.diff(expected, {k: v for k, v in served.items() if k != "cycles"}) == ["cycles"]


def test_missing_probe_is_reported_absent(capsys):
    sites = dict(probes.PROBE_SITES, **{
        "kernel.compile": ("repro.kernel.compiled:no_such_function", "repro.no_such_module:f"),
    })
    tracer = probes.Tracer(sites).install()
    try:
        assert set(tracer.absent) == set(sites["kernel.compile"])
        assert tracer.missing("kernel.compile") and not tracer.missing("core.run")
    finally:
        tracer.uninstall()
    warnings = capsys.readouterr().err
    assert "repro.kernel.compiled:no_such_function is absent" in warnings
    layers = probes.layer_metrics([], {}, tracer.missing, runner={"jobs": 1, "sim_seconds": None})
    assert layers["kernel.compile_s"] is None and layers["kernel.compiles"] is None
    assert layers["runner.busy_frac"] is None
    assert layers["core.run_s"] == 0
    assert run.fmt(None) == "absent"
    assert run._dig({"store": {}}, "store.misses") is None
    assert "/v1/stats field store.misses is absent" in capsys.readouterr().err


def test_wrappers_record_spans_and_come_off_cleanly():
    from repro.core import system
    from repro.core.presets import xor_4ch_64b
    from repro.workloads import build_trace

    original = system.System.run
    tracer = probes.Tracer().install()
    try:
        stats = system.simulate(build_trace("swim", 500), xor_4ch_64b(), fast=False)
    finally:
        tracer.uninstall()
    assert system.System.run is original
    assert stats.ipc > 0
    (span,) = [s for s in tracer.spans if s["name"] == "core.run"]
    assert span["kernel"] == "reference" and span["records"] > 0
    layers = probes.layer_metrics(tracer.spans, {}, tracer.missing)
    assert layers["kernel.fast_share"] == 0 and layers["core.run_s"] > 0


def test_serve_mix_requests():
    from repro.core.presets import prefetch_4ch_64b, xor_4ch_64b
    from repro.dram.backends import backend_names
    from repro.service.schema import build_config

    backends = list(backend_names())
    lists = run.serve_requests(5, 2, 40, backends)
    fresh = [json.dumps(p, sort_keys=True) for per in lists for p, rep in per if rep is None]
    assert len(fresh) == len(set(fresh)) == 60
    for per in lists:
        repeats = [(i, rep) for i, (_, rep) in enumerate(per) if rep is not None]
        assert len(repeats) * run.REPEAT_EVERY == len(per)
        assert all(rep < i and per[rep][1] is None and per[rep][0] == per[i][0]
                   for i, rep in repeats)
    used = {p["configs"][0]["dram"]["backend"] for per in lists for p, _ in per}
    assert used == set(backends)
    payload = lists[0][0][0]
    backend = payload["configs"][0]["dram"]["backend"]
    xor, prefetch = (build_config(c) for c in payload["configs"])
    assert xor.digest() == xor_4ch_64b().with_backend(backend).digest()
    assert prefetch.digest() == prefetch_4ch_64b().with_backend(backend).digest()
    assert run.serve_requests(5, 2, 40, backends) == lists


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "fig5-sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
