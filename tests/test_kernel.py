"""Unit tests for the ``repro.kernel`` performance layer.

Covers the compiled-trace columns, the kernel's inline DRAM coordinates
(against the reference mapping), the absence of process-wide compile
memos, the content-addressed on-disk trace store, the ``REPRO_FAST``
opt-out parsing, geometry support checks, kernel selection, the
fast kernel's memory footprint, and ``simulate_batch``'s argument
validation and sanitized fallback.
"""

import gc
import json
import random
import tracemalloc
import weakref

import pytest

from repro.core.config import CacheConfig, DRAMConfig, SystemConfig
from repro.core.system import System, simulate
from repro.cpu.trace import Trace
from repro.dram.mapping import make_mapping
from repro.kernel import (
    CompiledTrace,
    FastSystem,
    TraceStore,
    compile_trace,
    fast_enabled,
    kernel_supports,
    select_kernel,
    simulate_batch,
    trace_digest,
    trace_store_from_env,
)
from repro.kernel.fastcore import bank_row_function
from repro.workloads import build_trace
from repro.workloads.registry import build_warmup_trace


def _trace(benchmark="mcf", refs=800, seed=0):
    return build_trace(benchmark, refs, seed=seed)


class TestCompiledColumns:
    def test_base_columns_match_trace(self):
        trace = _trace()
        compiled = compile_trace(trace)
        kinds, gaps, addrs, deps, pcs = compiled.base_columns()
        assert kinds == trace.kinds.tolist()
        assert gaps == trace.gaps.tolist()
        assert addrs == trace.addrs.tolist()
        assert deps == trace.deps.tolist()
        assert pcs == trace.pcs.tolist()

    @pytest.mark.parametrize("mapping", ["base", "xor"])
    def test_inline_coord_matches_reference_translate(self, mapping):
        """The kernel's per-access (bank, row) equals the reference
        mapping's translate for trace blocks and arbitrary addresses,
        over channel counts that shift the field layout."""
        block_bytes = SystemConfig().l2.block_bytes
        trace = _trace()
        blocks = {int(a) & ~(block_bytes - 1) for a in trace.addrs}
        rng = random.Random(0)
        blocks.update(rng.randrange(1 << 40) for _ in range(2_000))
        for channels in (1, 2, 4):
            reference = make_mapping(DRAMConfig(mapping=mapping, channels=channels))
            coord = bank_row_function(reference)
            for block in sorted(blocks):
                ref = reference.translate(block)
                assert coord(block) == (ref.bank, ref.row)


class TestCompileMemo:
    def test_each_call_compiles_afresh(self):
        """No process-wide memo: a compilation lives only as long as its
        holder."""
        trace = _trace("gzip", 400)
        first = compile_trace(trace)
        assert compile_trace(trace) is not first
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None

    def test_different_content_differs(self):
        assert trace_digest(_trace("gzip", 400)) != trace_digest(
            _trace("gzip", 400, seed=1)
        )


class TestTraceStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        warm = build_warmup_trace("mcf", seed=0, l2_bytes=1 << 20)
        main = _trace()
        key = store.recipe_key("mcf", 800, 0, 1 << 20)
        assert store.save(key, warm, main)
        loaded = store.load(key)
        assert loaded is not None
        loaded_warm, loaded_main = loaded
        assert trace_digest(loaded_warm) == trace_digest(warm)
        assert trace_digest(loaded_main) == trace_digest(main)
        assert loaded_main.name == main.name

    def test_load_miss_returns_none(self, tmp_path):
        assert TraceStore(tmp_path).load("0" * 64) is None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        warm = build_warmup_trace("mcf", seed=0, l2_bytes=1 << 20)
        key = store.recipe_key("mcf", 800, 0, 1 << 20)
        assert store.save(key, warm, _trace())
        path = tmp_path / f"{key}.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(key) is None

    def test_unwritable_root_returns_false(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("not a directory")
        store = TraceStore(blocked / "sub")
        assert not store.save("k" * 64, _trace(), _trace())

    def test_recipe_key_distinguishes_every_field(self):
        base = TraceStore.recipe_key("mcf", 800, 0, 1 << 20)
        assert TraceStore.recipe_key("swim", 800, 0, 1 << 20) != base
        assert TraceStore.recipe_key("mcf", 801, 0, 1 << 20) != base
        assert TraceStore.recipe_key("mcf", 800, 1, 1 << 20) != base
        assert TraceStore.recipe_key("mcf", 800, 0, 1 << 19) != base

    def test_env_selection(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        store = trace_store_from_env()
        assert store is not None and store.root == tmp_path
        for off in ("0", "off", "false", "no", ""):
            monkeypatch.setenv("REPRO_TRACE_STORE", off)
            assert trace_store_from_env() is None
        monkeypatch.delenv("REPRO_TRACE_STORE")
        default = trace_store_from_env()
        assert default is not None and default.root.name == "traces"


class TestFastOptIn:
    @pytest.mark.parametrize("value", ["", "1", "true", "TRUE", "yes", "on"])
    def test_enabled_values(self, value):
        assert fast_enabled(value)

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "nope"])
    def test_disabled_values(self, value):
        assert not fast_enabled(value)

    def test_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert fast_enabled()
        monkeypatch.setenv("REPRO_FAST", "0")
        assert not fast_enabled()

    def test_simulate_defaults_to_fast_kernel(self, monkeypatch):
        """REPRO_FAST unset means the fast kernel runs; REPRO_FAST=0
        selects the reference kernel; the statistics are identical."""
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert isinstance(select_kernel(SystemConfig()), FastSystem)
        trace = _trace(refs=300)
        fast = simulate(trace, SystemConfig()).to_dict()
        monkeypatch.setenv("REPRO_FAST", "0")
        assert isinstance(select_kernel(SystemConfig()), System)
        assert simulate(trace, SystemConfig()).to_dict() == fast


class TestSelectKernel:
    def test_observed_or_sanitized_points_take_the_reference(self):
        from repro.obs.observer import Observer

        config = SystemConfig()
        assert isinstance(select_kernel(config, fast=True), FastSystem)
        assert type(select_kernel(config, fast=False)) is System
        assert type(select_kernel(config, obs=Observer(), fast=True)) is System
        assert type(select_kernel(config, sanitize=True, fast=True)) is System

    def test_unsupported_backend_takes_the_reference(self):
        config = SystemConfig().with_backend("tldram")
        assert not kernel_supports(config)
        assert type(select_kernel(config, fast=True)) is System

    def test_only_the_kernel_package_asks_for_support(self):
        """select_kernel is the one dispatch seam: nothing outside
        repro.kernel consults kernel_supports or builds a FastSystem."""
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if path.parent.name != "kernel"
            and any(
                name in path.read_text()
                for name in ("kernel_supports", "FastSystem(")
            )
        ]
        assert offenders == []


class TestKernelSupports:
    def test_default_config_supported(self):
        assert kernel_supports(SystemConfig())

    def test_odd_l1i_geometry_falls_back(self):
        config = SystemConfig(
            l1i=CacheConfig(
                size_bytes=16 * 1024, assoc=1, block_bytes=256, hit_latency=1
            )
        )
        assert not kernel_supports(config)
        # simulate(fast=True) must transparently take the reference path
        # and still match the reference result.
        trace = _trace(refs=300)
        assert (
            simulate(trace, config, fast=True).to_dict()
            == simulate(trace, config, fast=False).to_dict()
        )


class TestFootprint:
    def test_execute_point_retains_no_compiled_trace(self, monkeypatch):
        """After several distinct recipes, no CompiledTrace outlives the
        point that built it."""
        from repro.kernel import compiled as compiled_module
        from repro.runner import SimPoint, worker

        alive = weakref.WeakSet()
        created = []
        original = compiled_module.CompiledTrace.__init__

        def tracking_init(self, trace):
            original(self, trace)
            alive.add(self)
            created.append(1)

        monkeypatch.setattr(compiled_module.CompiledTrace, "__init__", tracking_init)
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        config = SystemConfig().with_prefetch(enabled=True)
        for benchmark in ("mcf", "swim", "gzip", "eon"):
            worker.execute_point(SimPoint(benchmark, config, 400, 0), fast=True)
        gc.collect()
        assert len(created) == 8  # one warm-up and one main per point
        assert len(alive) == 0

    def test_fast_point_peak_memory_matches_reference(self):
        """The fast kernel holds no more trace-derived data than the
        reference one: on an equake point (the heaviest warm-up) its
        traced peak is within 10% of the reference kernel's.  Slow
        (about a minute): tracemalloc resolves a line number per
        allocation, which is costly inside the kernel's one long loop."""
        config = SystemConfig()
        warm = build_warmup_trace("equake", seed=0, l2_bytes=config.l2.size_bytes)
        main = build_trace("equake", 500, seed=0)
        peaks = {}
        for fast in (False, True):
            gc.collect()
            tracemalloc.start()
            try:
                simulate(main, config, warmup_trace=warm, fast=fast)
                peaks[fast] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] <= 1.1 * peaks[False], peaks


class TestSimulateBatch:
    def test_warmup_argument_validation(self):
        trace = _trace(refs=200)
        warm = build_warmup_trace("mcf", seed=0, l2_bytes=1 << 20)
        with pytest.raises(ValueError, match="not both"):
            simulate_batch(
                trace, [SystemConfig()], warmup_trace=warm, warmup_traces=[warm]
            )
        with pytest.raises(ValueError, match="entries"):
            simulate_batch(trace, [SystemConfig()], warmup_traces=[warm, warm])

    def test_per_config_warmup_traces(self):
        trace = _trace(refs=400)
        warm = build_warmup_trace("mcf", seed=0, l2_bytes=1 << 20)
        configs = [SystemConfig(), SystemConfig()]
        batched = simulate_batch(
            trace, configs, warmup_traces=[warm, None], fast=True
        )
        assert (
            batched[0].to_dict()
            == simulate(trace, configs[0], warmup_trace=warm, fast=False).to_dict()
        )
        assert (
            batched[1].to_dict()
            == simulate(trace, configs[1], fast=False).to_dict()
        )

    def test_sanitized_batch_is_clean_and_identical(self):
        """The batched driver under the sanitizer: reference path, zero
        violations, and statistics identical to the fast batch."""
        trace = _trace("swim", refs=800)
        configs = [SystemConfig(), SystemConfig().with_prefetch(enabled=True)]
        sanitized = simulate_batch(trace, configs, sanitize=True)
        fast = simulate_batch(trace, configs, fast=True)
        for clean, quick in zip(sanitized, fast):
            assert clean.to_dict() == quick.to_dict()


class TestSimulateFastEntryPoint:
    def test_matches_reference_with_warmup(self):
        config = SystemConfig()
        warm = build_warmup_trace("mcf", seed=0, l2_bytes=config.l2.size_bytes)
        main = _trace(refs=600)
        system = FastSystem(config)
        system.warmup(warm)  # compiles its own views when given none
        assert (
            system.run(main).to_dict()
            == simulate(main, config, warmup_trace=warm, fast=False).to_dict()
        )

    def test_stats_serialize_identically(self):
        """The fast kernel's stats must survive the exact round trip the
        runner cache uses."""
        main = _trace(refs=400)
        fast = simulate(main, SystemConfig(), fast=True)
        reference = simulate(main, SystemConfig(), fast=False)
        assert json.dumps(fast.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )


class TestStoreBackedTraces:
    def test_worker_builds_publish_and_reload(self, tmp_path, monkeypatch):
        from repro.runner import worker

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        warm, main = worker.get_traces("mcf", 500, 0, 1 << 20)
        entries = list(tmp_path.glob("*.npz"))
        assert len(entries) == 1
        # A fresh memo (a new worker process) must load, not rebuild:
        # the loaded traces are content-identical to the built ones.
        monkeypatch.setattr(worker, "_TRACE_MEMO", {})
        warm2, main2 = worker.get_traces("mcf", 500, 0, 1 << 20)
        assert trace_digest(main2) == trace_digest(main)
        assert trace_digest(warm2) == trace_digest(warm)
        assert list(tmp_path.glob("*.npz")) == entries


def test_compiled_trace_len():
    trace = _trace(refs=200)
    assert len(CompiledTrace(trace)) == len(trace)


def test_trace_digest_covers_every_column():
    base = _trace(refs=64)

    def clone(**overrides):
        fields = {
            "name": base.name,
            "description": base.description,
            "kinds": base.kinds.copy(),
            "gaps": base.gaps.copy(),
            "addrs": base.addrs.copy(),
            "deps": base.deps.copy(),
            "pcs": base.pcs.copy(),
        }
        fields.update(overrides)
        return Trace(**fields)

    reference = trace_digest(clone())
    assert reference == trace_digest(base)
    for column in ("kinds", "gaps", "addrs", "deps", "pcs"):
        mutated = getattr(base, column).copy()
        mutated[0] = mutated[0] + 1
        assert trace_digest(clone(**{column: mutated})) != reference
    assert trace_digest(clone(name="other")) != reference
