"""Persistent artifact store: keys, round trips, dedup, fallback."""

import json

import pytest

from repro.compiler.artifacts import (
    STORE_ENV,
    ArtifactStore,
    artifact_key,
    compile_layers,
    compiler_context,
    context_fingerprint,
    layer_from_payload,
    layer_payload,
    resolve_store,
)
from repro.compiler.costmodel import CostModel, CostModelParams
from repro.compiler.library import ModelCompiler
from repro.compiler.multiversion import SinglePassCompiler
from repro.hardware.platform import EDGE_NODE_32, THREADRIPPER_3990X
from repro.models.registry import get_entry, get_model
from repro.serving.server import ServingStack
from repro.serving.workload import poisson_queries, single_model


@pytest.fixture()
def single_pass(cost_model):
    return SinglePassCompiler(cost_model, trials=64, seed=3)


@pytest.fixture()
def compiled_conv(single_pass, conv_layer):
    return single_pass.compile_layer(conv_layer, qos_budget_s=500e-6)


def _tables(model):
    return [(entry.versions, entry.latency_table, entry.version_for_level,
             entry.levels, entry.qos_budget_s, entry.dominant_count,
             entry.sample_count) for entry in model.layers]


class TestKeySchema:
    def test_fingerprint_is_stable(self, single_pass):
        context = compiler_context(single_pass)
        assert (context_fingerprint(context)
                == context_fingerprint(compiler_context(single_pass)))

    @pytest.mark.parametrize("change", [
        dict(trials=128), dict(seed=4), dict(max_versions=3),
        dict(keep_threshold=0.9), dict(tuning_cores=8),
    ])
    def test_fingerprint_covers_knobs(self, cost_model, change):
        base = SinglePassCompiler(cost_model, trials=64, seed=3)
        varied = SinglePassCompiler(cost_model,
                                    **{"trials": 64, "seed": 3, **change})
        assert (context_fingerprint(compiler_context(base))
                != context_fingerprint(compiler_context(varied)))

    def test_fingerprint_covers_platform_and_params(self):
        a = SinglePassCompiler(CostModel(THREADRIPPER_3990X), seed=3)
        b = SinglePassCompiler(CostModel(EDGE_NODE_32), seed=3)
        c = SinglePassCompiler(
            CostModel(THREADRIPPER_3990X,
                      CostModelParams(cache_sensitivity=9.0)), seed=3)
        fps = {context_fingerprint(compiler_context(s)) for s in (a, b, c)}
        assert len(fps) == 3

    def test_key_covers_signature_and_budget(self, single_pass,
                                             conv_layer, small_layers):
        fp = context_fingerprint(compiler_context(single_pass))
        base = artifact_key(fp, conv_layer.signature, 500e-6)
        assert artifact_key(fp, conv_layer.signature, 500e-6) == base
        assert artifact_key(fp, conv_layer.signature, 600e-6) != base
        assert artifact_key(fp, small_layers[0].signature, 500e-6) != base


class TestPayloadRoundTrip:
    def test_rebuild_is_bit_identical(self, compiled_conv, conv_layer):
        payload = layer_payload("k", "ctx", compiled_conv)
        # JSON round trip included: floats must survive exactly.
        payload = json.loads(json.dumps(payload))
        rebuilt = layer_from_payload(payload, conv_layer)
        assert rebuilt.versions == compiled_conv.versions
        assert rebuilt.latency_table == compiled_conv.latency_table
        assert rebuilt.version_for_level == compiled_conv.version_for_level
        assert rebuilt.levels == compiled_conv.levels
        assert rebuilt.qos_budget_s == compiled_conv.qos_budget_s
        assert rebuilt.dominant_count == compiled_conv.dominant_count
        assert rebuilt.sample_count == compiled_conv.sample_count
        assert rebuilt.layer is conv_layer

    def test_version_selection_survives_round_trip(self, compiled_conv,
                                                   conv_layer):
        payload = json.loads(json.dumps(
            layer_payload("k", "ctx", compiled_conv)))
        rebuilt = layer_from_payload(payload, conv_layer)
        for k in range(0, 101):
            pressure = k / 100.0
            assert (rebuilt.version_index_for(pressure)
                    == compiled_conv.version_index_for(pressure))


class TestArtifactStore:
    def test_get_put_round_trip(self, tmp_path, single_pass,
                                compiled_conv, conv_layer):
        store = ArtifactStore(tmp_path / "store")
        fp = context_fingerprint(compiler_context(single_pass))
        key = artifact_key(fp, conv_layer.signature, 500e-6)
        assert store.get(key, fp, conv_layer, 500e-6) is None
        store.put(key, fp, compiled_conv)
        # A fresh store instance must read it back from disk.
        fresh = ArtifactStore(tmp_path / "store")
        loaded = fresh.get(key, fp, conv_layer, 500e-6)
        assert loaded is not None
        assert loaded.versions == compiled_conv.versions
        assert loaded.latency_table == compiled_conv.latency_table
        assert fresh.stats.hits == 1

    def test_budget_mismatch_is_a_miss(self, tmp_path, single_pass,
                                       compiled_conv, conv_layer):
        # A digest collision between two budgets of one layer must
        # degrade to a miss: the recorded budget is part of the key
        # material get() verifies.
        store = ArtifactStore(tmp_path / "store")
        fp = context_fingerprint(compiler_context(single_pass))
        key = artifact_key(fp, conv_layer.signature, 500e-6)
        store.put(key, fp, compiled_conv)
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get(key, fp, conv_layer, 600e-6) is None
        assert fresh.get(key, fp, conv_layer, 500e-6) is not None

    def test_context_mismatch_is_a_miss(self, tmp_path, single_pass,
                                        compiled_conv, conv_layer):
        store = ArtifactStore(tmp_path / "store")
        fp = context_fingerprint(compiler_context(single_pass))
        key = artifact_key(fp, conv_layer.signature, 500e-6)
        store.put(key, fp, compiled_conv)
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get(key, "other-context", conv_layer, 500e-6) is None

    def test_corrupt_file_is_a_miss(self, tmp_path, single_pass,
                                    compiled_conv, conv_layer):
        store = ArtifactStore(tmp_path / "store")
        fp = context_fingerprint(compiler_context(single_pass))
        key = artifact_key(fp, conv_layer.signature, 500e-6)
        store.put(key, fp, compiled_conv)
        (tmp_path / "store" / f"art_{key}.json").write_text("{not json")
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get(key, fp, conv_layer, 500e-6) is None
        assert fresh.stats.corrupt == 1

    def test_schema_mismatch_is_a_miss_and_gc_prunes(
            self, tmp_path, single_pass, compiled_conv, conv_layer):
        store = ArtifactStore(tmp_path / "store")
        fp = context_fingerprint(compiler_context(single_pass))
        key = artifact_key(fp, conv_layer.signature, 500e-6)
        store.put(key, fp, compiled_conv)
        path = tmp_path / "store" / f"art_{key}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.compiler.artifact/0"
        path.write_text(json.dumps(payload))
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get(key, fp, conv_layer, 500e-6) is None
        assert fresh.gc() == [path.name]
        assert fresh.entries() == []

    def test_gc_keeps_valid_entries(self, tmp_path, single_pass,
                                    compiled_conv, conv_layer):
        store = ArtifactStore(tmp_path / "store")
        fp = context_fingerprint(compiler_context(single_pass))
        key = artifact_key(fp, conv_layer.signature, 500e-6)
        store.put(key, fp, compiled_conv)
        (tmp_path / "store" / "art_dead.json").write_text("junk")
        assert store.gc() == ["art_dead.json"]
        assert len(store.entries()) == 1
        assert store.gc(drop_all=True) == [f"art_{key}.json"]

    def test_unwritable_directory_degrades_to_memory(
            self, tmp_path, single_pass, compiled_conv, conv_layer):
        import os
        import sys

        if sys.platform == "win32" or os.geteuid() == 0:
            pytest.skip("chmod-based read-only dir needs non-root posix")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            store = ArtifactStore(locked / "store")
            fp = context_fingerprint(compiler_context(single_pass))
            key = artifact_key(fp, conv_layer.signature, 500e-6)
            store.put(key, fp, compiled_conv)  # must not raise
            # Served from memory despite the failed disk write.
            assert store.get(key, fp, conv_layer, 500e-6) is not None
        finally:
            locked.chmod(0o700)

    def test_resolve_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert resolve_store(None) is None
        assert resolve_store("auto") is None
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env-store"))
        via_env = resolve_store("auto")
        assert via_env is not None
        assert via_env.path == tmp_path / "env-store"
        explicit = ArtifactStore(tmp_path / "explicit")
        assert resolve_store(explicit) is explicit
        assert resolve_store(tmp_path / "p").path == tmp_path / "p"


class TestCompilerStore:
    def test_cold_then_warm_is_bit_identical(self, tmp_path, cost_model):
        graph = get_model("mobilenet_v2")
        qos = get_entry("mobilenet_v2").qos_s

        def build(store):
            compiler = ModelCompiler(
                cost_model, SinglePassCompiler(cost_model, trials=64,
                                               seed=3), store=store)
            return compiler, compiler.compile_models([(graph, qos)])[0]

        cold_compiler, cold = build(ArtifactStore(tmp_path / "s"))
        warm_compiler, warm = build(ArtifactStore(tmp_path / "s"))
        assert _tables(cold) == _tables(warm)
        assert cold_compiler.stats.store_hits == 0
        assert cold_compiler.stats.compiled_fresh > 0
        assert warm_compiler.stats.compiled_fresh == 0
        assert (warm_compiler.stats.store_hits
                == cold_compiler.stats.compiled_fresh)

    def test_store_matches_storeless_compile(self, tmp_path, cost_model):
        graph = get_model("mobilenet_v2")
        qos = get_entry("mobilenet_v2").qos_s
        plain = ModelCompiler(
            cost_model,
            SinglePassCompiler(cost_model, trials=64, seed=3))
        stored = ModelCompiler(
            cost_model,
            SinglePassCompiler(cost_model, trials=64, seed=3),
            store=ArtifactStore(tmp_path / "s"))
        assert (_tables(plain.compile_models([(graph, qos)])[0])
                == _tables(stored.compile_models([(graph, qos)])[0]))

    def test_dedup_across_models_sharing_signatures(self, cost_model):
        # resnet50 and ssd_resnet34 share backbone conv signatures at
        # matching budgets only rarely (budgets differ per model QoS),
        # but *within* the batch every repeated (signature, budget)
        # compiles exactly once — the batched two-model compile must
        # never run Alg. 1 twice for the same cell.
        compiler = ModelCompiler(
            cost_model, SinglePassCompiler(cost_model, trials=64, seed=3))
        specs = [(get_model(n), get_entry(n).qos_s)
                 for n in ("mobilenet_v2", "efficientnet_b0")]
        models = compiler.compile_models(specs)
        total = sum(len(g.layers) for g, _ in specs)
        assert compiler.stats.layers_total == total
        assert compiler.stats.compiled_fresh == compiler.unique_layers
        assert compiler.unique_layers < total  # shared cells existed
        assert compiler.stats.memo_hits == total - compiler.unique_layers
        for (graph, _), model in zip(specs, models):
            assert len(model) == len(graph.layers)
            # Every compiled entry is bound to its own layer instance.
            for layer, entry in zip(graph.layers, model.layers):
                assert entry.layer is layer

    def test_corrupt_store_falls_back_to_recompile(self, tmp_path,
                                                   cost_model):
        graph = get_model("mobilenet_v2")
        qos = get_entry("mobilenet_v2").qos_s
        store = ArtifactStore(tmp_path / "s")
        first = ModelCompiler(
            cost_model, SinglePassCompiler(cost_model, trials=64, seed=3),
            store=store)
        reference = first.compile_models([(graph, qos)])[0]
        for entry in store._disk_entries():
            entry.write_text("{broken")
        recovered_compiler = ModelCompiler(
            cost_model, SinglePassCompiler(cost_model, trials=64, seed=3),
            store=ArtifactStore(tmp_path / "s"))
        recovered = recovered_compiler.compile_models([(graph, qos)])[0]
        assert recovered_compiler.stats.store_hits == 0
        assert recovered_compiler.stats.compiled_fresh > 0
        assert _tables(recovered) == _tables(reference)

    def test_parallel_compile_matches_serial(self, cost_model):
        graph = get_model("mobilenet_v2")
        qos = get_entry("mobilenet_v2").qos_s
        serial = ModelCompiler(
            cost_model, SinglePassCompiler(cost_model, trials=64, seed=3),
            workers=1)
        parallel = ModelCompiler(
            cost_model, SinglePassCompiler(cost_model, trials=64, seed=3),
            workers=4)
        assert (_tables(serial.compile_models([(graph, qos)])[0])
                == _tables(parallel.compile_models([(graph, qos)])[0]))

    def test_compile_layers_helper_orders_results(self, single_pass,
                                                  small_layers):
        work = [(layer, 500e-6) for layer in small_layers[:3]]
        serial = compile_layers(single_pass, work, workers=1)
        fanned = compile_layers(single_pass, work, workers=2)
        for a, b in zip(serial, fanned):
            # Fork workers return unpickled copies: equality, not
            # identity (ModelCompiler rebinds identity afterwards).
            assert a.layer == b.layer
            assert a.versions == b.versions
            assert a.latency_table == b.latency_table


class TestServingStackStore:
    def test_cold_vs_warm_end_to_end_report(self, tmp_path):
        def build(path):
            stack = ServingStack(models=["mobilenet_v2"], trials=64,
                                 seed=7, use_proxy=False,
                                 artifact_store=ArtifactStore(path))
            queries = poisson_queries(stack.compiled,
                                      single_model("mobilenet_v2"),
                                      qps=80, count=40, seed=7)
            completed, engine = stack.run("veltair_full", queries)
            return stack, [(q.query_id, q.started_s, q.finished_s)
                           for q in completed]

        cold_stack, cold_outcome = build(tmp_path / "s")
        warm_stack, warm_outcome = build(tmp_path / "s")
        assert warm_stack.compiler.stats.compiled_fresh == 0
        assert warm_stack.compiler.stats.store_hits > 0
        assert cold_outcome == warm_outcome
        assert (_tables(cold_stack.compiled["mobilenet_v2"])
                == _tables(warm_stack.compiled["mobilenet_v2"]))

    def test_lazy_compile_only_touches_requested_model(self):
        stack = ServingStack(models=["mobilenet_v2", "googlenet"],
                             trials=64, seed=7, use_proxy=False,
                             artifact_store=None)
        assert stack.compiler.stats.layers_total == 0
        _ = stack.compiled["mobilenet_v2"]
        mobilenet_layers = len(get_model("mobilenet_v2").layers)
        assert stack.compiler.stats.layers_total == mobilenet_layers
        # Iteration forces the remainder in one batch.
        assert len(stack.compiled.values()) == 2
        total = mobilenet_layers + len(get_model("googlenet").layers)
        assert stack.compiler.stats.layers_total == total
        # A runtime for another device re-profiles the one compile.
        edge = stack.runtime_for(EDGE_NODE_32).profiles["mobilenet_v2"]
        assert edge.compiled is stack.compiled["mobilenet_v2"]
        assert stack.compiler.stats.layers_total == total

    def test_ensure_compiled_is_idempotent(self):
        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             use_proxy=False, artifact_store=None)
        stack.ensure_compiled()
        seen = stack.compiler.stats.layers_total
        stack.ensure_compiled()
        assert stack.compiler.stats.layers_total == seen

    def test_mapping_surface_matches_plain_dict(self):
        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             use_proxy=False, artifact_store=None)
        assert list(stack.compiled) == ["mobilenet_v2"]
        assert len(stack.compiled) == 1
        assert "mobilenet_v2" in stack.compiled
        assert "bert_large" not in stack.compiled
        # Membership probes must not compile as a side effect.
        assert stack.compiler.stats.layers_total == 0
        with pytest.raises(KeyError):
            _ = stack.compiled["bert_large"]
        assert [name for name, _ in stack.compiled.items()] == [
            "mobilenet_v2"]
        assert stack.profiles["mobilenet_v2"].compiled is (
            stack.compiled["mobilenet_v2"])

    def test_unknown_model_fails_at_construction(self):
        with pytest.raises(KeyError):
            ServingStack(models=["not_a_model"], trials=64,
                         use_proxy=False, artifact_store=None)

    def test_sweep_pool_forces_artifacts_before_fork(self):
        from repro.serving.experiments import sweep_qps

        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             use_proxy=False, artifact_store=None)
        spec = single_model("mobilenet_v2")
        assert stack.compiler.stats.layers_total == 0
        reports = sweep_qps(stack, "veltair_full", spec, [50.0, 80.0],
                            count=20, seed=7, workers=2)
        # The sweep's pool compiled and profiled in the parent,
        # pre-fork, so its workers inherit both copy-on-write (a worker
        # compiling privately would leave this stack cold).
        assert stack.compiler.stats.layers_total > 0
        assert stack.profiles["mobilenet_v2"] is not None
        serial = sweep_qps(stack, "veltair_full", spec, [50.0, 80.0],
                           count=20, seed=7)
        assert [r.average_latency_s for r in reports] == [
            r.average_latency_s for r in serial]

    def test_sweep_pool_skips_proxy_fit_for_non_proxy_policies(
            self, proxy_fits):
        from repro.serving.experiments import sweep_qps

        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             proxy_scenarios=60, artifact_store=None)
        spec = single_model("mobilenet_v2")
        sweep_qps(stack, "layerwise", spec, [50.0, 80.0], count=10,
                  seed=7, workers=2)
        # layerwise never reads the proxy: the sweep pool's pre-fork
        # warm-up must not pay the fit for it.
        assert proxy_fits == []
        sweep_qps(stack, "veltair_full", spec, [50.0, 80.0], count=10,
                  seed=7, workers=2)
        # proxy-driven: fitted once, in the parent, pre-fork (a fit in
        # a worker would not reach this list)
        assert len(proxy_fits) == 1

    def test_fork_pool_fails_soft_in_daemonic_worker(self):
        # Pool workers are daemonic and may not have children (Pool()
        # raises AssertionError, not OSError), so a sweep worker that
        # lazily compiles with compile_workers > 1 must degrade to the
        # serial path instead of crashing the sweep.
        import multiprocessing

        from repro.parallel import fork_worker_pool

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        context = multiprocessing.get_context("fork")
        queue = context.Queue()

        def probe(q):
            with fork_worker_pool(2) as pool:
                q.put(pool is None)

        process = context.Process(target=probe, args=(queue,),
                                  daemon=True)
        process.start()
        try:
            assert queue.get(timeout=30) is True
        finally:
            process.join(timeout=30)

    def test_store_resolved_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env-store"))
        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             use_proxy=False)
        stack.ensure_compiled()
        assert stack.compiler.store is not None
        assert len(stack.compiler.store.entries()) > 0
        # A second stack with identical knobs compiles nothing.
        again = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             use_proxy=False)
        again.ensure_compiled()
        assert again.compiler.stats.compiled_fresh == 0


def _cli_fields(output: str) -> dict[str, str]:
    """``name: value`` lines of a ``python -m repro.compile`` report."""
    fields = {}
    for line in output.splitlines():
        name, sep, value = line.strip().partition(":")
        if sep:
            fields[name] = value.strip()
    return fields


class TestStoreCli:
    def test_warm_list_gc_path(self, tmp_path, capsys):
        from repro.compile import main

        store = str(tmp_path / "store")
        warm = ["warm", "--models", "mobilenet_v2", "--trials", "64",
                "--store", store]
        assert main(warm) == 0
        cold = _cli_fields(capsys.readouterr().out)
        unique = int(cold["unique layers"])
        assert int(cold["fresh compiles"]) == unique > 0
        assert int(cold["store entries"]) == unique

        # A second warm with the same knobs is served from the store.
        assert main(warm) == 0
        again = _cli_fields(capsys.readouterr().out)
        assert int(again["store hits"]) == unique
        assert int(again["fresh compiles"]) == 0

        assert main(["list", "-v", "--store", store]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert f"{unique} entr(ies)" in listing[0]
        assert "0 invalid" in listing[0]
        assert len(listing) == 1 + unique
        assert all(line.lstrip().startswith("ok ") for line in listing[1:])

        assert main(["gc", "--all", "--store", store]) == 0
        assert f"deleted {unique}, kept 0" in capsys.readouterr().out
        assert main(["list", "--store", store]) == 0
        assert capsys.readouterr().out.strip().endswith("empty")

        assert main(["path", "--store", store]) == 0
        assert capsys.readouterr().out.strip() == store
