"""Model graph and zoo tests — structure, fusion, and known model stats."""

import zlib

import pytest

from repro.models.graph import ModelGraph, chain
from repro.models.layers import Conv2D, Dense, Elementwise, batched
from repro.models.registry import (
    HEAVY,
    LIGHT,
    MEDIUM,
    get_entry,
    get_model,
    model_names,
)
from repro.serving.workload import class_mix


def _tiny_chain():
    conv = Conv2D(name="c", height=8, width=8, in_channels=4,
                  out_channels=8, kernel_h=1, kernel_w=1)
    relu = Elementwise(name="c.relu", elements=8 * 8 * 8)
    fc = Dense(name="fc", m=1, n=10, k=512)
    return chain("tiny", [conv, relu, fc])


class TestModelGraph:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModelGraph(name="x", layers=())

    def test_flops_sum(self):
        g = _tiny_chain()
        assert g.flops == sum(layer.flops for layer in g.layers)

    def test_op_fractions_sum_to_one(self):
        g = _tiny_chain()
        assert sum(g.op_fractions()) == pytest.approx(1.0)

    def test_fusion_merges_relu(self):
        g = _tiny_chain().fuse_elementwise()
        assert len(g) == 2
        assert g.layers[0].kind == "Conv2D"
        assert g.layers[0].flops > 0

    def test_fusion_preserves_total_flops(self):
        raw = _tiny_chain()
        assert raw.fuse_elementwise().flops == raw.flops

    def test_orphan_elementwise_survives(self):
        ew = Elementwise(name="solo", elements=100)
        fc = Dense(name="fc", m=1, n=10, k=100)
        g = chain("x", [ew, fc]).fuse_elementwise()
        assert len(g) == 2


class TestZooStats:
    """Known architecture facts — guards against silent zoo regressions."""

    def test_all_models_build(self):
        for name in model_names():
            graph = get_model(name)
            assert len(graph) > 5
            assert graph.flops > 0

    def test_resnet50_conv_census(self):
        graph = get_model("resnet50")
        convs = [layer for layer in graph.layers
                 if layer.kind == "Conv2D"]
        assert len(convs) == 53  # paper Sec. 3.2: 53 conv layers

    def test_resnet50_flops_near_8_2_gflops(self):
        assert get_model("resnet50").flops / 1e9 == pytest.approx(8.2,
                                                                  rel=0.05)

    def test_googlenet_flops(self):
        assert 2.5 < get_model("googlenet").flops / 1e9 < 4.0

    def test_mobilenet_flops(self):
        assert 0.4 < get_model("mobilenet_v2").flops / 1e9 < 0.9

    def test_efficientnet_flops(self):
        assert 0.5 < get_model("efficientnet_b0").flops / 1e9 < 1.2

    def test_bert_large_is_heaviest(self):
        flops = {n: get_model(n).flops for n in model_names()}
        assert max(flops, key=flops.get) == "bert_large"

    def test_bert_weights_over_1gb(self):
        assert get_model("bert_large").weight_bytes > 1e9

    def test_ssd_heavier_than_resnet(self):
        assert (get_model("ssd_resnet34").flops
                > 5 * get_model("resnet50").flops)

    def test_fusion_shrinks_models(self):
        for name in model_names():
            fused = get_model(name)
            raw = get_entry(name).builder()
            assert len(fused) < len(raw)


class TestZooLayerPins:
    """Every zoo layer's shape, unbatched and at batch 4, bit for bit.

    The crc chains ``repr((model, index, name, signature))`` over every
    layer of every model; a refactor of the layer math that is meant to
    be bit-identical must leave both constants untouched.
    """

    @staticmethod
    def _pin(graph_of) -> tuple[int, int]:
        crc, rows = 0, 0
        for name in model_names():
            for index, layer in enumerate(graph_of(name).layers):
                for batch in (1, 4):
                    shaped = batched(layer, batch)
                    row = (name, index, shaped.name, shaped.signature)
                    crc = zlib.crc32(repr(row).encode(), crc)
                    rows += 1
        return rows, crc

    def test_fused_graphs(self):
        assert self._pin(get_model) == (984, 0x28E73F72)

    def test_raw_graphs(self):
        assert self._pin(lambda name: get_entry(name).builder()) == (
            2250, 0x7F7740D6)


class TestRegistry:
    def test_table2_qos_targets(self):
        expected = {
            "resnet50": 15.0, "googlenet": 15.0, "efficientnet_b0": 10.0,
            "mobilenet_v2": 10.0, "ssd_resnet34": 100.0,
            "tiny_yolov2": 10.0, "bert_large": 130.0,
        }
        for name, qos_ms in expected.items():
            assert get_entry(name).qos_ms == qos_ms

    def test_aliases_resolve(self):
        assert get_entry("ResNet-50").name == "resnet50"
        assert get_entry("bert").name == "bert_large"
        assert get_entry("SSD").name == "ssd_resnet34"

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_entry("alexnet")

    def test_workload_classes_cover_table2(self):
        assert len(class_mix(LIGHT).models) == 3
        assert len(class_mix(MEDIUM).models) == 2
        assert len(class_mix(HEAVY).models) == 2

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError):
            class_mix("extreme")

    def test_model_cache_returns_same_object(self):
        assert get_model("resnet50") is get_model("resnet50")
