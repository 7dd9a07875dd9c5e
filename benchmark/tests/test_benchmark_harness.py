"""Tests of the benchmark's own arithmetic, reference forward and tracing.

Run from the repository root with the engine on the path:
    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import costs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from reference import compare, probability_problem, reference_forward  # noqa: E402
from run import E2E_UNITS, WORKLOAD_NAMES, percentile  # noqa: E402
from tracer import Span, Tracer, covered, self_times  # noqa: E402

from rfbs import data, model  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return model.build_rfbsnet_desk()


@pytest.fixture(scope="module")
def params(spec):
    return model.init_params(spec, 7)


def _image(size, seed=3):
    return data.generate_phantoms(1, 64, seed).samples[0].image[None, :, :size, :size].copy()


class TestPercentile:
    def test_median_of_even_count_interpolates(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5

    def test_matches_numpy_linear_rule(self):
        values = [float(v) for v in data.Prng(5).fill_f64(37)]
        for q in (0, 5, 50, 95, 100):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-15)

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        # [1, 4] merged + [6, 7] + [9, 12] clipped to [9, 10]
        assert covered([(1, 3), (2, 4), (6, 7), (9, 12)], 0, 10) == pytest.approx(5.0)
        assert covered([], 0, 10) == 0.0

    def test_self_time_subtracts_children_only(self):
        spans = [
            Span(1, "model.forward", 0.0, 10.0, None, 0, None),
            Span(2, "ops.conv2d", 1.0, 4.0, 1, 0, None),
            Span(3, "ops.relu", 5.0, 6.0, 1, 0, None),
            Span(4, "inner", 2.0, 3.0, 2, 0, None),  # grandchild: not the forward's
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(6.0)
        assert selfs[2] == pytest.approx(2.0)
        assert selfs[3] == pytest.approx(1.0)
        assert selfs[4] == pytest.approx(1.0)


class TestTracer:
    def test_failed_call_closes_its_span(self):
        tracer = Tracer()

        def boom(x):
            raise ValueError(x)

        with pytest.raises(ValueError):
            tracer.call("outer", tracer.call, "inner", boom, 1, work=lambda x: 1 / 0)
        inner, outer = tracer.spans
        assert (inner.name, inner.parent, inner.work) == ("inner", outer.id, None)
        assert outer.parent is None
        assert tracer.call("next", len, [1, 2]) == 2
        assert tracer.spans[-1].parent is None


class TestReference:
    def test_agrees_with_model_forward_at_16(self, spec, params):
        x = _image(16)
        prob, _ = model.forward(spec, params, x)
        ref = reference_forward(spec, params, x)
        diff, agree, problem = compare(prob, ref)
        assert problem is None
        assert diff < 1e-5
        assert agree == 1.0

    def test_compare_flags_a_wrong_output(self, spec, params):
        x = _image(16)
        prob, _ = model.forward(spec, params, x)
        ref = reference_forward(spec, params, x)
        assert compare(prob[:, ::-1].copy(), ref)[2] is not None

    def test_probability_invariants(self):
        good = np.full((1, 2, 4, 4), 0.5, dtype=np.float32)
        assert probability_problem(good) is None
        bad = good.copy()
        bad[0, 0, 0, 0] = 0.7
        assert "channel sum" in probability_problem(bad)
        bad[0, 0, 0, 0] = np.nan
        assert "non-finite" in probability_problem(bad)


class TestCosts:
    def test_only_the_tconv_nodes_disagree_with_analysis(self, spec):
        disagree = costs.analysis_disagreements(spec, 256)
        assert [name for name, _, _ in disagree] == ["d1_up", "d2_up", "d3_up"]
        for _, ours, theirs in disagree:
            assert 3.9 < theirs / ours < 4.0  # the 2*k*k*Cin*Cout*Hout*Wout overcount

    def test_conv_cost_by_hand(self):
        # 3x3 s1 p1 conv, 2 -> 4 channels, on 1x2x5x5: 25 rows x 18 patch values
        cost = costs.conv_cost((1, 2, 5, 5), (4, 2, 3, 3), 1, 1, 4)
        assert cost.flops == 2 * 25 * 4 * 18 + 25 * 4
        assert cost.im2col_bytes == 25 * 18 * 4


class TestAttribution:
    def test_call_order_maps_to_nodes(self, spec):
        table = layers.FORWARD_OPS
        calls = [table[n.kind] for n in spec.nodes if n.kind in table]
        owners = layers.attribute(calls, spec.nodes, table)
        assert owners == [n.name for n in spec.nodes if n.kind in table]

    def test_count_mismatch_is_unavailable(self, spec):
        table = layers.FORWARD_OPS
        calls = [table[n.kind] for n in spec.nodes if n.kind in table]
        assert layers.attribute(calls + ["conv2d"], spec.nodes, table) is None
        assert layers.attribute(calls[1:], spec.nodes, table) is None

    def test_traced_forward_and_backward(self, spec, params):
        tracer = Tracer()
        layers.install(tracer)
        try:
            tracer.request = 0
            x = _image(16)
            prob, tape = model.forward(spec, params, x, keep_intermediates=True)
            model.backward(tape, np.ones_like(prob))
        finally:
            tracer.restore()
        assert not hasattr(model.forward, "__wrapped__")
        out, unavailable = layers.layer_metrics(tracer.spans, spec, 1)
        assert unavailable == {}
        assert out["ops.conv2d.calls"] == 11
        assert out["ops.conv2d_vjp.calls"] == 11
        assert out["node.sh_conv.fwd_ms"] > 0 and out["node.sh_conv.bwd_ms"] > 0
        assert abs(layers.forward_residual_ms(out)) < 1e-9
        assert set(out) == set(layers.metric_units()) - {"trace.overhead_ms"}

    def test_extra_op_call_makes_node_metrics_unavailable(self, spec, params):
        tracer = Tracer()
        x = _image(16)
        layers.install(tracer)
        try:
            tracer.request = 0
            model.forward(spec, params, x)
            spans = list(tracer.spans)
        finally:
            tracer.restore()
        fwd = next(s for s in spans if s.name == "model.forward")
        extra = Span(10**9, "ops.conv2d", fwd.start, fwd.start, fwd.id, 0, None)
        out, unavailable = layers.layer_metrics(spans + [extra], spec, 1)
        assert "node.sh_conv.fwd_ms" in unavailable
        assert "node.sh_conv.fwd_ms" not in out
        assert "node.sh_conv.bwd_ms" in out  # backward attribution is unaffected


class TestBenchmarkJson:
    def test_declared_metrics_are_the_ones_the_code_computes(self):
        doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        for m in doc["end_to_end"]:
            assert E2E_UNITS[m["name"]] == m["unit"]
        units = layers.metric_units()
        assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(units.items())
        assert {w["name"] for w in doc["workloads"]} <= set(WORKLOAD_NAMES)
        assert list(workloads.WORKLOADS) == list(WORKLOAD_NAMES)
