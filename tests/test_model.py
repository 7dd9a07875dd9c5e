import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rfbs import analysis, model, ops
from rfbs.errors import FormatError, NumericsError, ShapeError

from conftest import corrupted, join_spec, rand_f32, rand_f64


class TestBuild:
    def test_output_matches_input_spatial(self, desk_spec):
        shapes = model.infer_shapes(desk_spec, (1, 1, 256, 256))
        assert shapes["probs"] == (1, 2, 256, 256)

    def test_downsampler_concat(self, desk_spec):
        shapes = model.infer_shapes(desk_spec, (1, 1, 256, 256))
        assert shapes["ds_conv"] == (1, 15, 128, 128)
        assert shapes["ds_pool"] == (1, 1, 128, 128)
        assert shapes["ds_cat"] == (1, 16, 128, 128)

    def test_param_count_matches_per_layer_hand_count(self, desk_spec, desk_params):
        # independent oracle: k*k*cin*cout + cout summed over weighted nodes
        expect = 0
        for node in desk_spec.nodes:
            if node.kind in ("conv", "tconv"):
                expect += node.kernel * node.kernel * node.cin * node.cout + node.cout
        assert sum(v.size for v in desk_params.values()) == expect

    def test_checkpoint_compatible_hash_and_init(self, desk_spec):
        # pinned values: a change here makes earlier checkpoints unloadable
        # or earlier seeds train from other weights
        assert model.config_hash(desk_spec) == 0xF0EF334C
        digest = hashlib.sha256()
        for name, value in model.init_params(desk_spec, seed=0).items():
            digest.update(name.encode())
            digest.update(value.tobytes())
        assert digest.hexdigest() == (
            "5114ea3f09c1f16b99a820350285e2ffc5cfd07fd4bd252a1212b2656ae6927c"
        )

    def test_node_lookup(self, desk_spec):
        assert desk_spec.node("ds_conv").kind == "conv"
        with pytest.raises(KeyError):
            desk_spec.node("missing")

    def test_total_downsampling_factor(self, desk_spec):
        assert desk_spec.total_downsampling_factor == 16
        shapes = model.infer_shapes(desk_spec, (1, 1, 256, 256))
        deepest = min(s[2] for s in shapes.values())
        assert 256 // deepest == 16


class TestValidateGraph:
    def spec(self, nodes, output="c"):
        return model.ArchitectureSpec(
            arch_id="t", input_name="x", output_name=output, in_channels=1,
            num_classes=1, total_downsampling_factor=1, nodes=nodes)

    @pytest.mark.parametrize("nodes, output, error", [
        ((model.LayerNode("a", "relu", ("x",)), model.LayerNode("a", "relu", ("x",))),
         "a", "duplicate node name 'a'"),
        ((model.LayerNode("x", "relu", ("x",)),), "x", "duplicate node name 'x'"),
        ((model.LayerNode("a", "relu", ("y",)),), "a",
         "node 'a' consumes unknown/later node 'y'"),
        ((model.LayerNode("a", "relu", ("b",)), model.LayerNode("b", "relu", ("x",))),
         "b", "node 'a' consumes unknown/later node 'b'"),
        ((model.LayerNode("a", "relu", ("x",)),), "probs",
         "output node 'probs' does not exist"),
    ], ids=["duplicate", "shadows-input", "unknown", "later", "no-output"])
    def test_refused(self, nodes, output, error):
        with pytest.raises(ShapeError, match=error):
            model._validate_graph(self.spec(nodes, output))

    def test_chain_accepted(self):
        model._validate_graph(self.spec(
            (model.LayerNode("a", "relu", ("x",)), model.LayerNode("c", "relu", ("a",)))))


class TestInferShapes:
    def test_deepest_node(self, desk_spec):
        shapes = model.infer_shapes(desk_spec, (1, 1, 256, 256))
        assert shapes["e3_relu_b"] == (1, 128, 16, 16)

    def test_classifier_input(self, desk_spec):
        shapes = model.infer_shapes(desk_spec, (1, 1, 256, 256))
        assert shapes["fuse_b"] == (1, 16, 128, 128)

    def test_mismatched_add_names_node(self):
        spec = model.ArchitectureSpec(
            arch_id="broken",
            input_name="x",
            output_name="bad_add",
            in_channels=16,
            num_classes=2,
            total_downsampling_factor=2,
            nodes=(
                model.LayerNode("downA", "conv", ("x",), 16, 16, 3, 2, 1),
                model.LayerNode("downB", "conv", ("x",), 16, 32, 3, 2, 1),
                model.LayerNode("bad_add", "add", ("downA", "downB")),
            ),
        )
        with pytest.raises(ShapeError, match="bad_add"):
            model.infer_shapes(spec, (1, 16, 128, 128))

    def test_channel_mismatch_reported(self, desk_spec):
        with pytest.raises(ShapeError):
            model.infer_shapes(desk_spec, (1, 3, 256, 256))

    @pytest.mark.parametrize("h, w", [(32, 48), (64, 64)])
    def test_equals_forward_tape_shapes(self, desk_spec, desk_params, h, w):
        # the tape holds the shapes of the graph that ran, where the head
        # runs at H/2 and upsamples last; infer_shapes gives the graph's own
        x = rand_f32((2, 1, h, w), seed=h * 100 + w)
        _, tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)
        assert model.infer_shapes(tape.spec, (2, 1, h, w)) == tape.shapes
        head = {"head_up": (2, 16, h, w), "head_conv": (2, 2, h, w), "probs": (2, 2, h, w)}
        assert model.infer_shapes(desk_spec, (2, 1, h, w)) == {**tape.shapes, **head}

    @pytest.mark.parametrize("count", [model.infer_shapes, analysis.count_flops])
    def test_forward_extent_rule(self, desk_spec, count):
        # refused up front with forward's message and the caller's shape
        with pytest.raises(ShapeError, match="multiples of 16, got 40x40"):
            count(desk_spec, (1, 1, 40, 40))

    @pytest.mark.parametrize("extent", [0, -16])
    def test_non_positive_extent_rejected(self, desk_spec, extent):
        with pytest.raises(ShapeError):
            model.infer_shapes(desk_spec, (1, 1, extent, extent))

    def test_unknown_kind_names_node(self):
        spec = model.ArchitectureSpec(
            arch_id="unknown", input_name="x", output_name="mystery",
            in_channels=1, num_classes=2, total_downsampling_factor=1,
            nodes=(
                model.LayerNode("c", "conv", ("x",), 1, 2, 1, 1, 0),
                model.LayerNode("mystery", "gelu", ("c",)),
            ),
        )
        with pytest.raises(ShapeError, match="'mystery'.*'gelu'"):
            model.infer_shapes(spec, (1, 1, 4, 4))
        params = model.init_params(spec, seed=0)
        with pytest.raises(ShapeError, match="'mystery'.*'gelu'"):
            model.forward(spec, params, rand_f32((1, 1, 4, 4), seed=74))


class TestForward:
    def test_probability_field(self, desk_spec, desk_params):
        x = rand_f32((2, 1, 32, 32), seed=70)
        y, _ = model.forward(desk_spec, desk_params, x)
        assert y.shape == (2, 2, 32, 32)
        assert ((y >= 0) & (y <= 1)).all()
        assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-6

    def test_zero_input_uniform_map(self, desk_spec, desk_params):
        y, _ = model.forward(desk_spec, desk_params, np.zeros((1, 1, 32, 32), np.float32))
        assert (y == 0.5).all()  # zero biases propagate zeros to the head

    def test_bit_identical_repeats(self, desk_spec, desk_params):
        x = rand_f32((1, 1, 48, 48), seed=71)
        a, _ = model.forward(desk_spec, desk_params, x)
        b, _ = model.forward(desk_spec, desk_params, x)
        assert a.tobytes() == b.tobytes()

    def test_batch_equals_separate_images(self, desk_spec, desk_params):
        x = rand_f32((4, 1, 64, 64), seed=72)
        batch, _ = model.forward(desk_spec, desk_params, x)
        for i in range(x.shape[0]):
            one, _ = model.forward(desk_spec, desk_params, x[i:i + 1])
            assert one[0].tobytes() == batch[i].tobytes()

    def test_releases_activations_only_without_tape(self, desk_spec, desk_params,
                                                     monkeypatch):
        relu, softmax = ops.relu, ops.softmax_channels
        relu_outs, live_at_softmax = [], []

        def tracked_relu(x):
            y = relu(x)
            relu_outs.append(weakref.ref(y))
            return y

        def tracked_softmax(x):  # the last node: no relu output is read again
            live_at_softmax.append(sum(r() is not None for r in relu_outs))
            return softmax(x)

        monkeypatch.setattr(ops, "relu", tracked_relu)
        monkeypatch.setattr(ops, "softmax_channels", tracked_softmax)
        x = rand_f32((1, 1, 32, 32), seed=73)
        model.forward(desk_spec, desk_params, x)
        relu_outs.clear()
        model.forward(desk_spec, desk_params, x, keep_intermediates=True)
        assert live_at_softmax == [0, len(relu_outs)] and relu_outs

    def test_spatial_shape_preserved_across_sizes(self, desk_spec, desk_params):
        for size_h, size_w in [(32, 48), (64, 32), (96, 96), (112, 64)]:
            x = rand_f32((1, 1, size_h, size_w), seed=size_h * 1000 + size_w)
            y, _ = model.forward(desk_spec, desk_params, x)
            assert y.shape == (1, 2, size_h, size_w)

    def test_rejects_non_nchw_input(self, desk_spec, desk_params):
        with pytest.raises(ShapeError, match="rank-4"):
            model.forward(desk_spec, desk_params, np.zeros((32, 32), np.float32))

    def test_rejects_a_list(self, desk_spec, desk_params):
        with pytest.raises(ShapeError, match="rank-4 NCHW array"):
            model.forward(desk_spec, desk_params, np.zeros((1, 1, 32, 32)).tolist())

    def test_rejects_bad_extents(self, desk_spec, desk_params):
        with pytest.raises(ShapeError, match="multiples of 16"):
            model.forward(desk_spec, desk_params, np.zeros((1, 1, 34, 34), np.float32))

    def test_nan_detection_names_node(self, desk_spec, desk_params):
        bad = desk_params.copy()
        w = bad["sh_conv.weight"].copy()
        w[0, 0, 0, 0] = np.nan
        bad["sh_conv.weight"] = w
        with pytest.raises(NumericsError, match="sh_conv"):
            model.forward(desk_spec, bad, np.ones((1, 1, 32, 32), np.float32))

    def test_tape_keeps_what_backward_reads(self, desk_spec, desk_params, monkeypatch):
        # the pullbacks hold relu and softmax outputs and conv inputs; every
        # other node output is gone once forward returns. The head runs at
        # H/2, so head_conv holds fuse_b and probs is kept at H/2, and
        # Tape.shapes keeps the shapes of the graph that ran.
        run_node, outs = model._run_node, {}

        def tracking(node, params, ins):
            out, pullback = run_node(node, params, ins)
            outs[node.name] = weakref.ref(out)
            return out, pullback

        monkeypatch.setattr(model, "_run_node", tracking)
        x = rand_f32((2, 1, 32, 32), seed=76)
        tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)[1]
        gc.collect()
        live = {name: ref() for name, ref in outs.items() if ref() is not None}
        relus = [n.name for n in desk_spec.nodes if n.kind == "relu"]
        assert len(relus) == 10
        assert set(live) == {*relus, "d1_add", "d2_add", "fuse_b", "probs"}
        assert live["probs"].shape == (2, 2, 16, 16)
        assert tape.shapes["head_up"] == (2, 2, 32, 32)
        assert all(tape.shapes[name] == v.shape for name, v in live.items())
        assert list(tape.shapes) == ["image"] + [n.name for n in tape.spec.nodes]
        shapes = model.infer_shapes(desk_spec, (2, 1, 32, 32))
        assert shapes["probs"] == (2, 2, 32, 32)
        assert shapes["head_up"] == (2, 16, 32, 32)


def _inject(monkeypatch, target, bad):
    """Make node `target`'s output hold `bad` at one element."""
    run_node = model._run_node

    def injecting(node, params, ins):
        out, pullback = run_node(node, params, ins)
        if node.name == target:
            out = out.copy()
            out.flat[out.size // 2] = bad
        return out, pullback

    monkeypatch.setattr(model, "_run_node", injecting)


class TestNonFiniteScan:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # ±inf is injected on purpose
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target", ["ds_pool", "ds_cat", "e1_relu_a", "e2_conv_b",
                                        "d2_up", "fuse_a", "head_up", "probs"])
    def test_named_at_the_scanned_kinds(self, desk_spec, desk_params, monkeypatch,
                                        target, bad):
        # a non-finite output replays the graph in graph order and scans every
        # node, whatever its kind: a value that reaches the output is named
        # where it was injected; a -inf that a relu maps to 0 does not reach it
        _inject(monkeypatch, target, bad)
        x = rand_f32((1, 1, 32, 32), seed=77)
        if bad == -np.inf and target in ("ds_pool", "ds_cat", "e2_conv_b"):
            y, _ = model.forward(desk_spec, desk_params, x)
            assert np.isfinite(y).all()
        else:
            with pytest.raises(NumericsError, match=f"node '{target}'"):
                model.forward(desk_spec, desk_params, x)

    @pytest.mark.parametrize("target", ["e2_conv_b", "ds_cat"])
    def test_negative_inf_a_relu_zeroes_passes(self, desk_spec, desk_params, monkeypatch,
                                               target):
        # the next relu maps -inf to 0, as it does a finite negative value:
        # probabilities and gradients are those of the finite run, bit for bit
        x = rand_f32((2, 1, 32, 32), seed=80)
        results = []
        for bad in (-np.inf, -1.0):
            _inject(monkeypatch, target, bad)
            y, tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)
            grads = model.backward(tape, np.ones_like(y))
            results.append([y, *grads.values()])
            monkeypatch.undo()
        assert np.isfinite(results[0][0]).all()
        for got, want in zip(*results):
            assert np.isfinite(got).all() and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_input_named_at_first_node(self, desk_spec, desk_params, bad):
        x = rand_f32((2, 1, 32, 32), seed=78)
        x[1, 0, 5, 7] = bad
        with pytest.raises(NumericsError, match="'image' to node 'ds_conv'"):
            model.forward(desk_spec, desk_params, x)

    @pytest.mark.parametrize("keep", [False, True])
    def test_finite_forward_runs_each_node_once(self, desk_spec, desk_params, monkeypatch,
                                                keep):
        # no replay on success: per-node timings see one call per node
        calls, run_node = [], model._run_node

        def counting(node, params, ins):
            calls.append(node.name)
            return run_node(node, params, ins)

        monkeypatch.setattr(model, "_run_node", counting)
        model.forward(desk_spec, desk_params, rand_f32((1, 1, 32, 32), seed=81),
                      keep_intermediates=keep)
        assert sorted(calls) == sorted(node.name for node in desk_spec.nodes)


class TestBackward:
    def test_requires_tape(self, desk_spec, desk_params):
        x = rand_f32((1, 1, 32, 32), seed=72)
        y, tape = model.forward(desk_spec, desk_params, x)
        assert tape is None
        with pytest.raises(ShapeError):
            model.backward(tape, np.zeros_like(y))

    def test_zero_upstream_zero_gradients(self, desk_spec, desk_params):
        x = rand_f32((1, 1, 32, 32), seed=73)
        y, tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)
        grads = model.backward(tape, np.zeros_like(y))
        assert set(grads) == set(desk_params)
        assert all(not g.any() for g in grads.values())

    def test_fanout_gradient_accumulates(self):
        # conv output feeding an add with itself doubles the weight gradient
        base_nodes = (
            model.LayerNode("c", "conv", ("x",), 1, 1, 1, 1, 0),
            model.LayerNode("twice", "add", ("c", "c")),
        )
        spec = model.ArchitectureSpec(
            arch_id="fanout", input_name="x", output_name="twice",
            in_channels=1, num_classes=2, total_downsampling_factor=1,
            nodes=base_nodes,
        )
        single = model.ArchitectureSpec(
            arch_id="single", input_name="x", output_name="c",
            in_channels=1, num_classes=2, total_downsampling_factor=1,
            nodes=base_nodes[:1],
        )
        params = model.init_params(spec, seed=1, dtype=np.float64)
        x = np.full((1, 1, 2, 2), 3.0, np.float64)
        up = np.ones((1, 1, 2, 2), np.float64)
        _, tape2 = model.forward(spec, params, x, keep_intermediates=True)
        _, tape1 = model.forward(single, params, x, keep_intermediates=True)
        g2 = model.backward(tape2, up)["c.weight"]
        g1 = model.backward(tape1, up)["c.weight"]
        assert np.array_equal(g2, 2.0 * g1)

    def test_calls_each_vjp_through_ops_in_reverse_node_order(self, desk_spec,
                                                              desk_params, monkeypatch):
        # benchmark/layers.attribute maps the i-th traced call of each
        # ops.*_vjp to the i-th node of its kind in reverse node order, so
        # each VJP is looked up in ops when backward runs, once per node
        vjps = {"conv": "conv2d_vjp", "tconv": "transposed_conv2d_vjp",
                "maxpool": "maxpool2x2_vjp", "relu": "relu_vjp",
                "upsample_nearest": "nearest_upsample2x_vjp",
                "softmax": "softmax_channels_vjp"}
        x = rand_f32((2, 1, 32, 32), seed=84)
        y, tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)
        up = rand_f32(y.shape, seed=85)
        want = model.backward(tape, up)
        calls, running = [], []
        run_node = model._run_node

        def naming(node, params, ins):  # which node's pullback is running
            out, pullback = run_node(node, params, ins)

            def named(upstream):
                running.append(node.name)
                return pullback(upstream)
            return out, named

        def recorder(fn):
            orig = getattr(ops, fn)

            def record(*args):
                calls.append((fn, running[-1]))
                return orig(*args)
            return record

        monkeypatch.setattr(model, "_run_node", naming)
        for fn in vjps.values():
            monkeypatch.setattr(ops, fn, recorder(fn))
        _, tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)
        got = model.backward(tape, up)
        for fn in vjps.values():
            expect = [n.name for n in reversed(desk_spec.nodes) if vjps.get(n.kind) == fn]
            assert [name for f, name in calls if f == fn] == expect, fn
        assert [[f for f, _ in calls].count(fn) for fn in vjps.values()] == [11, 3, 1, 10, 1, 1]
        assert all(got[name].tobytes() == g.tobytes() for name, g in want.items())

    def test_second_backward_on_a_tape_raises(self, desk_spec, desk_params):
        x = rand_f32((1, 1, 32, 32), seed=86)
        y, tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)
        with pytest.raises(ShapeError):  # a wrong loss_grad leaves the tape usable
            model.backward(tape, np.zeros((1, 2, 16, 16), np.float32))
        model.backward(tape, np.ones_like(y))
        with pytest.raises(ShapeError, match="already consumed"):
            model.backward(tape, np.ones_like(y))


def _trunk(spec):
    """The desk graph cut before the classifier head; its output is fuse_b."""
    cut = spec.nodes.index(spec.node("head_up"))
    return dataclasses.replace(spec, output_name="fuse_b", nodes=spec.nodes[:cut])


def _explicit_head(spec, params, fuse_b):
    """The classifier head as the graph states it: upsample, then the
    pointwise conv and the softmax at full size."""
    p = model._conv_params(spec.node("head_conv"), params)
    return ops.softmax_channels(ops.conv2d(ops.nearest_upsample2x(fuse_b), p))


class TestDeferredHead:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [32, 64, 256])
    @pytest.mark.parametrize("batch", [0, 1, 2, 8])
    def test_forward_matches_the_explicit_chain(self, desk_spec, size, batch, dtype):
        params = model.init_params(desk_spec, seed=42, dtype=dtype)
        x = rand_f64((batch, 1, size, size), seed=size + batch, lo=0.0, hi=1.0)
        x = x.astype(dtype)
        y, _ = model.forward(desk_spec, params, x)
        fuse_b, _ = model.forward(_trunk(desk_spec), params, x)
        want = _explicit_head(desk_spec, params, fuse_b)
        assert y.shape == want.shape == (batch, 2, size, size)
        assert y.dtype == want.dtype
        assert y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, rel", [(np.float32, 1e-5), (np.float64, 1e-13)])
    def test_gradients_match_the_explicit_chain(self, desk_spec, dtype, rel):
        # the head's VJPs at H/2 after one upsample VJP equal the full-size
        # VJP chain up to rounding
        params = model.init_params(desk_spec, seed=42, dtype=dtype)
        x = rand_f64((2, 1, 64, 64), seed=87, lo=0.0, hi=1.0).astype(dtype)
        up = rand_f64((2, 2, 64, 64), seed=88).astype(dtype)
        _, tape = model.forward(desk_spec, params, x, keep_intermediates=True)
        got = model.backward(tape, up)
        fuse_b, trunk_tape = model.forward(_trunk(desk_spec), params, x,
                                           keep_intermediates=True)
        p = model._conv_params(desk_spec.node("head_conv"), params)
        wide = ops.nearest_upsample2x(fuse_b)
        probs = ops.softmax_channels(ops.conv2d(wide, p))
        dwide, dweight, dbias = ops.conv2d_vjp(wide, p, ops.softmax_channels_vjp(probs, up))
        dfuse = ops.nearest_upsample2x_vjp(dwide)
        for name, want in (("head_conv.weight", dweight), ("head_conv.bias", dbias)):
            assert np.abs(got[name] - want).max() <= rel * np.abs(want).max(), name
        # everything below the head follows from fuse_b's gradient
        below = model.backward(trunk_tape, dfuse)
        for name, want in below.items():
            if not name.startswith("head_conv"):
                assert np.abs(got[name] - want).max() <= rel * np.abs(want).max(), name

    def test_run_order_moves_the_upsample_last(self, desk_spec):
        # head_conv reads fuse_b and head_up, last, upsamples probs as the
        # output; every other node is the same, in the same order
        ran = model._run_order(desk_spec)
        assert ran.output_name == "head_up"
        assert ran.nodes[-1] == dataclasses.replace(desk_spec.node("head_up"),
                                                    inputs=("probs",))
        assert ran.node("head_conv") == dataclasses.replace(desk_spec.node("head_conv"),
                                                           inputs=("fuse_b",))
        others = [n for n in desk_spec.nodes if n.name not in ("head_up", "head_conv")]
        assert [n for n in ran.nodes if n.name not in ("head_up", "head_conv")] == others
        assert [n.name for n in ran.nodes[-3:]] == ["head_conv", "probs", "head_up"]
        assert dataclasses.replace(ran, output_name="probs", nodes=desk_spec.nodes) == desk_spec

    @pytest.mark.parametrize("kernel, side_reader", [(3, False), (1, True)])
    def test_upsample_runs_in_graph_order_unless_deferrable(self, kernel, side_reader):
        # a k3 conv reads neighbouring pixels, and a second reader needs the
        # upsampled values, so neither upsample is deferred: outputs and
        # gradients equal the explicit op chain bit for bit
        side = (model.LayerNode("side", "relu", ("up",)),) if side_reader else ()
        spec = model.ArchitectureSpec(
            arch_id="head", input_name="x", output_name="probs",
            in_channels=2, num_classes=2, total_downsampling_factor=1,
            nodes=(
                model.LayerNode("a", "conv", ("x",), 2, 3, 1, 1, 0),
                model.LayerNode("up", "upsample_nearest", ("a",)),
                *side,
                model.LayerNode("b", "conv", ("up",), 3, 2, kernel, 1, kernel // 2),
                model.LayerNode("probs", "softmax", ("b",)),
            ),
        )
        assert model._run_order(spec) is spec
        params = model.init_params(spec, seed=5, dtype=np.float64)
        x = rand_f64((2, 2, 6, 6), seed=89)
        upstream = rand_f64((2, 2, 12, 12), seed=90)
        pa, pb = (model._conv_params(spec.node(name), params) for name in "ab")
        wide = ops.nearest_upsample2x(ops.conv2d(x, pa))
        probs = ops.softmax_channels(ops.conv2d(wide, pb))
        y, tape = model.forward(spec, params, x, keep_intermediates=True)
        assert y.tobytes() == probs.tobytes()
        assert tape.shapes == {"x": (2, 2, 6, 6), "a": (2, 3, 6, 6), "up": (2, 3, 12, 12),
                               **({"side": (2, 3, 12, 12)} if side_reader else {}),
                               "b": (2, 2, 12, 12), "probs": (2, 2, 12, 12)}
        got = model.backward(tape, upstream)
        dwide, db_w, db_b = ops.conv2d_vjp(wide, pb, ops.softmax_channels_vjp(probs, upstream))
        _, da_w, da_b = ops.conv2d_vjp(x, pa, ops.nearest_upsample2x_vjp(dwide))
        want = {"a.weight": da_w, "a.bias": da_b, "b.weight": db_w, "b.bias": db_b}
        assert all(got[name].tobytes() == g.tobytes() for name, g in want.items())


class TestConcatNode:
    def test_channel_ordering(self):
        spec = join_spec("concat", 2, 1)
        params = model.init_params(spec, seed=3)
        x = rand_f32((1, 2, 4, 4), seed=80)
        out, _ = model.forward(spec, params, x)
        a, b = (ops.conv2d(x, model._conv_params(spec.node(n), params)) for n in "ab")
        assert out.shape == (1, 3, 4, 4)
        assert out[:, :2].tobytes() == a.tobytes()  # a first
        assert out[:, 2:].tobytes() == b.tobytes()

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_slice_recovers_inputs(self, ca, cb, h, w, seed):
        # backward splits the upstream at channel ca: each conv sees its slice
        spec = join_spec("concat", ca, cb)
        params = model.init_params(spec, seed=seed, dtype=np.float64)
        x = rand_f32((2, 2, h, w), seed=seed).astype(np.float64)
        out, tape = model.forward(spec, params, x, keep_intermediates=True)
        up = rand_f32(out.shape, seed=seed ^ 1).astype(np.float64)
        grads = model.backward(tape, up)
        for name, part in (("a", up[:, :ca]), ("b", up[:, ca:])):
            node = spec.node(name)
            p = ops.Conv2dParams(params[f"{name}.weight"], params[f"{name}.bias"],
                                 stride=node.stride, padding=node.padding)
            _, dw, db = ops.conv2d_vjp(x, p, np.ascontiguousarray(part))
            assert grads[f"{name}.weight"].tobytes() == dw.tobytes()
            assert grads[f"{name}.bias"].tobytes() == db.tobytes()

    def test_spatial_mismatch(self):
        spec = join_spec("concat", 2, 2, stride_b=2)
        params = model.init_params(spec, seed=3)
        with pytest.raises(ShapeError, match="'join'"):
            model.forward(spec, params, rand_f32((1, 2, 4, 4), seed=81))


class TestAddNode:
    def test_sums_operands(self):
        spec = join_spec("add", 3, 3)
        params = model.init_params(spec, seed=4)
        x = rand_f32((2, 2, 4, 6), seed=82)
        out, _ = model.forward(spec, params, x)
        a, b = (ops.conv2d(x, model._conv_params(spec.node(n), params)) for n in "ab")
        assert out.shape == (2, 3, 4, 6)
        assert out.tobytes() == (a + b).tobytes()

    def test_mismatched_operands_name_node(self):
        # (1,1,4,4) + (1,4,4,4) would broadcast in numpy; the graph refuses
        spec = join_spec("add", 1, 4)
        params = model.init_params(spec, seed=5)
        with pytest.raises(ShapeError, match="'join'"):
            model.forward(spec, params, rand_f32((1, 2, 4, 4), seed=83))


class TestInitParams:
    def test_seed_reproducible(self, desk_spec):
        a = model.init_params(desk_spec, seed=42)
        b = model.init_params(desk_spec, seed=42)
        assert list(a) == list(b)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes()

    def test_biases_zero(self, desk_params):
        for name in desk_params:
            if name.endswith(".bias"):
                assert not desk_params[name].any()

    def test_weights_within_he_bound(self, desk_spec, desk_params):
        for node in desk_spec.nodes:
            if node.kind not in ("conv", "tconv"):
                continue
            bound = np.sqrt(6.0 / (node.cin * node.kernel * node.kernel))
            w = desk_params[f"{node.name}.weight"]
            assert np.abs(w).max() < bound

    def test_different_seeds_differ(self, desk_spec):
        a = model.init_params(desk_spec, seed=1)
        b = model.init_params(desk_spec, seed=2)
        assert a["ds_conv.weight"].tobytes() != b["ds_conv.weight"].tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, desk_spec, desk_params, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, desk_spec, desk_params)
        cfg_hash, loaded = model.load_checkpoint(path, expected_spec=desk_spec)
        assert cfg_hash == model.config_hash(desk_spec)
        assert list(loaded) == list(desk_params)
        for name in loaded:
            assert loaded[name].tobytes() == desk_params[name].tobytes()

    def test_reload_same_predictions(self, desk_spec, desk_params, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, desk_spec, desk_params)
        _, loaded = model.load_checkpoint(path, expected_spec=desk_spec)
        x = rand_f32((1, 1, 32, 32), seed=74)
        a, _ = model.forward(desk_spec, desk_params, x)
        b, _ = model.forward(desk_spec, loaded, x)
        assert a.tobytes() == b.tobytes()

    def test_truncated_rejected(self, desk_spec, desk_params, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, desk_spec, desk_params)
        blob = path.read_bytes()
        for cut in (4, 13, len(blob) // 2, len(blob) - 5):
            (tmp_path / "cut.ckpt").write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                model.load_checkpoint(tmp_path / "cut.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WHAT" + bytes(20))
        with pytest.raises(FormatError):
            model.load_checkpoint(path)

    def test_arch_hash_mismatch(self, desk_spec, desk_params, tmp_path):
        other = dataclasses.replace(desk_spec, num_classes=3)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, desk_spec, desk_params)
        with pytest.raises(FormatError, match="hash"):
            model.load_checkpoint(path, expected_spec=other)

    def test_trailing_bytes_rejected(self, desk_spec, desk_params, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, desk_spec, desk_params)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            model.load_checkpoint(path)

    def test_duplicate_name_rejected(self, desk_spec, desk_params, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(path, desk_spec, desk_params)
        path.write_bytes(path.read_bytes().replace(b"sh_conv.bias", b"ds_conv.bias"))
        with pytest.raises(FormatError, match="duplicate"):
            model.load_checkpoint(path)

    def test_matching_hash_wrong_parameter_name(self, desk_spec, desk_params, tmp_path):
        # the hash is the expected one, but a parameter is missing, renamed
        # or out of order
        path = tmp_path / "m.ckpt"
        names = list(desk_params)
        missing = {n: desk_params[n] for n in names[:-1]}
        for bad in (missing, {**missing, "extra": desk_params[names[-1]]},
                    {n: desk_params[n] for n in reversed(names)}):
            model.save_checkpoint(path, desk_spec, bad)
            with pytest.raises(FormatError, match="parameter names do not match"):
                model.load_checkpoint(path, expected_spec=desk_spec)

    def test_matching_hash_wrong_parameter_shape(self, desk_spec, desk_params, tmp_path):
        path = tmp_path / "m.ckpt"
        bad = dict(desk_params, **{"sh_conv.bias": np.zeros(17, np.float32)})
        model.save_checkpoint(path, desk_spec, bad)
        with pytest.raises(FormatError, match=r"sh_conv.bias has shape \(17,\), "
                                              r"expected \(16,\)"):
            model.load_checkpoint(path, expected_spec=desk_spec)


class TestCheckpointFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corruption_raises_only_format_error(self, tmp_path, data):
        # a valid checkpoint with bytes overwritten, then cut or extended
        spec = join_spec("add", 1, 1)
        path = tmp_path / "fuzz.ckpt"
        model.save_checkpoint(path, spec, model.init_params(spec, seed=6))
        path.write_bytes(corrupted(data, path.read_bytes()))
        for expected in (None, spec):
            try:
                model.load_checkpoint(path, expected_spec=expected)
            except FormatError:
                pass
