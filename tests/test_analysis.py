import numpy as np

from rfbs import analysis, model, ops

from conftest import rand_f64


class TestNodeParams:
    def test_downsampler_conv(self, desk_spec):
        node = desk_spec.node("ds_conv")
        assert analysis.node_params(node) == 150  # 9*1*15 + 15

    def test_pointwise_head(self, desk_spec):
        node = desk_spec.node("head_conv")
        assert analysis.node_params(node) == 34  # 16*2 + 2

    def test_unweighted_nodes(self, desk_spec):
        for name in ("ds_pool", "ds_relu", "ds_cat", "d1_add", "head_up", "probs"):
            assert analysis.node_params(desk_spec.node(name)) == 0


class TestCountFlops:
    def test_pointwise_head_at_256(self, desk_spec):
        report = analysis.count_flops(desk_spec, (1, 1, 256, 256))
        by_name = {n.name: n for n in report.nodes}
        assert by_name["head_conv"].flops == 4_325_376

    def test_input_maxpool(self, desk_spec):
        report = analysis.count_flops(desk_spec, (1, 1, 256, 256))
        by_name = {n.name: n for n in report.nodes}
        assert by_name["ds_pool"].flops == 49_152  # 3 * 128 * 128

    def test_batch_forced_to_one(self, desk_spec):
        a = analysis.count_flops(desk_spec, (1, 1, 64, 64))
        b = analysis.count_flops(desk_spec, (8, 1, 64, 64))
        assert a.total_flops == b.total_flops

    def test_quadratic_scaling_of_conv_nodes(self, desk_spec):
        small = {n.name: n for n in analysis.count_flops(desk_spec, (1, 1, 128, 128)).nodes}
        large = {n.name: n for n in analysis.count_flops(desk_spec, (1, 1, 256, 256)).nodes}
        for name, node in large.items():
            if node.kind in ("conv", "tconv"):
                assert node.flops == 4 * small[name].flops

    def test_totals_are_sums(self, desk_spec):
        report = analysis.count_flops(desk_spec, (1, 1, 64, 64))
        assert report.total_flops == sum(n.flops for n in report.nodes)
        assert report.total_params == sum(n.params for n in report.nodes)


def _by_definition(node, x, weight):
    """Evaluate a conv node (bias left out) straight from its definition, one
    (output pixel, kernel tap) pair at a time; each pair is a (Cin x Cout)
    block of multiply-accumulates. Returns (output, MACs)."""
    n, cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    s, p = node.stride, node.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, cout, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1))
    macs = 0
    for y in range(out.shape[2]):
        for xx in range(out.shape[3]):
            for i in range(k):
                for j in range(k):
                    pixel = xp[:, :, s * y + i, s * xx + j]
                    out[:, :, y, xx] += pixel @ weight[:, :, i, j].T
                    macs += cin * cout
    return out, macs


class TestBruteForceMacs:
    def test_conv_nodes(self, desk_spec, monkeypatch):
        params = model.init_params(desk_spec, seed=9, dtype=np.float64)
        x = rand_f64((1, 1, 32, 32), seed=90, lo=0.0, hi=1.0)
        report = {n.name: n for n in analysis.count_flops(desk_spec, x.shape).nodes}
        conv2d, conv_inputs = ops.conv2d, []

        def capturing(x_in, p):
            conv_inputs.append(x_in)
            return conv2d(x_in, p)

        monkeypatch.setattr(ops, "conv2d", capturing)
        model.forward(desk_spec, params, x)
        convs = [n for n in desk_spec.nodes if n.kind == "conv"]
        assert len(conv_inputs) == len(convs) > 0
        for node, x_in in zip(convs, conv_inputs):
            out, macs = _by_definition(node, x_in, params[f"{node.name}.weight"])
            out += params[f"{node.name}.bias"][None, :, None, None]
            engine = conv2d(x_in, model._conv_params(node, params))
            assert np.allclose(out, engine, rtol=1e-12, atol=1e-12)
            bias_adds = out.size  # batch 1: one per output element
            # the pointwise head conv runs before the upsample, at H/2
            share = 4 if node.name == "head_conv" else 1
            assert report[node.name].flops == share * (2 * macs + bias_adds), node.name


class TestCrossChecks:
    def test_params_match_init(self, desk_spec):
        counted = analysis.count_params(desk_spec).total_params
        params = model.init_params(desk_spec, seed=0)
        assert counted == sum(v.size for v in params.values())


class TestReports:
    def test_tsv_round_trips_integers(self, desk_spec):
        report = analysis.count_flops(desk_spec, (1, 1, 64, 64))
        rows = [
            line.split("\t")
            for line in analysis.format_tsv(report).strip().split("\n")
            if not line.startswith("#")
        ]
        body, total = rows[:-1], rows[-1]
        assert len(body) == len(report.nodes)
        for row, node in zip(body, report.nodes):
            assert int(row[3]) == node.params
            assert int(row[4]) == node.flops
        assert int(total[3]) == report.total_params
        assert int(total[4]) == report.total_flops

    def test_table_has_totals_row(self, desk_spec):
        text = analysis.format_table(analysis.count_flops(desk_spec, (1, 1, 64, 64)))
        assert "TOTAL" in text
        assert "MAC=2" in text  # convention stated in the header

    def test_empty_graph(self):
        empty = model.ArchitectureSpec(
            arch_id="empty", input_name="x", output_name="x",
            in_channels=1, num_classes=2, total_downsampling_factor=1, nodes=(),
        )
        report = analysis.count_flops(empty, (1, 1, 8, 8))
        assert report.total_params == 0 and report.total_flops == 0
        assert "TOTAL" in analysis.format_table(report)
