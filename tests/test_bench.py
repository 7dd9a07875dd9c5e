import math
import statistics

import pytest

from rfbs import bench, model
from rfbs.errors import ShapeError


class TestStats:
    def test_closed_form(self):
        assert bench.stats([1.0, 2.0, 3.0]) == (2.0, 1.0, 1.0, 3.0)

    def test_single_sample(self):
        assert bench.stats([5.0]) == (5.0, 0.0, 5.0, 5.0)

    def test_constant_list(self):
        mean, std, lo, hi = bench.stats([4.2] * 10)
        assert (mean, std, lo, hi) == (4.2, 0.0, 4.2, 4.2)

    def test_order_free(self):
        samples = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        assert bench.stats(samples) == bench.stats(sorted(samples))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            bench.stats([])


@pytest.fixture(scope="module")
def report(desk_spec, desk_params):
    return bench.bench_forward(desk_spec, desk_params, 32, iters=5, warmup=2)


class TestBenchForward:
    def test_sample_count(self, report):
        assert report.iterations == 5
        assert len(report.times_ms) == 5  # warmup excluded

    def test_zero_iters_refused(self, desk_spec, desk_params):
        with pytest.raises(ShapeError, match="need iters >= 1"):
            bench.bench_forward(desk_spec, desk_params, 32, iters=0)

    def test_mean_within_bounds(self, report):
        assert report.min_ms <= report.mean_ms <= report.max_ms

    def test_stats_recomputable(self, report):
        mean, std, lo, hi = bench.stats(report.times_ms)
        assert (mean, std, lo, hi) == (
            report.mean_ms, report.std_ms, report.min_ms, report.max_ms
        )

    def test_batch_forced_to_one(self, report):
        assert report.input_shape[0] == 1

    def test_throughput(self, report):
        assert report.throughput == pytest.approx(1000.0 / report.mean_ms)

    def test_flops_params_echoed(self, desk_spec, report):
        from rfbs import analysis

        cost = analysis.count_flops(desk_spec, (1, 1, 32, 32))
        assert report.params == cost.total_params
        assert report.flops == cost.total_flops

    def test_fixed_input_is_deterministic(self, desk_spec, desk_params):
        a = bench.bench_input(desk_spec, 32)
        b = bench.bench_input(desk_spec, 32)
        assert a.tobytes() == b.tobytes()
        ya, _ = model.forward(desk_spec, desk_params, a)
        yb, _ = model.forward(desk_spec, desk_params, b)
        assert ya.tobytes() == yb.tobytes()


class TestTsv:
    def test_rows_reproduce_summary_exactly(self, desk_spec, desk_params):
        report = bench.bench_forward(desk_spec, desk_params, 32, iters=7, warmup=1)
        lines = bench.format_tsv(report).strip().split("\n")
        rows = [l for l in lines if not l.startswith("#")]
        iter_rows, summary = rows[:-1], rows[-1]
        assert len(iter_rows) == 7
        samples = [float(r.split("\t")[1]) for r in iter_rows]
        assert samples == report.times_ms  # repr() round-trips floats exactly
        fields = summary.split("\t")
        assert fields[0] == "SUMMARY"
        mean, std = float(fields[1]), float(fields[2])
        assert mean == statistics.fmean(samples)
        recomputed_std = math.sqrt(
            sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        )
        assert abs(std - recomputed_std) <= 1e-9

    def test_header_records_protocol(self, desk_spec, desk_params):
        report = bench.bench_forward(desk_spec, desk_params, 32, iters=2, warmup=1)
        tsv = bench.format_tsv(report)
        assert "# batch = 1" in tsv
        assert "# warmup = 1" in tsv
