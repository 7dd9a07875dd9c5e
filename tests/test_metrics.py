import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfbs import metrics
from rfbs.data import Prng
from rfbs.errors import ShapeError


def brute_force_sets(pred, ref):
    """Independent oracle: coordinate sets, |P∩R| and |P∪R|."""
    p = {tuple(c) for c in np.argwhere(pred != 0)}
    r = {tuple(c) for c in np.argwhere(ref != 0)}
    return p, r


def random_mask(seed, shape=(16, 16), density=0.5):
    n = int(np.prod(shape))
    return (Prng(seed).fill_f64(n).reshape(shape) < density).astype(np.float32)


class TestConfusion:
    def test_perfect_prediction(self):
        mask = np.zeros((5, 5), np.float32)
        mask.flat[:10] = 1
        c = metrics.confusion(mask, mask)
        assert (c.tp, c.fp, c.fn) == (10, 0, 0)
        assert c.total == 25

    def test_all_missed(self):
        ref = np.zeros((5, 5), np.float32)
        ref.flat[:10] = 1
        c = metrics.confusion(np.zeros_like(ref), ref)
        assert (c.tp, c.fp, c.fn) == (0, 0, 10)

    def test_partial_overlap(self):
        pred = np.zeros((4, 4), np.float32)
        ref = np.zeros((4, 4), np.float32)
        pred.flat[0:4] = 1  # pixels 0..3
        ref.flat[2:6] = 1  # pixels 2..5, overlap {2, 3}
        c = metrics.confusion(pred, ref)
        assert (c.tp, c.fp, c.fn) == (2, 2, 2)

    def test_non_binary_rejected(self):
        with pytest.raises(ShapeError):
            metrics.confusion(np.full((2, 2), 0.5, np.float32), np.zeros((2, 2), np.float32))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.confusion(np.zeros((2, 2), np.float32), np.zeros((2, 3), np.float32))


class TestDiceIou:
    def test_identical_masks(self):
        c = metrics.ConfusionCounts(tp=7, fp=0, fn=0, tn=2)
        assert metrics.dice(c) == 1.0
        assert metrics.iou(c) == 1.0

    def test_disjoint_masks(self):
        c = metrics.ConfusionCounts(tp=0, fp=3, fn=4, tn=2)
        assert metrics.dice(c) == 0.0
        assert metrics.iou(c) == 0.0

    def test_half_overlap(self):
        c = metrics.ConfusionCounts(tp=2, fp=2, fn=2, tn=10)
        assert metrics.dice(c) == 0.5  # 4/8
        assert metrics.iou(c) == pytest.approx(1 / 3, abs=1e-15)  # 2/6

    def test_empty_vs_empty_convention(self):
        c = metrics.ConfusionCounts(tp=0, fp=0, fn=0, tn=9)
        assert metrics.dice(c) == 1.0
        assert metrics.iou(c) == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_and_relation(self, seed):
        pred = random_mask(seed)
        ref = random_mask(seed ^ 0xFFFF)
        p, r = brute_force_sets(pred, ref)
        c = metrics.confusion(pred, ref)
        inter, union = len(p & r), len(p | r)
        expect_dice = 2 * inter / (len(p) + len(r)) if (p or r) else 1.0
        expect_iou = inter / union if union else 1.0
        assert metrics.dice(c) == expect_dice
        assert metrics.iou(c) == expect_iou
        d, i = metrics.dice(c), metrics.iou(c)
        assert abs(d - 2 * i / (1 + i)) <= 1e-12

    def test_symmetry(self):
        a, b = random_mask(5), random_mask(6)
        assert metrics.dice(metrics.confusion(a, b)) == metrics.dice(metrics.confusion(b, a))
        assert metrics.iou(metrics.confusion(a, b)) == metrics.iou(metrics.confusion(b, a))

    def test_monotonicity(self):
        # fixing a missed foreground pixel never lowers Dice
        pred = random_mask(7)
        ref = random_mask(8)
        missed = np.argwhere((ref != 0) & (pred == 0))
        prev = metrics.dice(metrics.confusion(pred, ref))
        for y, x in missed[:20]:
            pred = pred.copy()
            pred[y, x] = 1
            now = metrics.dice(metrics.confusion(pred, ref))
            assert now >= prev
            prev = now

    def test_bounds(self):
        for seed in range(20):
            c = metrics.confusion(random_mask(seed), random_mask(seed + 1000))
            assert 0.0 <= metrics.dice(c) <= 1.0
            assert 0.0 <= metrics.iou(c) <= 1.0


class TestArgmaxMask:
    def test_foreground_wins(self):
        prob = np.array([[[[0.3]], [[0.7]]]], np.float32)
        assert metrics.argmax_mask(prob, 1).item() == 1.0

    def test_tie_goes_to_background(self):
        prob = np.array([[[[0.5]], [[0.5]]]], np.float32)
        assert metrics.argmax_mask(prob, 1).item() == 0.0

    def test_threshold_equivalence_two_class(self):
        fg = Prng(9).fill_f64(64).reshape(1, 1, 8, 8).astype(np.float32)
        prob = np.concatenate([1.0 - fg, fg], axis=1)
        by_argmax = metrics.argmax_mask(prob, 1)
        by_threshold = (fg[:, 0] > 0.5).astype(np.float32)
        ties = fg[:, 0] == 0.5
        assert np.array_equal(by_argmax[~ties[None][0]], by_threshold[~ties[None][0]])

    def test_class_out_of_range(self):
        with pytest.raises(ShapeError):
            metrics.argmax_mask(np.zeros((1, 2, 2, 2), np.float32), 2)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), channels=st.integers(1, 4), dtype=st.sampled_from(
        [np.float32, np.float64]))
    def test_agrees_with_numpy_argmax(self, data, channels, dtype):
        # a few values, so ties are common; NaN and +-inf included
        values = st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0, np.inf, -np.inf, np.nan])
        n, h, w = (data.draw(st.integers(1, 3)) for _ in range(3))
        prob = np.array(data.draw(st.lists(values, min_size=n * channels * h * w,
                                           max_size=n * channels * h * w)),
                        dtype=dtype).reshape(n, channels, h, w)
        fg = data.draw(st.integers(0, channels - 1))
        want = (prob.argmax(axis=1) == fg).astype(np.float32)
        got = metrics.argmax_mask(prob, fg)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


class TestAggregate:
    def _result(self, image_id, d, i):
        c = metrics.ConfusionCounts(tp=1, fp=0, fn=0, tn=0)
        return metrics.ImageResult(image_id=image_id, dice=d, iou=i, counts=c)

    def test_perfect_pair(self):
        rep = metrics.aggregate([self._result("a", 1.0, 1.0), self._result("b", 1.0, 1.0)])
        assert (rep.mean_dice, rep.std_dice) == (1.0, 0.0)

    def test_zero_one_pair(self):
        rep = metrics.aggregate([self._result("a", 0.0, 0.0), self._result("b", 1.0, 1.0)])
        assert rep.mean_dice == 0.5
        assert rep.std_dice == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_single_image_std_zero(self):
        rep = metrics.aggregate([self._result("a", 0.9, 0.8)])
        assert rep.std_dice == 0.0 and rep.std_iou == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            metrics.aggregate([])

    def test_counts_summed(self):
        rep = metrics.aggregate([self._result("a", 1, 1), self._result("b", 1, 1)])
        assert rep.counts.tp == 2


class TestRecords:
    def test_format(self):
        results = [
            metrics.evaluate_image("img0", random_mask(1), random_mask(1)),
            metrics.evaluate_image("img1", random_mask(2), random_mask(3)),
        ]
        text = metrics.format_records(metrics.aggregate(results))
        lines = text.strip().split("\n")
        assert lines[0].startswith("img0\t1.000000\t1.000000")
        assert lines[-1].startswith("AGGREGATE\t")
        assert len(lines[-1].split("\t")) == 5
        for line in lines[:-1]:
            sid, d, i = line.split("\t")
            assert len(d.split(".")[1]) == 6  # 6 decimal places
