import math
import weakref

import numpy as np
import pytest

from rfbs import data, metrics, model, ops, training
from rfbs.errors import NumericsError, ShapeError
from rfbs.model import ParameterStore

from conftest import rand_f64


class TestSoftDiceLoss:
    def test_perfect_prediction_zero_loss(self):
        g = (rand_f64((2, 8, 8), seed=80) > 0.5).astype(np.float64)
        prob = np.stack([1.0 - g, g], axis=1)
        loss, _ = training.soft_dice_loss(prob, g)
        assert loss == 0.0

    def test_empty_vs_empty_zero_loss(self):
        prob = np.zeros((1, 2, 4, 4))
        prob[:, 0] = 1.0  # all background
        loss, _ = training.soft_dice_loss(prob, np.zeros((1, 4, 4)))
        assert loss == 0.0

    def test_half_coverage_limit(self):
        # p_fg = 0.5 everywhere, half the pixels foreground: loss -> 0.5
        prob = np.full((1, 2, 4, 4), 0.5)
        target = np.zeros((1, 4, 4))
        target[0, :2, :] = 1.0
        loss, _ = training.soft_dice_loss(prob, target, smooth=1e-12)
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_loss_in_unit_interval(self):
        for seed in range(10):
            logits = rand_f64((2, 2, 6, 6), seed=seed, lo=-3, hi=3)
            prob = ops.softmax_channels(logits)
            target = (rand_f64((2, 6, 6), seed=seed + 99) > 0.3).astype(np.float64)
            loss, _ = training.soft_dice_loss(prob, target)
            assert 0.0 <= loss <= 1.0

    def test_gradient_matches_finite_differences(self):
        prob = ops.softmax_channels(rand_f64((2, 2, 4, 4), seed=81, lo=-1, hi=1))
        target = (rand_f64((2, 4, 4), seed=82) > 0.5).astype(np.float64)
        _, dprob = training.soft_dice_loss(prob, target)
        h = 1e-6
        worst = 0.0
        for k in range(prob.size):
            work = prob.copy()
            work.flat[k] += h
            plus, _ = training.soft_dice_loss(work, target)
            work.flat[k] -= 2 * h
            minus, _ = training.soft_dice_loss(work, target)
            numeric = (plus - minus) / (2 * h)
            a = dprob.flat[k]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        assert worst <= 1e-6

    def test_background_channel_gradient_zero(self):
        prob = ops.softmax_channels(rand_f64((1, 2, 4, 4), seed=83))
        target = (rand_f64((1, 4, 4), seed=84) > 0.5).astype(np.float64)
        _, dprob = training.soft_dice_loss(prob, target)
        assert not dprob[:, 0].any()

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            training.soft_dice_loss(np.zeros((1, 3, 4, 4)), np.zeros((1, 4, 4)))
        with pytest.raises(ShapeError):
            training.soft_dice_loss(np.zeros((1, 2, 4, 4)), np.zeros((1, 5, 4)))
        with pytest.raises(ShapeError):
            training.soft_dice_loss(np.zeros((1, 2, 4, 4)), np.full((1, 4, 4), 0.5))
        with pytest.raises(ShapeError, match="numpy array"):
            training.soft_dice_loss(np.zeros((1, 2, 4, 4), np.float32), [[0] * 4] * 4)

    def test_empty_batch(self):
        with pytest.raises(ShapeError, match="empty batch"):
            training.soft_dice_loss(np.zeros((0, 2, 4, 4)), np.zeros((0, 4, 4)))

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_bool_or_int_target_refused(self, dtype):
        # 0/1 values pass the mask rule; tensor.reduce_sum refuses the dtype
        prob = np.full((1, 2, 4, 4), 0.5)
        with pytest.raises(ShapeError, match="dtype must be float32 or float64"):
            training.soft_dice_loss(prob, np.eye(4, dtype=dtype)[None])


class TestLrSchedule:
    def test_plateaus(self):
        cfg = training.TrainConfig()
        assert training.lr_at(0, cfg) == 1e-4
        assert training.lr_at(1999, cfg) == 1e-4
        assert training.lr_at(2000, cfg) == pytest.approx(9e-5, rel=1e-12)
        assert training.lr_at(4000, cfg) == pytest.approx(8.1e-5, rel=1e-12)

    def test_exact_power_law(self):
        cfg = training.TrainConfig()
        for k in range(6):
            assert training.lr_at(2000 * k, cfg) == cfg.initial_lr * 0.9**k

    def test_non_increasing(self):
        cfg = training.TrainConfig()
        rates = [training.lr_at(s, cfg) for s in range(0, 20000, 500)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_step_rejected(self):
        with pytest.raises(ShapeError):
            training.lr_at(-1, training.TrainConfig())

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_initial_lr_rejected(self, lr):
        with pytest.raises(ShapeError, match="initial_lr"):
            training.TrainConfig(initial_lr=lr)


def scalar_store(value, dtype=np.float64):
    return ParameterStore(w=np.array([value], dtype=dtype))


class TestAdam:
    def test_first_step_analytic(self):
        params = scalar_store(1.0)
        state = training.AdamState(params)
        training.adam_step(params, {"w": np.array([0.1])}, state, lr=1e-4)
        # bias correction makes mhat = g and vhat = g^2 on step 1
        expect = 1.0 - 1e-4 * 0.1 / (0.1 + 1e-8)
        assert params["w"][0] == pytest.approx(expect, rel=1e-12)
        assert state.t == 1

    def test_zero_gradient_no_move(self):
        params = scalar_store(3.5)
        state = training.AdamState(params)
        training.adam_step(params, {"w": np.zeros(1)}, state, lr=1e-2)
        assert params["w"][0] == 3.5

    def test_deterministic(self):
        def run():
            params = scalar_store(1.0)
            state = training.AdamState(params)
            for i in range(50):
                g = np.array([math.sin(i)])
                training.adam_step(params, {"w": g}, state, lr=1e-3)
            return params["w"].tobytes()

        assert run() == run()

    def test_non_finite_gradient_reported(self):
        params = scalar_store(1.0)
        state = training.AdamState(params)
        with pytest.raises(NumericsError, match="w"):
            training.adam_step(params, {"w": np.array([np.nan])}, state, lr=1e-3)

    def test_shape_mismatch(self):
        params = scalar_store(1.0)
        state = training.AdamState(params)
        with pytest.raises(ShapeError):
            training.adam_step(params, {"w": np.zeros(2)}, state, lr=1e-3)

    def test_missing_gradient(self):
        params = scalar_store(1.0)
        state = training.AdamState(params)
        with pytest.raises(ShapeError):
            training.adam_step(params, {}, state, lr=1e-3)

    def test_refused_step_moves_nothing(self, desk_spec):
        # every gradient is checked before any update: a non-finite gradient in
        # the last parameter leaves params, m, v and t as they were
        params = model.init_params(desk_spec, seed=3)
        state = training.AdamState(params)
        grads = {name: np.full_like(v, 0.5) for name, v in params.items()}
        training.adam_step(params, grads, state, lr=1e-3)

        def snapshot():
            stores = (params, state.m, state.v)
            return [s[name].tobytes() for s in stores for name in params], state.t

        before = snapshot()
        last = params.names()[-1]
        grads[last] = grads[last].copy()
        grads[last][0] = np.nan
        with pytest.raises(NumericsError, match=last):
            training.adam_step(params, grads, state, lr=1e-3)
        assert snapshot() == before


class TestEvaluate:
    def test_matches_the_per_image_metrics(self, desk_spec, desk_params):
        samples = tiny_dataset(n=6, size=32).samples
        report = training.evaluate(desk_spec, desk_params, samples)
        assert [r.image_id for r in report.per_image] == [s.id for s in samples]
        for r, s in zip(report.per_image, samples):
            prob, _ = model.forward(desk_spec, desk_params, s.image[None])
            pred = metrics.argmax_mask(prob, foreground_class=1)[0]
            assert r == metrics.evaluate_image(s.id, pred, s.mask)

    @pytest.mark.parametrize("workers, cpus", [(1, 2), (2, 2), (3, 2),
                                               (None, 1), (None, 2), (None, 3)])
    def test_first_failing_sample_wins(self, desk_spec, desk_params, workers, cpus,
                                       monkeypatch):
        # samples 1 and 2 fail with different errors; sample 1's is raised
        monkeypatch.setattr(ops, "_usable_cpus", lambda: cpus)
        samples = tiny_dataset(n=5, size=32).samples[:4]
        samples[1].image = np.concatenate([samples[1].image] * 2)
        samples[2].image = np.full_like(samples[2].image, np.nan)
        with pytest.raises(ShapeError, match="input has 2 channels"):
            training.evaluate(desk_spec, desk_params, samples, workers)


def tiny_dataset(n=16, size=32, seed=4, fraction=0.8):
    ds = data.generate_phantoms(n, max(size, 64), seed=seed)
    # crop to a smaller field to keep the training tests quick
    if size < 64:
        for s in ds.samples:
            s.image = np.ascontiguousarray(s.image[:, :size, :size])
            s.mask = np.ascontiguousarray(s.mask[:size, :size])
    return data.split(ds, fraction, seed=seed)


class TestTrain:
    def test_step_count(self, desk_spec):
        ds = tiny_dataset(n=20, size=32)
        assert len(ds.part("train")) == 16
        cfg = training.TrainConfig(batch_size=8, epochs=1, seed=1)
        _, log = training.train(desk_spec, ds, cfg)
        assert len(log.steps) == 2  # 16 samples, batch 8 -> two optimizer steps
        assert [s[0] for s in log.steps] == [0, 1]

    def test_partial_final_batch_trained(self, desk_spec):
        ds = tiny_dataset(n=12, size=32, fraction=0.75)  # 9 train: batches 8 + 1
        cfg = training.TrainConfig(batch_size=8, epochs=1, seed=1)
        _, log = training.train(desk_spec, ds, cfg)
        assert len(log.steps) == 2

    def test_deterministic_rerun(self, desk_spec):
        ds = tiny_dataset(n=12, size=32)
        cfg = training.TrainConfig(batch_size=4, epochs=2, seed=9)
        params_a, log_a = training.train(desk_spec, ds, cfg)
        params_b, log_b = training.train(desk_spec, ds, cfg)
        assert log_a.steps == log_b.steps
        assert [e[:3] for e in log_a.epochs] == [e[:3] for e in log_b.epochs]
        for name in params_a.names():
            assert params_a[name].tobytes() == params_b[name].tobytes()

    def test_loss_decreases_on_phantoms(self, desk_spec):
        # regression baseline: mean loss at epoch 10 beats epoch 1 (seed 42)
        ds = data.split(data.generate_phantoms(24, 64, seed=42), 0.75, seed=42)
        cfg = training.TrainConfig(batch_size=8, epochs=10, seed=42)
        _, log = training.train(desk_spec, ds, cfg)
        assert log.epochs[0][1] > log.epochs[9][1]

    def test_best_params_match_best_epoch(self, desk_spec):
        ds = tiny_dataset(n=12, size=32)
        cfg = training.TrainConfig(batch_size=4, epochs=3, seed=2)
        best, log = training.train(desk_spec, ds, cfg)
        best_logged = max(e[2] for e in log.epochs)
        rescored = training.evaluate(desk_spec, best, ds.part("val")).mean_dice
        assert rescored == best_logged

    def test_previous_tape_freed_before_next_forward(self, desk_spec, monkeypatch):
        forward = training.forward
        tapes, live = [], []

        def tracked(spec, params, x, keep_intermediates=False):
            live.append(sum(r() is not None for r in tapes))
            y, tape = forward(spec, params, x, keep_intermediates)
            if tape is not None:
                tapes.append(weakref.ref(tape))
            return y, tape

        monkeypatch.setattr(training, "forward", tracked)
        ds = tiny_dataset(n=20, size=32)  # 16 train samples: 4 steps at batch 4
        training.train(desk_spec, ds, training.TrainConfig(batch_size=4, epochs=1, seed=1))
        assert len(tapes) == 4 and live == [0] * len(live)

    def test_step_bytes_independent_of_cpu_count(self, desk_spec, monkeypatch):
        # the conv ops spread the batch over the CPUs; loss, parameters and
        # Adam moments must come out the same at any count
        samples = tiny_dataset(n=8, size=32, fraction=0.5).samples
        images = np.stack([s.image for s in samples])
        masks = np.stack([s.mask for s in samples])
        cfg = training.TrainConfig(batch_size=8, seed=1)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(ops, "_usable_cpus", lambda: cpus)
            params = model.init_params(desk_spec, seed=7)
            state = training.AdamState(params)
            losses = [training.train_step(desk_spec, params, state, images, masks,
                                          1e-3, cfg) for _ in range(2)]
            runs.append((losses, *([a.tobytes() for a in d.values()]
                                   for d in (params, state.m, state.v))))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_requires_both_splits(self, desk_spec):
        ds = data.generate_phantoms(4, 64, seed=0)  # all train, no val
        with pytest.raises(ShapeError):
            training.train(desk_spec, ds, training.TrainConfig(epochs=1))

    def test_log_lines_format(self, desk_spec):
        ds = tiny_dataset(n=8, size=32)
        cfg = training.TrainConfig(batch_size=8, epochs=1, seed=3)
        _, log = training.train(desk_spec, ds, cfg)
        lines = log.format_lines().strip().split("\n")
        step_lines = [l for l in lines if l.startswith("step\t")]
        epoch_lines = [l for l in lines if l.startswith("epoch\t")]
        assert len(step_lines) == 1 and len(epoch_lines) == 1
        assert len(step_lines[0].split("\t")) == 4  # tag, index, lr, loss
        assert len(epoch_lines[0].split("\t")) == 4  # tag, index, loss, dice
        assert float(step_lines[0].split("\t")[2]) == 1e-4
