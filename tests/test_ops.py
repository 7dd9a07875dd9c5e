import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfbs import ops
from rfbs.errors import ShapeError, UnsupportedConfigError

from conftest import from_values, rand_f32, rand_f64


def conv_params(weight, bias, stride=1, padding=0):
    return ops.Conv2dParams(np.asarray(weight), np.asarray(bias), stride, padding)


def naive_conv2d(x, w, b, stride, pad):
    """Direct-summation oracle, one multiply-add per tap, independent of the
    patch-matrix layout conv2d uses."""
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += (
                                    xp[ni, ci, i * stride + a, j * stride + bb]
                                    * w[co, ci, a, bb]
                                )
                    out[ni, co, i, j] = acc + b[co]
    return out


class TestConv2d:
    def test_scalar_case(self):
        x = np.full((1, 1, 1, 1), 5.0, np.float32)
        p = conv_params(np.full((1, 1, 1, 1), 2.0, np.float32), np.ones(1, np.float32))
        assert ops.conv2d(x, p).item() == 11.0

    def test_window_sum(self):
        x = from_values([1, 1, 3, 3], range(1, 10))
        p = conv_params(np.ones((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
        y = ops.conv2d(x, p)
        assert y.shape == (1, 1, 1, 1)
        assert y.item() == 45.0

    def test_strided_shape(self):
        x = np.zeros((1, 16, 128, 128), np.float32)
        p = conv_params(
            np.zeros((32, 16, 3, 3), np.float32), np.zeros(32, np.float32),
            stride=2, padding=1,
        )
        assert ops.conv2d(x, p).shape == (1, 32, 64, 64)

    def test_matches_direct_summation(self):
        x = rand_f64((2, 3, 6, 6), seed=21)
        w = rand_f64((4, 3, 3, 3), seed=22)
        b = rand_f64((4,), seed=23)
        for stride, pad in [(1, 1), (2, 1), (1, 0)]:
            got = ops.conv2d(x, conv_params(w, b, stride, pad))
            want = naive_conv2d(x, w, b, stride, pad)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @given(st.sampled_from(sorted(ops._CONV_CONFIGS)), st.sampled_from([1, 3]),
           st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_config_matches_oracles(self, config, n, dh, dw, seed):
        # from the smallest input with one output pixel up, odd and even H != W
        k, stride, pad = config
        h, w = max(1, k - 2 * pad) + dh, max(1, k - 2 * pad) + dw
        x = rand_f64((n, 2, h, w), seed=seed)
        wt = rand_f64((3, 2, k, k), seed=seed ^ 1)
        b = rand_f64((3,), seed=seed ^ 2)
        p = conv_params(wt, b, stride, pad)
        y = ops.conv2d(x, p)
        want = naive_conv2d(x, wt, b, stride, pad)
        assert np.allclose(y, want, rtol=1e-12, atol=1e-12)

        u = rand_f64(y.shape, seed=seed ^ 3)
        dx, dweight, dbias = ops.conv2d_vjp(x, p, u)
        assert dx.shape == x.shape and dweight.shape == wt.shape
        # conv2d(x) - b is linear in x, so <conv2d(x) - b, u> = <x, dx>
        lhs = np.sum((y - b[:, None, None]) * u)
        assert math.isclose(lhs, np.sum(x * dx), rel_tol=1e-12, abs_tol=1e-12)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        want_dw, want_db = np.zeros_like(wt), np.zeros_like(b)
        for ni, co, i, j in np.ndindex(u.shape):
            want_db[co] += u[ni, co, i, j]
            for ci, a, bb in np.ndindex(wt.shape[1:]):
                want_dw[co, ci, a, bb] += u[ni, co, i, j] * xp[
                    ni, ci, i * stride + a, j * stride + bb]
        assert np.allclose(dweight, want_dw, rtol=1e-12, atol=1e-12)
        assert np.allclose(dbias, want_db, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch(self):
        x = np.zeros((1, 2, 4, 4), np.float32)
        p = conv_params(np.zeros((1, 3, 3, 3), np.float32), np.zeros(1, np.float32),
                        padding=1)
        with pytest.raises(ShapeError):
            ops.conv2d(x, p)

    def test_nonpositive_output_extent(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        p = conv_params(np.zeros((1, 1, 3, 3), np.float32), np.zeros(1, np.float32))
        with pytest.raises(ShapeError):
            ops.conv2d(x, p)

    def test_unsupported_configs(self):
        x = np.zeros((1, 1, 8, 8), np.float32)
        bad = [
            conv_params(np.zeros((1, 1, 5, 5), np.float32), np.zeros(1, np.float32)),
            conv_params(np.zeros((1, 1, 3, 3), np.float32), np.zeros(1, np.float32),
                        stride=3, padding=1),
            conv_params(np.zeros((1, 1, 3, 3), np.float32), np.zeros(1, np.float32),
                        padding=2),
            conv_params(np.zeros((1, 1, 1, 1), np.float32), np.zeros(1, np.float32),
                        stride=2),
            # per axis k3 s1 p0 and k1 s1 p0 are both supported, but not a 3x1 kernel
            conv_params(np.zeros((1, 1, 3, 1), np.float32), np.zeros(1, np.float32)),
        ]
        for p in bad:
            with pytest.raises(UnsupportedConfigError):
                ops.conv2d(x, p)

    def test_dtype_mismatch(self):
        x = np.zeros((1, 1, 4, 4), np.float64)
        p = conv_params(np.zeros((1, 1, 1, 1), np.float32), np.zeros(1, np.float32))
        with pytest.raises(ShapeError):
            ops.conv2d(x, p)

    def test_deterministic(self):
        x = rand_f32((1, 2, 8, 8), seed=5)
        p = conv_params(rand_f32((3, 2, 3, 3), seed=6), rand_f32((3,), seed=7),
                        stride=2, padding=1)
        assert ops.conv2d(x, p).tobytes() == ops.conv2d(x, p).tobytes()


class TestConv2dVjp:
    def test_scalar_analytic(self):
        # y = 5w + b with w=2, b=1: dy/dw=5, dy/db=1, dy/dx=2
        x = np.full((1, 1, 1, 1), 5.0, np.float64)
        p = conv_params(np.full((1, 1, 1, 1), 2.0, np.float64), np.ones(1, np.float64))
        dx, dw, db = ops.conv2d_vjp(x, p, np.ones((1, 1, 1, 1), np.float64))
        assert (dx.item(), dw.item(), db.item()) == (2.0, 5.0, 1.0)

    def test_zero_upstream(self):
        x = rand_f64((1, 2, 5, 5), seed=31)
        p = conv_params(rand_f64((3, 2, 3, 3), seed=32), rand_f64((3,), seed=33),
                        stride=2, padding=1)
        y = ops.conv2d(x, p)
        dx, dw, db = ops.conv2d_vjp(x, p, np.zeros_like(y))
        assert not dx.any() and not dw.any() and not db.any()

    def test_upstream_shape_checked(self):
        x = rand_f64((1, 2, 5, 5), seed=34)
        p = conv_params(rand_f64((3, 2, 3, 3), seed=35), rand_f64((3,), seed=36),
                        stride=2, padding=1)
        with pytest.raises(ShapeError):
            ops.conv2d_vjp(x, p, np.zeros((1, 3, 9, 9), np.float64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("config", sorted(ops._CONV_CONFIGS),
                             ids=lambda c: "k%ds%dp%d" % c)
    def test_batch_equals_separate_images(self, config, dtype):
        # each image runs alone, and dweight sums the images in index order
        k, stride, pad = config
        x = rand_f64((3, 4, 12, 10), seed=37).astype(dtype)
        p = conv_params(rand_f64((5, 4, k, k), seed=38).astype(dtype),
                        rand_f64((5,), seed=39).astype(dtype), stride, pad)
        y = ops.conv2d(x, p)
        u = rand_f64(y.shape, seed=40).astype(dtype)
        dx, dweight, _ = ops.conv2d_vjp(x, p, u)
        summed = np.zeros_like(dweight)
        for i in range(x.shape[0]):
            assert ops.conv2d(x[i:i + 1], p)[0].tobytes() == y[i].tobytes()
            dxi, dwi, _ = ops.conv2d_vjp(x[i:i + 1], p, u[i:i + 1])
            assert dxi[0].tobytes() == dx[i].tobytes()
            summed += dwi
        assert summed.tobytes() == dweight.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pointwise_dx_is_one_gemm(self, dtype):
        # at k == 1 each image's dx is W^T @ upstream, bit for bit (head_conv's
        # 16 -> 2 shape)
        x = rand_f64((3, 16, 12, 10), seed=41).astype(dtype)
        p = conv_params(rand_f64((2, 16, 1, 1), seed=42).astype(dtype),
                        rand_f64((2,), seed=43).astype(dtype))
        u = rand_f64((3, 2, 12, 10), seed=44).astype(dtype)
        dx, _, _ = ops.conv2d_vjp(x, p, u)
        wmat = p.weight.reshape(2, 16)
        for i in range(x.shape[0]):
            expect = (wmat.T @ u[i].reshape(2, -1)).reshape(16, 12, 10)
            assert dx[i].tobytes() == expect.tobytes()


class TestMaxpool:
    def test_simple(self):
        y = ops.maxpool2x2(from_values([1, 1, 2, 2], [1, 2, 3, 4]))
        assert y.item() == 4.0

    def test_all_negative(self):
        y = ops.maxpool2x2(from_values([1, 1, 2, 2], [-1, -2, -3, -4]))
        assert y.item() == -1.0

    def test_shape_halving(self):
        y = ops.maxpool2x2(np.zeros((1, 1, 256, 256), np.float32))
        assert y.shape == (1, 1, 128, 128)

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            ops.maxpool2x2(np.zeros((1, 1, 3, 4), np.float32))

    def test_vjp_routes_to_max(self):
        x = from_values([1, 1, 2, 2], [1, 2, 3, 4])
        dx = ops.maxpool2x2_vjp(x, np.ones((1, 1, 1, 1), np.float32))
        assert dx.ravel().tolist() == [0, 0, 0, 1]

    def test_tie_first_row_major(self):
        x = from_values([1, 1, 2, 2], [5, 5, 0, 0])
        dx = ops.maxpool2x2_vjp(x, np.ones((1, 1, 1, 1), np.float32))
        assert dx.ravel().tolist() == [1, 0, 0, 0]

    def test_vjp_upstream_shape_checked(self):
        with pytest.raises(ShapeError):
            ops.maxpool2x2_vjp(np.zeros((1, 1, 4, 4), np.float32),
                               np.zeros((1, 1, 1, 2), np.float32))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_tied_inputs_match_brute_force(self, seed, c, h2, w2):
        # values in {0, 1, 2}: most windows hold a tie for their maximum
        x = np.floor(3 * rand_f32((2, c, 2 * h2, 2 * w2), seed=seed))
        up = rand_f32((2, c, h2, w2), seed=seed ^ 1) + 1  # nonzero everywhere
        y = ops.maxpool2x2(x)
        assert np.array_equal(y, x.reshape(2, c, h2, 2, w2, 2).max(axis=(3, 5)))
        want = np.zeros_like(x)
        for n, ci, i, j in np.ndindex(up.shape):
            window = [(2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1)]
            r, q = next(rq for rq in window if x[n, ci][rq] == y[n, ci, i, j])
            want[n, ci, r, q] = up[n, ci, i, j]
        assert np.array_equal(ops.maxpool2x2_vjp(x, up), want)


class TestTransposedConv:
    def test_scatter(self):
        x = np.full((1, 1, 1, 1), 3.0, np.float32)
        p = conv_params(np.array([[[[1, 2], [3, 4]]]], np.float32),
                        np.zeros(1, np.float32), stride=2)
        y = ops.transposed_conv2d(x, p)
        assert y.ravel().tolist() == [3, 6, 9, 12]

    def test_shape(self):
        x = np.zeros((1, 128, 16, 16), np.float32)
        p = conv_params(np.zeros((64, 128, 2, 2), np.float32),
                        np.zeros(64, np.float32), stride=2)
        assert ops.transposed_conv2d(x, p).shape == (1, 64, 32, 32)

    def test_zero_input_broadcasts_bias(self):
        x = np.zeros((1, 2, 3, 3), np.float32)
        bias = np.array([0.5, -1.0], np.float32)
        p = conv_params(np.ones((2, 2, 2, 2), np.float32), bias, stride=2)
        y = ops.transposed_conv2d(x, p)
        assert (y[0, 0] == 0.5).all() and (y[0, 1] == -1.0).all()

    def test_unsupported_config(self):
        x = np.zeros((1, 1, 2, 2), np.float32)
        p = conv_params(np.zeros((1, 1, 3, 3), np.float32), np.zeros(1, np.float32),
                        stride=2)
        with pytest.raises(UnsupportedConfigError):
            ops.transposed_conv2d(x, p)

    def test_vjp_dweight_analytic(self):
        x = np.full((1, 1, 1, 1), 3.0, np.float64)
        p = conv_params(np.array([[[[1, 2], [3, 4]]]], np.float64),
                        np.zeros(1, np.float64), stride=2)
        dx, dw, db = ops.transposed_conv2d_vjp(x, p, np.ones((1, 1, 2, 2), np.float64))
        assert dw.ravel().tolist() == [3, 3, 3, 3]
        assert db.item() == 4.0  # sum of upstream per channel

    def test_vjp_dbias_is_upstream_sum(self):
        x = rand_f64((2, 3, 3, 3), seed=41)
        p = conv_params(rand_f64((2, 3, 2, 2), seed=42), rand_f64((2,), seed=43),
                        stride=2)
        up = rand_f64((2, 2, 6, 6), seed=44)
        _, _, db = ops.transposed_conv2d_vjp(x, p, up)
        assert np.allclose(db, up.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_conv_duality(self):
        # dx of conv k2 s2 under upstream u == forward tconv of u with the
        # channel-transposed weights (same values, swapped in/out layout)
        x = rand_f64((1, 3, 8, 8), seed=51)
        w = rand_f64((2, 3, 2, 2), seed=52)
        zero2, zero3 = np.zeros(2, np.float64), np.zeros(3, np.float64)
        conv_p = conv_params(w, zero2, stride=2)
        up = rand_f64((1, 2, 4, 4), seed=53)
        dx, _, _ = ops.conv2d_vjp(x, conv_p, up)
        tconv_p = conv_params(np.ascontiguousarray(w.transpose(1, 0, 2, 3)), zero3,
                              stride=2)
        y = ops.transposed_conv2d(up, tconv_p)
        denom = np.maximum(np.abs(dx), 1e-30)
        assert (np.abs(dx - y) / denom).max() <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, n, cin, cout, h, w):
        x = rand_f64((n, cin, h, w), seed=seed)
        p = conv_params(rand_f64((cout, cin, 2, 2), seed=seed ^ 1),
                        rand_f64((cout,), seed=seed ^ 2), stride=2)
        u = rand_f64((n, cout, 2 * h, 2 * w), seed=seed ^ 3)
        want = np.empty_like(u)  # each input pixel scatters into its 2x2 block
        for ni, co, i, j, a, b in np.ndindex(n, cout, h, w, 2, 2):
            want[ni, co, 2 * i + a, 2 * j + b] = (
                x[ni, :, i, j] @ p.weight[co, :, a, b] + p.bias[co])
        y = ops.transposed_conv2d(x, p)
        assert np.allclose(y, want, rtol=1e-12, atol=1e-12)
        dx, dweight, dbias = ops.transposed_conv2d_vjp(x, p, u)
        # adjoint identity of the linear part: <tconv(x) - b, u> = <x, dx>
        lhs = np.sum((y - p.bias[:, None, None]) * u)
        assert abs(lhs - np.sum(x * dx)) <= 1e-12 * max(1.0, np.sum(np.abs(x * dx)))
        want_dw = np.zeros_like(p.weight)
        for co, ci, a, b in np.ndindex(want_dw.shape):
            want_dw[co, ci, a, b] = np.sum(x[:, ci] * u[:, co, a::2, b::2])
        assert np.allclose(dweight, want_dw, rtol=1e-12, atol=1e-12)
        assert np.allclose(dbias, [u[:, co].sum() for co in range(cout)],
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_equals_separate_images(self, dtype):
        # each image runs alone, and dweight sums the images in index order
        x = rand_f64((3, 6, 5, 7), seed=54).astype(dtype)
        p = conv_params(rand_f64((4, 6, 2, 2), seed=55).astype(dtype),
                        rand_f64((4,), seed=56).astype(dtype), stride=2)
        y = ops.transposed_conv2d(x, p)
        u = rand_f64(y.shape, seed=57).astype(dtype)
        dx, dweight, _ = ops.transposed_conv2d_vjp(x, p, u)
        summed = np.zeros_like(dweight)
        for i in range(x.shape[0]):
            assert ops.transposed_conv2d(x[i:i + 1], p)[0].tobytes() == y[i].tobytes()
            dxi, dwi, _ = ops.transposed_conv2d_vjp(x[i:i + 1], p, u[i:i + 1])
            assert dxi[0].tobytes() == dx[i].tobytes()
            summed += dwi
        assert summed.tobytes() == dweight.tobytes()


_ALL_CONV_CONFIGS = [("conv2d", c) for c in sorted(ops._CONV_CONFIGS)] + [
    ("transposed_conv2d", c) for c in sorted(ops._TCONV_CONFIGS)]


def conv_outputs(op, config, n, dtype, seed=70, cin=3, h=10, w=8):
    """op's forward and its VJP's three gradients on a seeded batch of n."""
    k, stride, pad = config
    x = rand_f64((n, cin, h, w), seed=seed).astype(dtype)
    p = conv_params(rand_f64((4, cin, k, k), seed=seed + 1).astype(dtype),
                    rand_f64((4,), seed=seed + 2).astype(dtype), stride, pad)
    y = getattr(ops, op)(x, p)
    u = rand_f64(y.shape, seed=seed + 3).astype(dtype)
    return [y, *getattr(ops, op + "_vjp")(x, p, u)]


def wait_for_threads(count, timeout=5.0):
    """True once threading.active_count() is back at `count`."""
    deadline = time.monotonic() + timeout
    while threading.active_count() != count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count() == count


class TestWorkerCount:
    """The conv ops spread a batch's images over the usable CPUs; the bytes
    they return must not depend on how many there are."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op, config", _ALL_CONV_CONFIGS,
                             ids=lambda v: v if isinstance(v, str) else "k%ds%dp%d" % v)
    def test_bytes_independent_of_cpu_count(self, op, config, dtype, monkeypatch):
        for n in (1, 2, 3, 5):
            monkeypatch.setattr(ops, "_usable_cpus", lambda: 1)
            want = [a.tobytes() for a in conv_outputs(op, config, n, dtype)]
            for cpus in (2, 3, 8):
                monkeypatch.setattr(ops, "_usable_cpus", lambda: cpus)
                got = [a.tobytes() for a in conv_outputs(op, config, n, dtype)]
                assert got == want, (n, cpus)

    def test_images_run_on_cpu_count_participants(self, monkeypatch):
        # image i runs on participant i % W, and participant 0 is the caller;
        # the barrier holds each participant's first image until all W run
        patches, threads = ops._patches, {}
        started = threading.Barrier(3, timeout=10)

        def recording(x, *rest):
            image = int(x[0, 0, 0])
            if image < 3:
                started.wait()
            threads.setdefault(threading.get_ident(), []).append(image)
            return patches(x, *rest)

        monkeypatch.setattr(ops, "_patches", recording)
        monkeypatch.setattr(ops, "_usable_cpus", lambda: 3)
        x = np.arange(5, dtype=np.float64)[:, None, None, None] * np.ones((5, 2, 6, 6))
        ops.conv2d(x, conv_params(np.ones((1, 2, 3, 3)), np.zeros(1), 1, 1))
        assert threads.pop(threading.get_ident()) == [0, 3]
        assert sorted(threads.values()) == [[1, 4], [2]]

    @pytest.mark.parametrize("n", [0, 1])
    def test_small_batch_starts_no_thread(self, n, monkeypatch):
        def no_affinity_call():
            raise AssertionError("asked for the CPU count")

        monkeypatch.setattr(ops, "_usable_cpus", no_affinity_call)
        before = threading.active_count()
        for op, config in _ALL_CONV_CONFIGS:
            assert conv_outputs(op, config, n, np.float64)[0].shape[0] == n
        assert threading.active_count() == before

    def test_oversubscribed_with_fast_switching(self, monkeypatch):
        # 8 participants on fewer cores, switching threads every microsecond
        monkeypatch.setattr(ops, "_usable_cpus", lambda: 1)
        want = [[a.tobytes() for a in conv_outputs(op, c, 16, np.float32)]
                for op, c in _ALL_CONV_CONFIGS]
        monkeypatch.setattr(ops, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [[a.tobytes() for a in conv_outputs(op, c, 16, np.float32)]
                   for op, c in _ALL_CONV_CONFIGS]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_in_any_image_propagates(self, failing, monkeypatch):
        patches = ops._patches

        def failing_patches(x, *rest):
            if x[0, 0, 0] == failing:
                raise RuntimeError(f"patches of image {failing}")
            return patches(x, *rest)

        monkeypatch.setattr(ops, "_patches", failing_patches)
        monkeypatch.setattr(ops, "_usable_cpus", lambda: 2)
        x = np.arange(4, dtype=np.float64)[:, None, None, None] * np.ones((4, 2, 6, 6))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"image {failing}"):
            ops.conv2d(x, conv_params(np.ones((1, 2, 3, 3)), np.zeros(1), 1, 1))
        assert wait_for_threads(before)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_lowest_failing_image_wins(self, cpus, monkeypatch):
        # images 1 and 2 fail on different participants; image 2's may be
        # raised first, but image 1's error is the one reported
        patches = ops._patches

        def failing_patches(x, *rest):
            image = int(x[0, 0, 0])
            if image in (1, 2):
                raise RuntimeError(f"patches of image {image}")
            return patches(x, *rest)

        monkeypatch.setattr(ops, "_patches", failing_patches)
        monkeypatch.setattr(ops, "_usable_cpus", lambda: cpus)
        x = np.arange(4, dtype=np.float64)[:, None, None, None] * np.ones((4, 2, 6, 6))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="image 1$"):
            ops.conv2d(x, conv_params(np.ones((1, 2, 3, 3)), np.zeros(1), 1, 1))
        assert wait_for_threads(before)


class TestUpsample:
    def test_single_pixel(self):
        y = ops.nearest_upsample2x(from_values([1, 1, 1, 1], [1.0]))
        assert y.ravel().tolist() == [1, 1, 1, 1]

    def test_block_replication(self):
        y = ops.nearest_upsample2x(from_values([1, 1, 2, 2], [1, 2, 3, 4]))
        expect = [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ]
        assert y[0, 0].tolist() == expect

    def test_output_is_a_fresh_c_contiguous_array(self):
        x = rand_f64((2, 3, 5, 4), seed=64).transpose(0, 1, 3, 2)  # not contiguous
        y = ops.nearest_upsample2x(x)
        assert y.flags.c_contiguous and not np.shares_memory(x, y)
        want = np.ascontiguousarray(x.repeat(2, axis=2).repeat(2, axis=3))
        assert y.tobytes() == want.tobytes()

    def test_vjp_block_sums(self):
        up = from_values([1, 1, 2, 2], [1, 2, 3, 4])
        assert ops.nearest_upsample2x_vjp(up).item() == 10.0
        for dtype in (np.float32, np.float64):  # bit-equal to the reference block sum
            up = rand_f64((2, 3, 6, 8), seed=63).astype(dtype)
            ref = up.reshape(2, 3, 3, 2, 4, 2).sum(axis=(3, 5))
            assert ops.nearest_upsample2x_vjp(up).tobytes() == ref.tobytes()
        with pytest.raises(ShapeError, match="even"):
            ops.nearest_upsample2x_vjp(np.zeros((1, 1, 3, 2)))


class TestRelu:
    def test_forward(self):
        y = ops.relu(from_values([3], [-1, 0, 2]))
        assert y.tolist() == [0, 0, 2]

    def test_vjp_masks(self):
        x = from_values([2], [-1, 2])
        up = from_values([2], [5, 5])
        assert ops.relu_vjp(x, up).tolist() == [0, 5]

    def test_zero_gets_zero_gradient(self):
        x = from_values([1], [0.0])
        assert ops.relu_vjp(x, from_values([1], [7.0])).item() == 0.0

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(width=32)),
                    min_size=1, max_size=16),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_vjp_reads_input_or_output(self, values, dtype):
        # the backward feeds relu_vjp relu's output instead of its input
        x = np.array(values, dtype=dtype)
        up = np.arange(1, x.size + 1, dtype=dtype)
        assert ops.relu_vjp(ops.relu(x), up).tobytes() == ops.relu_vjp(x, up).tobytes()


class TestSoftmax:
    def test_symmetry(self):
        y = ops.softmax_channels(from_values([1, 2, 1, 1], [0, 0]))
        assert y.ravel().tolist() == [0.5, 0.5]

    def test_closed_form(self):
        y = ops.softmax_channels(from_values([1, 2, 1, 1], [math.log(2), 0]))
        assert y.ravel() == pytest.approx([2 / 3, 1 / 3], abs=1e-7)

    def test_large_logits_stable(self):
        y = ops.softmax_channels(from_values([1, 2, 1, 1], [1000, 1000]))
        assert np.isfinite(y).all()
        assert y.ravel().tolist() == [0.5, 0.5]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_channel_sums_and_bounds(self, seed, c):
        x = (rand_f64((2, c, 3, 3), seed=seed, lo=-30, hi=30)).astype(np.float32)
        y = ops.softmax_channels(x)
        assert ((y >= 0) & (y <= 1)).all()
        assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-6


class TestShapeLaws:
    @given(
        st.sampled_from([1, 3]),  # kernel
        st.integers(1, 3), st.integers(1, 2), st.integers(6, 30), st.integers(6, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_conv_shape_formula(self, k, cin, n, h, w):
        stride, pad = (1, 0) if k == 1 else (2, 1)
        x = np.zeros((n, cin, h, w), np.float32)
        p = conv_params(np.zeros((2, cin, k, k), np.float32), np.zeros(2, np.float32),
                        stride=stride, padding=pad)
        y = ops.conv2d(x, p)
        assert y.shape == (
            n, 2,
            (h + 2 * pad - k) // stride + 1,
            (w + 2 * pad - k) // stride + 1,
        )

    @given(st.integers(1, 3), st.integers(2, 12), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_pool_tconv_upsample_shapes(self, c, h2, w2):
        h, w = 2 * h2, 2 * w2
        x = np.zeros((1, c, h, w), np.float32)
        assert ops.maxpool2x2(x).shape == (1, c, h2, w2)
        assert ops.nearest_upsample2x(x).shape == (1, c, 2 * h, 2 * w)
        p = conv_params(np.zeros((2, c, 2, 2), np.float32), np.zeros(2, np.float32),
                        stride=2)
        assert ops.transposed_conv2d(x, p).shape == (1, 2, 2 * h, 2 * w)
