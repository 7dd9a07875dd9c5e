"""The op-level and whole-network gradient check suites.

Everything runs in float64. Op-level checks cover every supported layer
configuration exhaustively (all coordinates); the whole-network check runs
the desk model on a 16x16 input and samples coordinates from every parameter
tensor. Max-pool inputs are random floats (no ties) and ReLU inputs are kept
away from the kink, per the subgradient conventions.
"""

import numpy as np

from . import ops
from .data import Prng
from .model import backward, build_rfbsnet_desk, forward, init_params
from .training import soft_dice_loss

OP_TOL = 1e-6
NET_TOL = 1e-5


def _rand(prng, shape, lo=-1.0, hi=1.0):
    n = int(np.prod(shape))
    return (lo + (hi - lo) * prng.fill_f64(n)).reshape(shape)


def _conv_entry(name, xshape, cout, kernel, stride, padding, seed):
    prng = Prng(seed)
    x = _rand(prng, xshape)
    cin = xshape[1]
    weight = _rand(prng, (cout, cin, kernel, kernel))
    bias = _rand(prng, (cout,))

    def f(x_, w_, b_):
        p = ops.Conv2dParams(w_, b_, stride=stride, padding=padding)
        return ops.conv2d(x_, p)

    def vjp(x_, w_, b_, up):
        p = ops.Conv2dParams(w_, b_, stride=stride, padding=padding)
        return ops.conv2d_vjp(x_, p, up)

    return lambda tol: ops.grad_check(
        name, f, vjp, [x, weight, bias], ["x", "weight", "bias"], tol=tol, seed=seed
    )


def _tconv_entry(name, xshape, cout, seed):
    prng = Prng(seed)
    x = _rand(prng, xshape)
    weight = _rand(prng, (cout, xshape[1], 2, 2))
    bias = _rand(prng, (cout,))

    def f(x_, w_, b_):
        return ops.transposed_conv2d(x_, ops.Conv2dParams(w_, b_, stride=2))

    def vjp(x_, w_, b_, up):
        return ops.transposed_conv2d_vjp(x_, ops.Conv2dParams(w_, b_, stride=2), up)

    return lambda tol: ops.grad_check(
        name, f, vjp, [x, weight, bias], ["x", "weight", "bias"], tol=tol, seed=seed
    )


def _maxpool_entry(name, xshape, seed):
    x = _rand(Prng(seed), xshape)  # continuous draws: tie probability ~0

    def vjp(x_, up):
        return (ops.maxpool2x2_vjp(x_, up),)

    return lambda tol: ops.grad_check(
        name, ops.maxpool2x2, vjp, [x], ["x"], tol=tol, seed=seed
    )


def _relu_entry(name, xshape, seed):
    # |x| in [0.2, 1]: finite differences stay on one side of the kink
    prng = Prng(seed)
    mag = _rand(prng, xshape, 0.2, 1.0)
    sign = np.where(_rand(prng, xshape) > 0.0, 1.0, -1.0)
    x = mag * sign

    def vjp(x_, up):
        return (ops.relu_vjp(x_, up),)

    return lambda tol: ops.grad_check(
        name, ops.relu, vjp, [x], ["x"], tol=tol, seed=seed
    )


def _upsample_entry(name, xshape, seed):
    x = _rand(Prng(seed), xshape)

    def vjp(x_, up):
        return (ops.nearest_upsample2x_vjp(up),)

    return lambda tol: ops.grad_check(
        name, ops.nearest_upsample2x, vjp, [x], ["x"], tol=tol, seed=seed
    )


def _softmax_entry(name, xshape, seed):
    x = _rand(Prng(seed), xshape, -2.0, 2.0)

    def vjp(x_, up):
        return (ops.softmax_channels_vjp(ops.softmax_channels(x_), up),)

    return lambda tol: ops.grad_check(
        name, ops.softmax_channels, vjp, [x], ["x"], tol=tol, seed=seed
    )


def _dice_loss_entry(name, seed):
    prng = Prng(seed)
    logits = _rand(prng, (2, 2, 4, 4), -1.5, 1.5)
    prob = ops.softmax_channels(logits)
    target = (_rand(prng, (2, 4, 4)) > 0.0).astype(np.float64)

    def f(prob_):
        return np.array([soft_dice_loss(prob_, target)[0]])

    def vjp(prob_, up):
        _, dprob = soft_dice_loss(prob_, target)
        return (dprob * up[0],)

    return lambda tol: ops.grad_check(
        name, f, vjp, [prob], ["prob"], upstream=np.ones(1), tol=tol, seed=seed
    )


def op_checks(tol=OP_TOL):
    """Run every op-level check; returns the list of GradCheckReports."""
    entries = [
        _conv_entry("conv2d k3 s2 p1", (1, 2, 5, 5), cout=3, kernel=3, stride=2,
                    padding=1, seed=11),
        _conv_entry("conv2d k3 s1 p1", (1, 2, 6, 6), cout=2, kernel=3, stride=1,
                    padding=1, seed=12),
        _conv_entry("conv2d k3 s1 p0", (1, 2, 5, 5), cout=2, kernel=3, stride=1,
                    padding=0, seed=13),
        _conv_entry("conv2d k1 s1 p0", (1, 3, 4, 4), cout=2, kernel=1, stride=1,
                    padding=0, seed=14),
        # four stride phases, odd extents padded up to even, and a batch of two
        _conv_entry("conv2d k3 s2 p0", (2, 2, 7, 5), cout=2, kernel=3, stride=2,
                    padding=0, seed=21),
        _conv_entry("conv2d k2 s2 p0", (1, 2, 5, 7), cout=3, kernel=2, stride=2,
                    padding=0, seed=22),
        _tconv_entry("transposed_conv2d k2 s2", (1, 3, 4, 4), cout=2, seed=15),
        _maxpool_entry("maxpool2x2", (1, 2, 6, 6), seed=16),
        _relu_entry("relu", (1, 2, 5, 5), seed=17),
        _upsample_entry("nearest_upsample2x", (1, 2, 3, 3), seed=18),
        _softmax_entry("softmax_channels", (1, 3, 4, 4), seed=19),
        _dice_loss_entry("soft_dice_loss", seed=20),
    ]
    return [entry(tol) for entry in entries]


def network_check(tol=NET_TOL, coords_per_tensor=6, seed=7):
    """Finite-difference check of backward() over every parameter tensor of
    the desk model (f64, 16x16 input, sampled coordinates per tensor)."""
    spec = build_rfbsnet_desk()
    params = init_params(spec, seed=seed, dtype=np.float64)
    names = params.names()
    prng = Prng(seed ^ 0xD1CE)
    x = _rand(prng, (1, 1, 16, 16), 0.0, 1.0)
    upstream = _rand(prng, (1, spec.num_classes, 16, 16))

    def run(thetas, keep_intermediates):
        for name, theta in zip(names, thetas):
            params[name] = theta
        return forward(spec, params, x, keep_intermediates)

    def vjp(*args):
        grads = backward(run(args[:-1], True)[1], args[-1])
        return [grads[name] for name in names]

    return ops.grad_check(
        "rfbsnet-desk network", lambda *thetas: run(thetas, False)[0], vjp,
        [params[name] for name in names], names, upstream=upstream, tol=tol,
        max_coords=coords_per_tensor, seed=prng.state,  # coordinates continue this stream
    )


def corrupted_conv_check(tol=OP_TOL, seed=11):
    """Negative control: conv vjp with dweight scaled by 1.1 must fail."""
    prng = Prng(seed)
    x = _rand(prng, (1, 2, 5, 5))
    weight = _rand(prng, (3, 2, 3, 3))
    bias = _rand(prng, (3,))

    def f(x_, w_, b_):
        return ops.conv2d(x_, ops.Conv2dParams(w_, b_, stride=2, padding=1))

    def vjp(x_, w_, b_, up):
        dx, dw, db = ops.conv2d_vjp(
            x_, ops.Conv2dParams(w_, b_, stride=2, padding=1), up
        )
        return dx, dw * 1.1, db

    return ops.grad_check(
        "negative control (dweight +10%)", f, vjp, [x, weight, bias],
        ["x", "weight", "bias"], tol=tol, seed=seed,
    )


def run_suite(scale="small", net_tol=NET_TOL, op_tol=OP_TOL, corrupt=False):
    """Op checks plus the network check; `corrupt` adds a deliberately broken
    vjp as a negative control (the suite must then fail)."""
    reports = op_checks(tol=op_tol)
    coords = 6 if scale == "small" else 24
    reports.append(network_check(tol=net_tol, coords_per_tensor=coords))
    if corrupt:
        reports.append(corrupted_conv_check(tol=op_tol))
    return reports
