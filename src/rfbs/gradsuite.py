"""The op-level and whole-network gradient check suites.

Op-level checks run in float64 and cover every supported layer
configuration exhaustively (all coordinates). The whole-network check runs
the desk model on a 16x16 input, samples coordinates from every parameter
tensor, and takes its finite differences in extended precision. Max-pool
inputs are random floats (no ties) and ReLU inputs are kept away from the
kink, per the subgradient conventions.
"""

import numpy as np

from . import ops
from .data import Prng
from .model import backward, build_rfbsnet_desk, forward, init_params
from .training import soft_dice_loss

OP_TOL = 1e-6
NET_TOL = 1e-5
_NET_SEED = 7


def _rand(prng, shape, lo=-1.0, hi=1.0):
    n = int(np.prod(shape))
    return (lo + (hi - lo) * prng.fill_f64(n)).reshape(shape)


def _conv_check(op, vjp, name, xshape, cout, kernel, stride, padding, seed):
    """Check a conv-like op pair (`op(x, p)`, `vjp(x, p, upstream)`) on x,
    weight and bias drawn in that order from Prng(seed)."""
    prng = Prng(seed)
    inputs = [
        _rand(prng, xshape),
        _rand(prng, (cout, xshape[1], kernel, kernel)),
        _rand(prng, (cout,)),
    ]

    def params(w, b):
        return ops.Conv2dParams(w, b, stride=stride, padding=padding)

    return ops.grad_check(
        name, lambda x, w, b: op(x, params(w, b)),
        lambda x, w, b, up: vjp(x, params(w, b), up),
        inputs, ["x", "weight", "bias"], tol=OP_TOL, seed=seed,
    )


def _unary_check(name, op, vjp, draw, seed):
    """Check a one-input op on x = draw(Prng(seed)); `vjp(x, upstream)` is dx."""
    return ops.grad_check(
        name, op, lambda x, up: (vjp(x, up),), [draw(Prng(seed))], ["x"],
        tol=OP_TOL, seed=seed,
    )


def _off_kink(prng, shape):
    # |x| in [0.2, 1]: finite differences stay on one side of relu's kink
    mag = _rand(prng, shape, 0.2, 1.0)
    return mag * np.where(_rand(prng, shape) > 0.0, 1.0, -1.0)


def _dice_loss_check(name, seed):
    prng = Prng(seed)
    logits = _rand(prng, (2, 2, 4, 4), -1.5, 1.5)
    prob = ops.softmax_channels(logits)
    target = (_rand(prng, (2, 4, 4)) > 0.0).astype(np.float64)

    def f(prob_):
        return np.array([soft_dice_loss(prob_, target)[0]])

    def vjp(prob_, up):
        _, dprob = soft_dice_loss(prob_, target)
        return (dprob * up[0],)

    return ops.grad_check(
        name, f, vjp, [prob], ["prob"], upstream=np.ones(1), tol=OP_TOL, seed=seed
    )


# (name, xshape, cout, kernel, stride, padding, seed) of each conv2d check
_CONV2D_CHECKS = [
    ("conv2d k3 s2 p1", (1, 2, 5, 5), 3, 3, 2, 1, 11),
    ("conv2d k3 s1 p1", (1, 2, 6, 6), 2, 3, 1, 1, 12),
    ("conv2d k3 s1 p0", (1, 2, 5, 5), 2, 3, 1, 0, 13),
    ("conv2d k1 s1 p0", (1, 3, 4, 4), 2, 1, 1, 0, 14),
    # four stride phases, odd extents padded up to even, and a batch of two
    ("conv2d k3 s2 p0", (2, 2, 7, 5), 2, 3, 2, 0, 21),
    ("conv2d k2 s2 p0", (1, 2, 5, 7), 3, 2, 2, 0, 22),
]
# the same fields for transposed_conv2d; the batch of two sums dweight per image
_TCONV_CHECKS = [
    ("transposed_conv2d k2 s2", (1, 3, 4, 4), 2, 2, 2, 0, 15),
    ("transposed_conv2d k2 s2 batch 2", (2, 3, 3, 5), 2, 2, 2, 0, 23),
]


def op_checks():
    """Run every op-level check; returns the list of GradCheckReports."""
    reports = [_conv_check(ops.conv2d, ops.conv2d_vjp, *c) for c in _CONV2D_CHECKS]
    reports += [_conv_check(ops.transposed_conv2d, ops.transposed_conv2d_vjp, *c)
                for c in _TCONV_CHECKS]
    unary = [
        # continuous draws: tie probability ~0
        ("maxpool2x2", ops.maxpool2x2, ops.maxpool2x2_vjp,
         lambda prng: _rand(prng, (1, 2, 6, 6)), 16),
        ("relu", ops.relu, ops.relu_vjp,
         lambda prng: _off_kink(prng, (1, 2, 5, 5)), 17),
        ("nearest_upsample2x", ops.nearest_upsample2x,
         lambda x, up: ops.nearest_upsample2x_vjp(up),
         lambda prng: _rand(prng, (1, 2, 3, 3)), 18),
        ("softmax_channels", ops.softmax_channels,
         lambda x, up: ops.softmax_channels_vjp(ops.softmax_channels(x), up),
         lambda prng: _rand(prng, (1, 3, 4, 4), -2.0, 2.0), 19),
    ]
    reports += [_unary_check(*u) for u in unary]
    reports.append(_dice_loss_check("soft_dice_loss", 20))
    return reports


def network_check(tol=NET_TOL, coords_per_tensor=6):
    """Finite-difference check of the f64 backward() over every parameter
    tensor of the desk model (16x16 input, sampled coordinates per tensor).
    The finite-difference forwards run in np.longdouble, so their rounding
    noise sits far below NET_TOL even on gradients near 1e-6."""
    spec = build_rfbsnet_desk()
    params = init_params(spec, seed=_NET_SEED, dtype=np.float64)
    names = params.names()
    prng = Prng(_NET_SEED ^ 0xD1CE)
    x = _rand(prng, (1, 1, 16, 16), 0.0, 1.0)
    upstream = _rand(prng, (1, spec.num_classes, 16, 16))

    def run(thetas, dtype, keep_intermediates):
        for name, theta in zip(names, thetas):
            params[name] = theta.astype(dtype)
        return forward(spec, params, x.astype(dtype), keep_intermediates)

    def vjp(*args):
        grads = backward(run(args[:-1], np.float64, True)[1], args[-1])
        return [grads[name] for name in names]

    return ops.grad_check(
        "rfbsnet-desk network", lambda *thetas: run(thetas, np.longdouble, False)[0],
        vjp, [params[name] for name in names], names, upstream=upstream, tol=tol,
        max_coords=coords_per_tensor, seed=prng.state,  # coordinates continue this stream
    )


def corrupted_conv_check():
    """Negative control: the first conv2d check with dweight scaled by 1.1;
    it must fail."""

    def vjp(x, p, up):
        dx, dw, db = ops.conv2d_vjp(x, p, up)
        return dx, dw * 1.1, db

    return _conv_check(ops.conv2d, vjp, "negative control (dweight +10%)",
                       *_CONV2D_CHECKS[0][1:])


def run_suite(scale="small", net_tol=NET_TOL, corrupt=False):
    """Op checks plus the network check; `corrupt` adds a deliberately broken
    vjp as a negative control (the suite must then fail)."""
    reports = op_checks()
    coords = 6 if scale == "small" else 24
    reports.append(network_check(tol=net_tol, coords_per_tensor=coords))
    if corrupt:
        reports.append(corrupted_conv_check())
    return reports
