"""Layer primitives for RFBSNet: forwards, vector-Jacobian products, and a
finite-difference gradient checker.

Conventions: tensors are NCHW, convolution is cross-correlation (no kernel
flip), kernels are square, and one int stride and one int padding apply to
both spatial axes, so Hout = floor((H + 2*pad - K)/stride) + 1. The network
uses conv k3 s{1,2} p1, conv k1 s1 p0, tconv k2 s2 and max-pool 2x2 s2; the
gradient suite adds conv k3 s{1,2} p0 and the tconv adjoint conv k2 s2 p0.
Nothing else is supported. All four conv ops (conv2d, transposed_conv2d and
their VJPs) run one image at a time in one GEMM layout, a shifted-row patch
matrix: K*K contiguous column slices of the zero-padded, channel-major image
split into its stride phases (see _shifted_rows); at k2 s2 each tap is one
whole phase. The images of a batch run on every usable CPU (each_image):
each image writes only its own output, and the VJPs sum the per-image weight
gradients in index order once all images are done, so no output depends on
the CPU count. BLAS itself stays on one thread. Every forward is
deterministic (bit-identical for identical inputs), ReLU's gradient at
exactly 0 is 0, and the max-pool VJP recomputes each window's winner from
its input, breaking ties to the first element in row-major window order.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Prng
from .errors import NumericsError, ShapeError, UnsupportedConfigError

# (kernel, stride, pad) triples accepted; p0 at k3 serves the gradient suite,
# and conv k2 s2 the adjoint pairing with transposed_conv2d.
_CONV_CONFIGS = {(3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0), (1, 1, 0), (2, 2, 0)}
_TCONV_CONFIGS = {(2, 2, 0)}


@dataclass
class Conv2dParams:
    """Weights for conv2d / transposed_conv2d.

    weight is (Cout, Cin, K, K) for both ops; for the transposed direction
    Cin is the *input* channel count of the op.
    """

    weight: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        self.stride = int(self.stride)
        self.padding = int(self.padding)
        if self.weight.ndim != 4:
            raise ShapeError(f"weight must be (Cout, Cin, K, K), got {self.weight.shape}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match Cout {self.weight.shape[0]}"
            )
        if self.weight.dtype != self.bias.dtype:
            raise ShapeError("weight/bias dtype mismatch")

    @property
    def cout(self):
        return self.weight.shape[0]

    @property
    def cin(self):
        return self.weight.shape[1]


def _check_input(x, p, op, configs):
    """Refuse a (kernel, stride, padding) outside `configs` or an input that
    does not fit the weights; returns the kernel extent."""
    k, kw = p.weight.shape[2:]
    if k != kw or (k, p.stride, p.padding) not in configs:
        raise UnsupportedConfigError(
            f"{op}: k{k}x{kw} s{p.stride} p{p.padding} is outside the supported "
            f"set (k, s, p) in {sorted(configs)}"
        )
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{op} input must be a rank-4 NCHW array")
    if x.dtype != p.weight.dtype:
        raise ShapeError(f"{op}: input dtype {x.dtype} != weight dtype {p.weight.dtype}")
    if x.shape[1] != p.cin:
        raise ShapeError(f"{op}: input has {x.shape[1]} channels, weights expect {p.cin}")
    return k


def _conv_geometry(x, p, op):
    """Checks a conv2d / conv2d_vjp call; returns (k, hout, wout)."""
    k = _check_input(x, p, op, _CONV_CONFIGS)
    hout, wout = ((e + 2 * p.padding - k) // p.stride + 1 for e in x.shape[2:])
    if hout < 1 or wout < 1:
        raise ShapeError(f"{op}: non-positive output extent for input {x.shape}")
    return k, hout, wout


def _shifted_rows(h, w, k, s, pad):
    """Layout of the shifted-row patch matrix of one image (after Anderson et
    al., "Low-memory GEMM-based convolution algorithms", arXiv:1709.03395).

    The image is zero-padded, channel-major, to (Cin, s*Hq, s*Wq) and split
    into its s*s stride phases, each flattened to Hq*Wq columns. Output pixel
    (i, j) is column m = i*Wq + j, and kernel tap (a, b) reads column
    m + (a//s)*Wq + b//s of phase (a%s)*s + b%s. So the patch matrix is K*K
    contiguous column slices of width `span`, and the GEMM's output columns
    are already image rows of Hq x Wq per channel, of which the first
    Hout x Wout are kept; the other columns wrap to the next row and are
    dropped (forward) or get zero upstream (VJP). Returns (hq, wq, span,
    taps) with taps [(phase, column offset)] in row-major (a, b) order.
    """
    hq, wq = -(-(h + 2 * pad) // s), -(-(w + 2 * pad) // s)
    reach = (k - 1) // s
    span = hq * wq - reach * wq - reach
    taps = [((a % s) * s + b % s, (a // s) * wq + b // s)
            for a in range(k) for b in range(k)]
    return hq, wq, span, taps


def _channel_major(a, pad, hp, wp):
    """One image a (C, H, W) as a (C, hp, wp) array holding a at offset
    (pad, pad) and zeros elsewhere; no copy when no zeros are needed."""
    c, h, w = a.shape
    if (hp, wp) == (h, w):
        return a
    out = np.zeros((c, hp, wp), dtype=a.dtype)
    out[:, pad:pad + h, pad:pad + w] = a
    return out


def _patches(x, s, pad, hq, wq, span, taps, cols):
    """(Cin*K*K, span) patch matrix of one image x (Cin, H, W), written into
    `cols`, with rows in the weight's own (cin, a, b) order, so the weight
    needs no reorder; at k == 1 it is the image itself and `cols` is unused."""
    c = x.shape[0]
    xp = _channel_major(x, pad, s * hq, s * wq)
    ph = xp.reshape(c, hq, s, wq, s).transpose(2, 4, 0, 1, 3)
    ph = ph.reshape(s * s, c, hq * wq)  # no copy at s == 1
    if len(taps) == 1:
        return ph[0]
    rows = cols.reshape(c, len(taps), span)
    for t, (i, off) in enumerate(taps):
        rows[:, t] = ph[i, :, off:off + span]
    return cols


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def each_image(n, fn, *scratch, workers=None):
    """[fn(i, *buffers) for i in range(n)], with image i run by participant
    i % W of W = min(n, workers, else the usable CPUs): the calling thread is
    participant 0 and the other W - 1 run on a pool that lives for this call
    only. Each participant gets its own buffers, one per zero-argument
    allocator in `scratch`, allocated here in the calling thread. fn must
    write only what belongs to image i. A participant stops at its first
    error; once all have stopped, the error of the lowest failing image is
    raised, so the same error surfaces at any W. At n <= 1 nothing is started
    and the CPU count is not asked; at n == 0 nothing is allocated."""
    workers = n if n < 2 else min(n, workers or _usable_cpus())
    buffers = [[make() for make in scratch] for _ in range(workers)]
    results, failed = [None] * n, {}  # failed: image index -> its error

    def share(j):
        for i in range(j, n, workers):
            try:
                results[i] = fn(i, *buffers[j])
            except Exception as e:
                failed[i] = e
                return

    if workers > 1:
        with ThreadPoolExecutor(workers - 1) as pool:
            others = pool.map(share, range(1, workers))
            share(0)
            list(others)  # reads every result, so no uncaught error is lost
    elif workers:
        share(0)
    if failed:
        raise failed[min(failed)]
    return results


def conv2d(x, p):
    """Cross-correlation plus bias; output (N, Cout, Hout, Wout). Runs one
    GEMM per image, so each image's patch matrix stays small."""
    k, hout, wout = _conv_geometry(x, p, "conv2d")
    n, cin, h, w = x.shape
    s, pad = p.stride, p.padding
    hq, wq, span, taps = _shifted_rows(h, w, k, s, pad)
    wmat = p.weight.reshape(p.cout, -1)
    bias = p.bias[:, None, None]
    out = np.empty((n, p.cout, hout, wout), dtype=x.dtype)

    def one(i, y, cols=None):
        cols = _patches(x[i], s, pad, hq, wq, span, taps, cols)
        np.matmul(wmat, cols, out=y[:, :span])
        np.add(y.reshape(p.cout, hq, wq)[:, :hout, :wout], bias, out=out[i])

    scratch = [partial(np.empty, (p.cout, hq * wq), x.dtype)]
    if k > 1:
        scratch.append(partial(np.empty, (cin * k * k, span), x.dtype))
    each_image(n, one, *scratch)
    return out


def conv2d_vjp(x, p, upstream):
    """Gradients of sum(upstream * conv2d(x, p)) w.r.t. (x, weight, bias).
    Runs per image like conv2d; dweight sums the images in index order."""
    k, hout, wout = _conv_geometry(x, p, "conv2d_vjp")
    expect = (x.shape[0], p.cout, hout, wout)
    if upstream.shape != expect or upstream.dtype != x.dtype:
        raise ShapeError(f"conv2d_vjp: upstream must be {expect} {x.dtype}, got "
                         f"{upstream.shape} {upstream.dtype}")
    n, cin, h, w = x.shape
    s, pad = p.stride, p.padding
    hq, wq, span, taps = _shifted_rows(h, w, k, s, pad)
    wmat = p.weight.reshape(p.cout, -1)
    dx = np.empty(x.shape, dtype=x.dtype)

    def one(i, cols=None):
        """Writes dx[i]; returns image i's weight gradient."""
        cols = _patches(x[i], s, pad, hq, wq, span, taps, cols)
        # zero upstream on the columns conv2d drops
        up = _channel_major(upstream[i], 0, hq, wq).reshape(p.cout, -1)[:, :span]
        dweight = (cols @ up.T).T
        if k == 1:  # s1 p0: the GEMM's output is dx[i] itself
            np.matmul(wmat.T, up, out=dx[i].reshape(cin, -1))
            return dweight
        dcols = np.matmul(wmat.T, up, out=cols).reshape(cin, k * k, span)
        dph = np.zeros((s * s, cin, hq * wq), dtype=x.dtype)
        for t, (j, off) in enumerate(taps):
            dph[j, :, off:off + span] += dcols[:, t]
        dxp = dph.reshape(s, s, cin, hq, wq).transpose(2, 3, 0, 4, 1)
        dxp = dxp.reshape(cin, s * hq, s * wq)
        dx[i] = dxp[:, pad:pad + h, pad:pad + w]
        return dweight

    # one buffer per participant, holding first the patches, then dcols
    scratch = [partial(np.empty, (cin * k * k, span), x.dtype)] if k > 1 else []
    dweight = np.zeros(wmat.shape, dtype=x.dtype)
    for part in each_image(n, one, *scratch):  # in image index order
        dweight += part
    dbias = upstream.sum(axis=(0, 2, 3))
    return dx, dweight.reshape(p.weight.shape), dbias


def _pool_taps(x, op):
    """The four strided views x[:, :, a::2, b::2] that hold every 2x2 window's
    elements, in row-major window order."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{op} input must be a rank-4 NCHW array")
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"{op} requires even H and W, got {x.shape[2]}x{x.shape[3]}")
    return [x[:, :, a::2, b::2] for a in (0, 1) for b in (0, 1)]


def _pool_max(taps):
    return np.maximum(np.maximum(taps[0], taps[1]), np.maximum(taps[2], taps[3]))


def maxpool2x2(x):
    """Non-overlapping 2x2 max pooling."""
    return _pool_max(_pool_taps(x, "maxpool2x2"))


def maxpool2x2_vjp(x, upstream):
    """Route each upstream value to its window's first row-major maximum of
    the pooled input x, zeros elsewhere; the winners are recomputed from x."""
    taps = _pool_taps(x, "maxpool2x2_vjp")
    y = _pool_max(taps)
    if upstream.shape != y.shape:
        raise ShapeError(f"maxpool2x2_vjp: upstream {upstream.shape} vs pooled {y.shape}")
    dx = np.zeros(x.shape, dtype=upstream.dtype)
    zero = np.zeros((), dtype=upstream.dtype)
    pending = np.ones(y.shape, dtype=bool)  # windows whose winner is not placed yet
    for i, tap in enumerate(taps):
        won = pending & (tap == y)
        dx[:, :, i // 2 :: 2, i % 2 :: 2] = np.where(won, upstream, zero)
        pending &= ~won
    return dx


def transposed_conv2d(x, p):
    """Learnable 2x upsampling: each input pixel scatters weight*x into a 2x2
    block (non-overlapping because k = s = 2), then bias is added. One GEMM
    per image; its rows (cout, a, b) hold the output's stride phases."""
    _check_input(x, p, "transposed_conv2d", _TCONV_CONFIGS)
    n, cin, h, w = x.shape
    wmat = p.weight.transpose(1, 0, 2, 3).reshape(cin, -1)
    bias = p.bias[:, None, None]
    out = np.empty((n, p.cout, 2 * h, 2 * w), dtype=x.dtype)

    def one(i, y):
        np.matmul(wmat.T, x[i].reshape(cin, -1), out=y)
        taps = y.reshape(p.cout, 4, h, w)
        for t in range(4):  # tap (a, b) = divmod(t, 2)
            np.add(taps[:, t], bias, out=out[i, :, t // 2::2, t % 2::2])

    each_image(n, one, partial(np.empty, (4 * p.cout, h * w), x.dtype))
    return out


def transposed_conv2d_vjp(x, p, upstream):
    """Gradients of sum(upstream * transposed_conv2d(x, p)): conv2d k2 s2 p0
    of upstream, per image; dweight sums the images in index order."""
    _check_input(x, p, "transposed_conv2d_vjp", _TCONV_CONFIGS)
    n, cin, h, w = x.shape
    expect = (n, p.cout, 2 * h, 2 * w)
    if upstream.shape != expect or upstream.dtype != x.dtype:
        raise ShapeError(f"transposed_conv2d_vjp: upstream must be {expect} "
                         f"{x.dtype}, got {upstream.shape} {upstream.dtype}")
    rows = _shifted_rows(2 * h, 2 * w, 2, 2, 0)  # each tap is one whole phase
    wmat = p.weight.transpose(1, 0, 2, 3).reshape(cin, -1)
    dx = np.empty(x.shape, dtype=x.dtype)

    def one(i, cols):
        """Writes dx[i]; returns image i's weight gradient."""
        cols = _patches(upstream[i], 2, 0, *rows, cols)
        np.matmul(wmat, cols, out=dx[i].reshape(cin, -1))
        return (cols @ x[i].reshape(cin, -1).T).T

    dweight = np.zeros(wmat.shape, dtype=x.dtype)
    for part in each_image(n, one, partial(np.empty, (4 * p.cout, h * w), x.dtype)):
        dweight += part  # in image index order
    dweight = dweight.reshape(cin, p.cout, 2, 2).transpose(1, 0, 2, 3)
    return dx, dweight, upstream.sum(axis=(0, 2, 3))


def nearest_upsample2x(x):
    """Replicate every pixel into a 2x2 block."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError("nearest_upsample2x input must be a rank-4 NCHW array")
    return x.repeat(2, axis=2).repeat(2, axis=3)


def nearest_upsample2x_vjp(upstream):
    """Adjoint of replication: each 2x2 upstream block sums to one gradient."""
    t = _pool_taps(upstream, "nearest_upsample2x_vjp")
    return (t[0] + t[1]) + (t[2] + t[3])


def relu(x):
    return np.maximum(x, 0)


def relu_vjp(x, upstream):
    """Mask upstream where x <= 0 (gradient at exactly 0 is defined as 0).
    x may be relu's input or its output: x > 0 exactly where relu(x) > 0,
    for every x including -0.0 and NaN, so both give the same bits."""
    if x.shape != upstream.shape:
        raise ShapeError(f"relu_vjp: shape mismatch {x.shape} vs {upstream.shape}")
    return np.where(x > 0, upstream, np.zeros((), dtype=upstream.dtype))


def softmax_channels(x):
    """Per-pixel softmax over the channel axis with max-subtraction."""
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError("softmax_channels input must be a rank-4 NCHW array")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_channels_vjp(y, upstream):
    """VJP expressed through the softmax output y."""
    if y.shape != upstream.shape:
        raise ShapeError(f"softmax vjp: shape mismatch {y.shape} vs {upstream.shape}")
    dot = (upstream * y).sum(axis=1, keepdims=True)
    return y * (upstream - dot)


# -- finite-difference gradient checking --------------------------------------


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference check."""

    op: str
    tolerance: float
    max_rel_error: float = 0.0
    per_input: dict = field(default_factory=dict)
    coords_checked: int = 0

    @property
    def passed(self):
        return self.max_rel_error <= self.tolerance


def _rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def _sample_coords(size, max_coords, prng):
    if max_coords is None or size <= max_coords:
        return range(size)
    picked = set()
    while len(picked) < max_coords:
        picked.add(prng.next_u64() % size)
    return sorted(picked)


def grad_check(
    op,
    f,
    vjp,
    inputs,
    input_names=None,
    upstream=None,
    tol=1e-6,
    max_coords=None,
    seed=0,
):
    """Compare vjp-reported gradients of sum(upstream * f(*inputs)) against
    central finite differences, coordinate by coordinate.

    All inputs must be float64. `f(*inputs)` returns an array, possibly of a
    wider float dtype; the central differences are taken in that dtype.
    `vjp(*inputs, upstream)` returns one gradient array per input. With
    max_coords set, a seeded subset of coordinates per input is checked
    instead of every coordinate.
    """
    inputs = [np.asarray(v) for v in inputs]
    for v in inputs:
        if v.dtype != np.float64:
            raise ShapeError("grad_check requires float64 inputs")
    if input_names is None:
        input_names = [f"input{i}" for i in range(len(inputs))]
    y = f(*inputs)
    if not np.isfinite(y).all():
        raise NumericsError(f"grad_check({op}): non-finite forward output")
    prng = Prng(seed)
    if upstream is None:
        upstream = (prng.fill_f64(y.size).reshape(y.shape) * 2.0 - 1.0).astype(
            np.float64
        )
    analytic = vjp(*inputs, upstream)
    report = GradCheckReport(op=op, tolerance=tol)
    h = 1e-5  # central-difference step

    def scalar(args):  # in f's output dtype, which may be wider than f64
        return np.sum(upstream * f(*args))

    for idx, (name, value, grad) in enumerate(zip(input_names, inputs, analytic)):
        if not np.isfinite(grad).all():
            raise NumericsError(f"grad_check({op}): non-finite gradient for {name}")
        worst = 0.0
        work = [v.copy() for v in inputs]
        for k in _sample_coords(value.size, max_coords, prng):
            orig = work[idx].flat[k]
            work[idx].flat[k] = orig + h
            plus = scalar(work)
            work[idx].flat[k] = orig - h
            minus = scalar(work)
            work[idx].flat[k] = orig
            numeric = float((plus - minus) / (2.0 * h))
            worst = max(worst, _rel_err(float(grad.flat[k]), numeric))
            report.coords_checked += 1
        report.per_input[name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
