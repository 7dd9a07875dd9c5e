"""A float64 reference forward of an architecture graph, independent of
`rfbs.ops`, and the comparison the correctness gate applies to its output.

Convolution here is shift-and-accumulate over kernel taps (one tensordot per
tap) instead of the engine's im2col + GEMM, so a shared indexing bug would
have to be made twice in two different ways to go unseen.
"""

import numpy as np


def _conv(x, w, b, stride, pad):
    n, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hout = (h + 2 * pad - kh) // stride + 1
    wout = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, hout, wout))
    for a in range(kh):
        for c in range(kw):
            tap = xp[:, :, a : a + stride * hout : stride, c : c + stride * wout : stride]
            out += np.tensordot(w[:, :, a, c], tap, axes=([1], [1])).transpose(1, 0, 2, 3)
    return out + b[None, :, None, None]


def _tconv(x, w, b):
    """k2 s2 transposed conv; w is (Cout, Cin, 2, 2)."""
    n, _, h, wd = x.shape
    out = np.empty((n, w.shape[0], 2 * h, 2 * wd))
    for a in range(2):
        for c in range(2):
            out[:, :, a::2, c::2] = np.tensordot(
                w[:, :, a, c], x, axes=([1], [1])
            ).transpose(1, 0, 2, 3)
    return out + b[None, :, None, None]


def _softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_forward(spec, params, x):
    """Probability map of `spec` on x, computed in float64 throughout."""
    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
    values = {spec.input_name: np.asarray(x, dtype=np.float64)}
    for node in spec.nodes:
        ins = [values[s] for s in node.inputs]
        if node.kind == "conv":
            w, b = p[f"{node.name}.weight"], p[f"{node.name}.bias"]
            out = _conv(ins[0], w, b, node.stride, node.padding)
        elif node.kind == "tconv":
            out = _tconv(ins[0], p[f"{node.name}.weight"], p[f"{node.name}.bias"])
        elif node.kind == "maxpool":
            n, c, h, w = ins[0].shape
            out = ins[0].reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))
        elif node.kind == "relu":
            out = np.maximum(ins[0], 0.0)
        elif node.kind == "concat":
            out = np.concatenate(ins, axis=1)
        elif node.kind == "add":
            out = ins[0] + ins[1]
        elif node.kind == "upsample_nearest":
            out = ins[0].repeat(2, axis=2).repeat(2, axis=3)
        elif node.kind == "softmax":
            out = _softmax(ins[0])
        else:
            raise ValueError(f"reference forward has no rule for node kind {node.kind!r}")
        values[node.name] = out
    return values[spec.output_name]


def compare(prob, ref, foreground_class=1, max_diff=1e-4):
    """(max |prob - ref|, mask agreement, problem or None).

    A mask pixel may disagree only where the reference's foreground margin
    is within the observed probability error, i.e. where float32 rounding
    can flip the argmax.
    """
    diff = float(np.max(np.abs(prob.astype(np.float64) - ref)))
    mask = prob.argmax(axis=1) == foreground_class
    ref_mask = ref.argmax(axis=1) == foreground_class
    agree = float(np.mean(mask == ref_mask))
    if diff > max_diff:
        return diff, agree, f"max probability difference {diff:.3g} > {max_diff:g}"
    top2 = np.sort(ref, axis=1)
    margin = top2[:, -1] - top2[:, -2]
    if np.any((mask != ref_mask) & (margin > 2 * diff)):
        return diff, agree, "mask differs where the reference margin exceeds rounding"
    return diff, agree, None


def probability_problem(prob, tol=1e-6):
    """None if prob is finite, within [0, 1] and sums to 1 over channels
    within float32 rounding; otherwise what is wrong."""
    if not np.isfinite(prob).all():
        return "non-finite probability"
    if prob.min() < 0.0 or prob.max() > 1.0:
        return "probability outside [0, 1]"
    err = float(np.max(np.abs(prob.sum(axis=1, dtype=np.float64) - 1.0)))
    if err > tol:
        return f"channel sum deviates from 1 by {err:.3g}"
    return None
