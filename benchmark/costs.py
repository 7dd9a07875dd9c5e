"""The benchmark's own work counts for the convolution ops, from shapes alone.

FLOPs count one multiply-accumulate (MAC) as 2. A forward adds one bias add
per output element, so that its per-image count is comparable with
`rfbs.analysis`. A VJP runs two GEMMs of the forward's MAC count (input
gradient and weight gradient); bias-gradient sums are not counted.
`im2col_bytes` is the size of the patch matrix conv2d materializes; its VJP
builds the same matrix a second time.
"""

from collections import namedtuple

from rfbs import analysis, model

Cost = namedtuple("Cost", "flops im2col_bytes")


def _pair(v):
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def _conv_counts(x_shape, w_shape, stride, padding):
    """(MACs, output elements, patch-matrix elements) of a cross-correlation."""
    n, cin, h, w = x_shape
    cout, _, kh, kw = w_shape
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    rows = n * ((h + 2 * ph - kh) // sh + 1) * ((w + 2 * pw - kw) // sw + 1)
    return rows * cout * cin * kh * kw, rows * cout, rows * cin * kh * kw


def _tconv_counts(x_shape, w_shape):
    """(MACs, output elements) of the k2 s2 transposed conv: every input pixel
    scatters into one 2x2 output block, so each output element takes Cin MACs."""
    n, cin, h, w = x_shape
    outputs = n * w_shape[0] * 4 * h * w
    return outputs * cin, outputs


def conv_cost(x_shape, w_shape, stride, padding, itemsize):
    macs, outputs, cols = _conv_counts(x_shape, w_shape, stride, padding)
    return Cost(2 * macs + outputs, cols * itemsize)


def tconv_cost(x_shape, w_shape):
    macs, outputs = _tconv_counts(x_shape, w_shape)
    return Cost(2 * macs + outputs, 0)


# Call-time hooks for the tracer: the op's own arguments -> Cost.
def _conv2d_work(x, p, *_):
    return conv_cost(x.shape, p.weight.shape, p.stride, p.padding, x.itemsize)


def _conv2d_vjp_work(x, p, *_):
    macs, _, cols = _conv_counts(x.shape, p.weight.shape, p.stride, p.padding)
    return Cost(4 * macs, cols * x.itemsize)


def _tconv_work(x, p, *_):
    return tconv_cost(x.shape, p.weight.shape)


def _tconv_vjp_work(x, p, *_):
    return Cost(4 * _tconv_counts(x.shape, p.weight.shape)[0], 0)


OP_WORK = {
    "conv2d": _conv2d_work,
    "conv2d_vjp": _conv2d_vjp_work,
    "transposed_conv2d": _tconv_work,
    "transposed_conv2d_vjp": _tconv_vjp_work,
}


def node_costs(spec, input_shape):
    """Forward Cost per conv/tconv node for the given float32 input shape."""
    shapes = model.infer_shapes(spec, input_shape)
    out = {}
    for node in spec.nodes:
        x_shape = shapes[node.inputs[0]]
        w_shape = (node.cout, node.cin, node.kernel, node.kernel)
        if node.kind == "conv":
            out[node.name] = conv_cost(x_shape, w_shape, node.stride, node.padding, 4)
        elif node.kind == "tconv":
            out[node.name] = tconv_cost(x_shape, w_shape)
    return out


def analysis_disagreements(spec, size):
    """(node, ours, analysis) for every conv/tconv node at batch 1 where
    `rfbs.analysis.count_flops` reports another FLOP count than ours."""
    shape = (1, spec.in_channels, size, size)
    theirs = {n.name: n.flops for n in analysis.count_flops(spec, shape).nodes}
    return [
        (name, cost.flops, theirs[name])
        for name, cost in node_costs(spec, shape).items()
        if cost.flops != theirs[name]
    ]
