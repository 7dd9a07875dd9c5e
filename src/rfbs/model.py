"""RFBSNet as a declarative layer graph: the desk-scale builder,
forward/backward execution, shape inference (a forward on an empty batch, so
the ops alone decide every shape), parameter init, and checkpoints.

The desk topology instantiates the four-module design at fixed widths:

  downsampler   conv k3 s2 (1 -> 15) || maxpool 2x2, concatenated to 16
                channels at H/2, then ReLU
  shallow       one conv k3 s1 16->16 + ReLU on the downsampler output
  deep encoder  three stages of [conv s2, ReLU, conv s1, ReLU] widening
                16->32->64->128 down to H/16 (total downsampling m = 16)
  decoder       transposed-conv 2x stages with additive skips from the
                encoder stages back up to 16 channels at H/2
  fusion        decoder output + shallow output + downsampler output
  classifier    nearest 2x upsample, pointwise conv 16->2 (brain vs
                background), per-pixel softmax

Spatial extents must be multiples of 16 so the additive skips line up.
Nearest upsampling commutes exactly with the per-pixel conv and softmax, so
forward runs a rewrite of the graph (_run_order) with the classifier's conv
and softmax at H/2 and the upsample last; the graph, its hash, its shapes and
its FLOP counts still describe the head as written above.
"""

import struct
import zlib
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .data import Prng
from .errors import FormatError, NumericsError, ShapeError, UnsupportedConfigError
from .tensor import decode_rft1, encode_rft1, replacing

BASE_WIDTH = 16  # fused channel width after the input downsampler


@dataclass(frozen=True)
class LayerNode:
    name: str
    kind: str  # conv | tconv | maxpool | relu | concat | add | upsample_nearest | softmax
    inputs: tuple
    cin: int = 0
    cout: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class ArchitectureSpec:
    arch_id: str
    input_name: str
    output_name: str
    in_channels: int
    num_classes: int
    total_downsampling_factor: int
    nodes: tuple

    def node(self, name):
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)


def _validate_graph(spec):
    seen = {spec.input_name}
    for node in spec.nodes:
        if node.name in seen:
            raise ShapeError(f"duplicate node name {node.name!r}")
        for src in node.inputs:
            if src not in seen:
                raise ShapeError(f"node {node.name!r} consumes unknown/later node {src!r}")
        seen.add(node.name)
    if spec.output_name not in seen:
        raise ShapeError(f"output node {spec.output_name!r} does not exist")


def config_hash(spec):
    """CRC32 over a canonical description; pins checkpoints to a topology."""
    parts = [
        spec.arch_id,
        spec.input_name,
        spec.output_name,
        str(spec.in_channels),
        str(spec.num_classes),
        str(spec.total_downsampling_factor),
    ]
    for n in spec.nodes:
        parts.append(
            f"{n.name}|{n.kind}|{','.join(n.inputs)}|{n.cin}|{n.cout}|{n.kernel}"
            f"|{n.stride}|{n.padding}"
        )
    return zlib.crc32("\n".join(parts).encode("utf-8")) & 0xFFFFFFFF


def build_rfbsnet_desk():
    """Desk-scale RFBSNet graph; (N, 1, H, W) -> (N, 2, H, W) softmax maps."""
    nodes = (
        # downsampler: the pool path carries the one input channel
        LayerNode("ds_conv", "conv", ("image",), 1, BASE_WIDTH - 1, 3, 2, 1),
        LayerNode("ds_pool", "maxpool", ("image",)),
        LayerNode("ds_cat", "concat", ("ds_conv", "ds_pool")),
        LayerNode("ds_relu", "relu", ("ds_cat",)),
        # shallow branch: detail at H/2
        LayerNode("sh_conv", "conv", ("ds_relu",), 16, 16, 3, 1, 1),
        LayerNode("sh_relu", "relu", ("sh_conv",)),
        # deep branch: three downsampling stages, 16 -> 32 -> 64 -> 128
        LayerNode("e1_conv_a", "conv", ("ds_relu",), 16, 32, 3, 2, 1),
        LayerNode("e1_relu_a", "relu", ("e1_conv_a",)),
        LayerNode("e1_conv_b", "conv", ("e1_relu_a",), 32, 32, 3, 1, 1),
        LayerNode("e1_relu_b", "relu", ("e1_conv_b",)),
        LayerNode("e2_conv_a", "conv", ("e1_relu_b",), 32, 64, 3, 2, 1),
        LayerNode("e2_relu_a", "relu", ("e2_conv_a",)),
        LayerNode("e2_conv_b", "conv", ("e2_relu_a",), 64, 64, 3, 1, 1),
        LayerNode("e2_relu_b", "relu", ("e2_conv_b",)),
        LayerNode("e3_conv_a", "conv", ("e2_relu_b",), 64, 128, 3, 2, 1),
        LayerNode("e3_relu_a", "relu", ("e3_conv_a",)),
        LayerNode("e3_conv_b", "conv", ("e3_relu_a",), 128, 128, 3, 1, 1),
        LayerNode("e3_relu_b", "relu", ("e3_conv_b",)),
        # decoder with additive encoder skips
        LayerNode("d1_up", "tconv", ("e3_relu_b",), 128, 64, 2, 2, 0),
        LayerNode("d1_add", "add", ("d1_up", "e2_relu_b")),
        LayerNode("d1_conv", "conv", ("d1_add",), 64, 64, 3, 1, 1),
        LayerNode("d1_relu", "relu", ("d1_conv",)),
        LayerNode("d2_up", "tconv", ("d1_relu",), 64, 32, 2, 2, 0),
        LayerNode("d2_add", "add", ("d2_up", "e1_relu_b")),
        LayerNode("d2_conv", "conv", ("d2_add",), 32, 32, 3, 1, 1),
        LayerNode("d2_relu", "relu", ("d2_conv",)),
        LayerNode("d3_up", "tconv", ("d2_relu",), 32, 16, 2, 2, 0),
        # fuse decoder, shallow branch, and downsampler output by addition
        LayerNode("fuse_a", "add", ("d3_up", "sh_relu")),
        LayerNode("fuse_b", "add", ("fuse_a", "ds_relu")),
        # classifier
        LayerNode("head_up", "upsample_nearest", ("fuse_b",)),
        LayerNode("head_conv", "conv", ("head_up",), 16, 2, 1, 1, 0),
        LayerNode("probs", "softmax", ("head_conv",)),
    )
    spec = ArchitectureSpec(
        arch_id="rfbsnet-desk",
        input_name="image",
        output_name="probs",
        in_channels=1,
        num_classes=2,
        total_downsampling_factor=16,
        nodes=nodes,
    )
    _validate_graph(spec)
    return spec


def infer_shapes(spec, input_shape):
    """Per-node output shapes for the given NCHW input shape.

    The ops decide every shape: this runs the graph as written on an empty
    batch (zero weights, no pixel computed) and puts the batch extent back
    on each activation's shape. A shape forward refuses, or an extent below
    1, raises ShapeError up front; else ShapeError names the first bad node
    and UnsupportedConfigError a layer config the ops do not support.
    """
    if any(int(v) < 1 for v in input_shape):
        raise ShapeError(f"input shape must have extents >= 1, got {input_shape}")
    _check_input_shape(spec, input_shape)
    n, c, h, w = (int(v) for v in input_shape)
    params = {name: np.zeros(shape, dtype=np.float32)
              for name, shape in parameter_shapes(spec.nodes).items()}
    x = np.zeros((0, c, h, w), dtype=np.float32)
    _, tape = _forward(spec, params, x, keep_intermediates=True)
    return {name: (n,) + shape[1:] for name, shape in tape.shapes.items()}


def init_params(spec, seed, dtype=np.float32):
    """He-uniform weights U(-b, b) with b = sqrt(6 / (Cin*Kh*Kw)); zero biases,
    as a dict of parameter name -> array in parameter order.

    Draws come from the SplitMix64 stream, so one seed gives bit-identical
    parameters everywhere.
    """
    prng = Prng(seed)
    params = {}
    for name, shape in parameter_shapes(spec.nodes).items():
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        fan_in = int(np.prod(shape[1:]))
        bound = np.sqrt(6.0 / fan_in)
        draws = prng.fill_f64(int(np.prod(shape))) * 2.0 - 1.0
        params[name] = (draws * bound).reshape(shape).astype(dtype)
    return params


def _conv_params(node, params):
    return ops.Conv2dParams(
        weight=params[f"{node.name}.weight"],
        bias=params[f"{node.name}.bias"],
        stride=node.stride,
        padding=node.padding,
    )


@dataclass
class Tape:
    """What backward needs from one forward, for the graph that ran (see
    _run_order): that graph; the parameters; its steps in execution order,
    each (node, pullback), where a pullback holds exactly the activations
    that node's VJP reads (see _run_node); and the shape of the input and of
    every node. backward consumes the steps and leaves None."""

    spec: ArchitectureSpec
    params: dict
    steps: list
    shapes: dict


def _run_node(node, params, ins):
    """Run one node; returns (output, pullback).

    pullback(up) returns one gradient per input and then, for conv and
    tconv, the weight and bias gradients. Each pullback closes over just
    what its VJP reads, so that is all a tape keeps: conv, tconv and maxpool
    their input, relu and softmax their own output, concat its first
    operand's channel count, add and upsample nothing. relu_vjp's mask x > 0
    is the same for relu's input and output, so relu holds its output, mostly
    a conv's input and held anyway, and no conv output is held. Pullbacks
    look each VJP up in ops when called, so a wrapped ops function sees it.
    """
    if node.kind == "conv":
        x, p = ins[0], _conv_params(node, params)
        return ops.conv2d(x, p), lambda up: ops.conv2d_vjp(x, p, up)
    if node.kind == "tconv":
        x, p = ins[0], _conv_params(node, params)
        return ops.transposed_conv2d(x, p), lambda up: ops.transposed_conv2d_vjp(x, p, up)
    if node.kind == "maxpool":
        x = ins[0]
        return ops.maxpool2x2(x), lambda up: (ops.maxpool2x2_vjp(x, up),)
    if node.kind == "relu":
        y = ops.relu(ins[0])
        return y, lambda up: (ops.relu_vjp(y, up),)
    if node.kind == "concat":
        a, b = ins
        if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
            raise ShapeError(f"batch/spatial mismatch {a.shape} vs {b.shape}")
        ca = a.shape[1]
        return np.concatenate(ins, axis=1), lambda up: (
            np.ascontiguousarray(up[:, :ca]), np.ascontiguousarray(up[:, ca:]))
    if node.kind == "add":
        a, b = ins
        if a.shape != b.shape:  # numpy would broadcast
            raise ShapeError(f"operand shapes differ: {a.shape} vs {b.shape}")
        return a + b, lambda up: (up, up)
    if node.kind == "upsample_nearest":
        return ops.nearest_upsample2x(ins[0]), lambda up: (ops.nearest_upsample2x_vjp(up),)
    if node.kind == "softmax":
        y = ops.softmax_channels(ins[0])
        return y, lambda up: (ops.softmax_channels_vjp(y, up),)
    raise ShapeError(f"unknown node kind {node.kind!r}")


def _per_pixel(node):
    """Whether a node maps each pixel's channels on their own (relu, softmax,
    conv k1 s1 p0), so that it commutes exactly with nearest upsampling."""
    return node.kind in ("relu", "softmax") or (
        node.kind == "conv" and (node.kernel, node.stride, node.padding) == (1, 1, 0))


def _run_order(spec):
    """The graph forward runs: when an upsample_nearest node reaches the
    output only through per-pixel nodes, each read by the next alone, a copy
    of spec in which the first of them reads the upsample's input and the
    upsample runs last, on their output (desk: head_conv reads fuse_b, head_up
    reads probs); else spec. Same bits, a quarter of those nodes' work."""
    readers = Counter(s for node in spec.nodes for s in node.inputs)
    nodes = {node.name: node for node in spec.nodes}
    chain, name = [], spec.output_name
    while name in nodes and readers[name] == (1 if chain else 0):
        node = nodes[name]
        if node.kind == "upsample_nearest" and chain:
            rest = tuple(replace(n, inputs=node.inputs) if n is chain[-1] else n
                         for n in spec.nodes if n is not node)
            last = replace(node, inputs=(spec.output_name,))
            return replace(spec, output_name=node.name, nodes=rest + (last,))
        if not _per_pixel(node):
            break
        chain.append(node)
        name = node.inputs[0]
    return spec


def _check_input_shape(spec, shape):
    """The input shapes forward accepts: rank-4 NCHW, H and W multiples of
    the total downsampling factor, and spec's input channel count."""
    if len(shape) != 4:
        raise ShapeError(f"input must be rank-4 NCHW, got shape {tuple(shape)}")
    _, c, h, w = shape
    m = spec.total_downsampling_factor
    if h % m or w % m:
        raise ShapeError(f"input H and W must be multiples of {m}, got {h}x{w}")
    if c != spec.in_channels:
        raise ShapeError(
            f"input has {c} channels, {spec.arch_id} expects {spec.in_channels}"
        )


def forward(spec, params, x, keep_intermediates=False):
    """Run the graph; returns (probability map, tape).

    Each activation is released after the last node that reads it; with
    keep_intermediates the tape holds every node's pullback, which keeps
    only what that node's VJP reads (see _run_node), and every node's shape.
    Without keep_intermediates the tape is None.

    The graph that runs is _run_order(spec): the desk network's classifier
    conv and softmax run at H/2 and its upsample runs last, on the 2-channel
    probabilities. The tape describes that graph; infer_shapes gives the
    shapes of spec as written.

    Only the input and the output are scanned for non-finite values; a bad
    output drops the tape and a replay of the same graph names the first
    node whose output is not finite, so a -inf that a relu maps to 0 passes
    (Adam scans the gradients; the CLI exits 3). A NumericsError, ShapeError
    or UnsupportedConfigError names its node (the first, for a bad input).
    """
    if not isinstance(x, np.ndarray):
        raise ShapeError("forward input must be a rank-4 NCHW array")
    _check_input_shape(spec, x.shape)
    if not np.isfinite(x).all():
        raise NumericsError(
            f"non-finite input {spec.input_name!r} to node {spec.nodes[0].name!r}"
        )
    return _forward(_run_order(spec), params, x, keep_intermediates)


def _forward(spec, params, x, keep_intermediates):
    """forward without its input checks, running spec's nodes in order."""
    last_use = {s: i for i, node in enumerate(spec.nodes) for s in node.inputs}

    def run(steps):
        """Yield (node, output) in graph order, appending (node, pullback)
        to steps unless it is None; each activation is dropped after the
        last node that reads it."""
        values = {spec.input_name: x}
        for i, node in enumerate(spec.nodes):
            try:
                out, pullback = _run_node(node, params, [values[s] for s in node.inputs])
            except (ShapeError, UnsupportedConfigError) as e:
                raise type(e)(f"node {node.name!r}: {e}") from None
            if steps is not None:
                steps.append((node, pullback))
            del pullback  # without a tape, what it holds must not outlive the node
            values[node.name] = out
            for s in node.inputs:
                if last_use[s] == i:
                    values.pop(s, None)
            yield node, out

    steps = [] if keep_intermediates else None
    shapes = {spec.input_name: x.shape}
    y = x  # unless a node is the output
    for node, out in run(steps):
        shapes[node.name] = out.shape
        if node.name == spec.output_name:
            y = out
    if not np.isfinite(y).all():
        steps = None  # frees what the tape holds before the replay runs
        for node, out in run(None):
            if not np.isfinite(out).all():
                break
        raise NumericsError(f"non-finite activation in node {node.name!r}")
    return y, Tape(spec, params, steps, shapes) if keep_intermediates else None


def backward(tape, loss_grad):
    """Gradients for every parameter given d(loss)/d(output).

    Runs the tape's steps in reverse; what each pullback reads is decided
    where forward made it, in _run_node. Skip connections accumulate
    gradients from all consumers; concat splits the upstream back onto its
    operands. In the desk graph as it ran (see _run_order) the first step is
    the upsample's VJP, which sums each 2x2 block of loss_grad; the per-pixel
    VJPs that follow are linear in their upstream and read activations that
    are constant over each block, so at half the size they give the graph's
    gradients up to rounding.

    backward consumes the tape: it drops each pullback once it has run, so
    each saved activation is freed after its last read, and a second
    backward on the same tape raises ShapeError.
    """
    if tape is None:
        raise ShapeError("backward needs a tape from forward(keep_intermediates=True)")
    if tape.steps is None:
        raise ShapeError("backward already consumed this tape; run forward again")
    spec = tape.spec
    out_shape = tape.shapes[spec.output_name]
    if loss_grad.shape != out_shape:
        raise ShapeError(
            f"loss_grad shape {loss_grad.shape} != output shape {out_shape}"
        )
    steps, tape.steps = tape.steps, None
    upstream = {spec.output_name: loss_grad}
    param_grads = {}
    while steps:
        node, pullback = steps.pop()
        up = upstream.pop(node.name, None)
        if up is None:
            continue
        grads = pullback(up)
        for target, grad in zip(node.inputs, grads):
            upstream[target] = upstream[target] + grad if target in upstream else grad
        for suffix, grad in zip((".weight", ".bias"), grads[len(node.inputs):]):
            param_grads[node.name + suffix] = grad
    return {name: param_grads[name] if name in param_grads else np.zeros_like(value)
            for name, value in tape.params.items()}


# -- checkpoints ("RFBC") ------------------------------------------------------

_CKPT_MAGIC = b"RFBC"
_CKPT_VERSION = 1


def save_checkpoint(path, spec, params):
    """Magic RFBC, u16 version, u32 config hash, u32 entry count, then
    (u16 name length, name, RFT1 blob) per parameter (all little-endian)."""
    out = bytearray(_CKPT_MAGIC)
    out += struct.pack("<H", _CKPT_VERSION)
    out += struct.pack("<I", config_hash(spec))
    out += struct.pack("<I", len(params))
    for name, value in params.items():
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw))
        out += raw
        out += encode_rft1(value)
    with replacing(path) as fh:
        fh.write(out)


def load_checkpoint(path, expected_spec=None):
    """Returns (config hash, dict of parameter name -> array); validates the
    hash and every parameter name/shape when expected_spec is given."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 14:
        raise FormatError("checkpoint: truncated header")
    if buf[:4] != _CKPT_MAGIC:
        raise FormatError("checkpoint: bad magic")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != _CKPT_VERSION:
        raise FormatError(f"checkpoint: unsupported version {version}")
    (cfg_hash,) = struct.unpack_from("<I", buf, 6)
    (count,) = struct.unpack_from("<I", buf, 10)
    pos = 14
    params = {}
    for _ in range(count):
        if len(buf) < pos + 2:
            raise FormatError("checkpoint: truncated entry header")
        (name_len,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        if len(buf) < pos + name_len:
            raise FormatError("checkpoint: truncated entry name")
        try:
            name = buf[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("checkpoint: entry name is not UTF-8") from None
        if name in params:
            raise FormatError(f"checkpoint: duplicate parameter {name!r}")
        pos += name_len
        value, pos = decode_rft1(buf, pos)
        params[name] = value
    if pos != len(buf):
        raise FormatError(f"checkpoint: {len(buf) - pos} trailing bytes")
    if expected_spec is not None:
        expected = config_hash(expected_spec)
        if cfg_hash != expected:
            raise FormatError(
                f"checkpoint architecture hash {cfg_hash:#010x} does not match "
                f"{expected_spec.arch_id} ({expected:#010x})"
            )
        shapes = parameter_shapes(expected_spec.nodes)
        if list(params) != list(shapes):
            raise FormatError("checkpoint: parameter names do not match architecture")
        for name, value in params.items():
            if value.shape != shapes[name]:
                raise FormatError(
                    f"checkpoint: parameter {name} has shape {value.shape}, "
                    f"expected {shapes[name]}"
                )
    return cfg_hash, params


def parameter_shapes(nodes):
    """Expected name -> shape map of the nodes' parameters, in parameter order."""
    shapes = {}
    for node in nodes:
        if node.kind in ("conv", "tconv"):
            k = node.kernel
            shapes[f"{node.name}.weight"] = (node.cout, node.cin, k, k)
            shapes[f"{node.name}.bias"] = (node.cout,)
    return shapes
