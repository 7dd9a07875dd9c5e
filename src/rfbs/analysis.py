"""Per-layer parameter and FLOP accounting for an architecture graph.

Conventions (stated in every report header): one multiply-accumulate counts
as 2 FLOPs, bias adds are included, accounting is per image (batch 1).
conv/tconv: 2*Kh*Kw*Cin*Cout*Hout*Wout + Cout*Hout*Wout. maxpool 2x2: 3
comparisons per output element. relu and add: 1 per element. softmax: 4*C per
pixel. upsample and concat: 0.
"""

import math
from dataclasses import dataclass

from .errors import ShapeError
from .model import infer_shapes, parameter_shapes

FLOP_CONVENTION = "MAC=2, bias adds included, per-image (N=1)"


@dataclass(frozen=True)
class NodeCost:
    name: str
    kind: str
    out_shape: tuple
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    input_shape: tuple
    nodes: tuple

    @property
    def total_params(self):
        return sum(n.params for n in self.nodes)

    @property
    def total_flops(self):
        return sum(n.flops for n in self.nodes)


def node_params(node):
    """Element count of the parameters model.parameter_shapes gives the node."""
    return sum(math.prod(shape) for shape in parameter_shapes([node]).values())


def count_params(spec):
    """count_flops at an m x m input, m = spec.total_downsampling_factor: a
    node's parameter count does not depend on the input size."""
    m = spec.total_downsampling_factor
    return count_flops(spec, (1, spec.in_channels, m, m))


def _node_flops(node, out_shape):
    _, c, h, w = out_shape
    spatial = h * w
    if node.kind in ("conv", "tconv"):
        k = node.kernel
        return 2 * k * k * node.cin * node.cout * spatial + node.cout * spatial
    if node.kind == "maxpool":
        return 3 * c * spatial
    if node.kind in ("relu", "add"):
        return c * spatial
    if node.kind == "softmax":
        return 4 * c * spatial
    if node.kind in ("upsample_nearest", "concat"):
        return 0
    raise ShapeError(f"unknown node kind {node.kind!r}")


def count_flops(spec, input_shape):
    """Full per-node report at batch 1 (the batch extent is forced to 1)."""
    shape = (1,) + tuple(int(v) for v in input_shape[1:])
    shapes = infer_shapes(spec, shape)
    nodes = tuple(
        NodeCost(
            name=n.name,
            kind=n.kind,
            out_shape=shapes[n.name],
            params=node_params(n),
            flops=_node_flops(n, shapes[n.name]),
        )
        for n in spec.nodes
    )
    return CostReport(input_shape=shape, nodes=nodes)


def _shape_str(shape):
    return "x".join(str(d) for d in shape)


def format_table(report):
    """Aligned human-readable table with a totals row."""
    header = ["node", "kind", "out_shape", "params", "flops"]
    rows = [
        [n.name, n.kind, _shape_str(n.out_shape), str(n.params), str(n.flops)]
        for n in report.nodes
    ]
    rows.append(
        ["TOTAL", "", "", str(report.total_params), str(report.total_flops)]
    )
    widths = [
        max(len(header[i]), max(len(r[i]) for r in rows)) for i in range(5)
    ]
    lines = [
        f"# flop convention: {FLOP_CONVENTION}",
        f"# input: {_shape_str(report.input_shape)}",
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines) + "\n"


def format_tsv(report):
    """Machine-readable rows: node, kind, out_shape, params, flops."""
    lines = [f"# flop convention: {FLOP_CONVENTION}"]
    for n in report.nodes:
        lines.append(
            f"{n.name}\t{n.kind}\t{_shape_str(n.out_shape)}\t{n.params}\t{n.flops}"
        )
    lines.append(f"TOTAL\t\t\t{report.total_params}\t{report.total_flops}")
    return "\n".join(lines) + "\n"
