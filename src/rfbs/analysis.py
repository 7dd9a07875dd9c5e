"""Per-layer parameter and FLOP accounting for an architecture graph.

Conventions (stated in every report header): one multiply-accumulate counts
as 2 FLOPs, bias adds are included, accounting is per image (batch 1).
At every output pixel, each weight element of model.parameter_shapes costs 2
FLOPs and each bias element 1. Per output element, maxpool 2x2 costs 3
comparisons, relu and add 1, softmax 4; upsample and concat cost 0.
"""

import math
from dataclasses import dataclass

from .model import infer_shapes, parameter_shapes

FLOP_CONVENTION = "MAC=2, bias adds included, per-image (N=1)"

# FLOPs per output element of the parameter-free kinds; absent kinds cost 0.
_ELEMENT_FLOPS = {"maxpool": 3, "relu": 1, "add": 1, "softmax": 4}


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
    per_pixel = sum(
        math.prod(shape) * (2 if name.endswith(".weight") else 1)
        for name, shape in parameter_shapes([node]).items()
    )
    return (per_pixel + _ELEMENT_FLOPS.get(node.kind, 0) * c) * h * w


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


def _rows(report):
    """node, kind, out_shape, params, flops for every node, then the TOTAL row."""
    total = ["TOTAL", "", "", str(report.total_params), str(report.total_flops)]
    return [
        [n.name, n.kind, _shape_str(n.out_shape), str(n.params), str(n.flops)]
        for n in report.nodes
    ] + [total]


def format_table(report):
    """Aligned human-readable table with a totals row."""
    header = ["node", "kind", "out_shape", "params", "flops"]
    rows = [header] + _rows(report)
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = [
        f"# flop convention: {FLOP_CONVENTION}",
        f"# input: {_shape_str(report.input_shape)}",
    ]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
    return "\n".join(lines) + "\n"


def format_tsv(report):
    """Machine-readable rows: node, kind, out_shape, params, flops."""
    lines = [f"# flop convention: {FLOP_CONVENTION}"]
    lines += ["\t".join(row) for row in _rows(report)]
    return "\n".join(lines) + "\n"
