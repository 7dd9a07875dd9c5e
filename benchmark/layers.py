"""Which engine functions the traced run wraps, and the per-layer metrics it
derives from their spans.

Every metric is per timed request unless its name says otherwise. Node
metrics attribute `ops.*` spans to graph nodes by call order inside one
`model.forward` or `model.backward` span; when the calls of an op do not
number exactly the nodes of its kind, the node metrics are reported as
unavailable instead of being guessed.
"""

from collections import Counter, defaultdict, deque

from rfbs import data, metrics, model, ops, training

import costs
from tracer import REQUEST, children_of, self_times

FORWARD_OPS = {
    "conv": "conv2d",
    "tconv": "transposed_conv2d",
    "maxpool": "maxpool2x2",
    "relu": "relu",
    "upsample_nearest": "nearest_upsample2x",
    "softmax": "softmax_channels",
}
BACKWARD_OPS = {kind: fn + "_vjp" for kind, fn in FORWARD_OPS.items()}
OP_FNS = [f for fn in FORWARD_OPS.values() for f in (fn, fn + "_vjp")]
RATE_OPS = ["conv2d", "conv2d_vjp", "transposed_conv2d", "transposed_conv2d_vjp"]
NODES = [
    "ds_conv", "sh_conv",
    "e1_conv_a", "e1_conv_b", "e2_conv_a", "e2_conv_b", "e3_conv_a", "e3_conv_b",
    "d1_up", "d1_conv", "d2_up", "d2_conv", "d3_up", "head_conv",
]
BUSY = [
    "training.soft_dice_loss", "training.adam_step", "metrics.argmax_mask",
    "metrics.confusion", "data.load_dataset", "model.load_checkpoint",
    "tensor.decode_rft1",
]


def install(tracer):
    """Wrap the public functions of every layer on a workload path."""
    for fn in OP_FNS:
        tracer.wrap(ops, fn, f"ops.{fn}", costs.OP_WORK.get(fn))
    for fn in ("forward", "backward", "load_checkpoint"):
        tracer.wrap(model, fn, f"model.{fn}")
    # load_checkpoint decodes through the name rfbs.model imported
    tracer.wrap(model, "decode_rft1", "tensor.decode_rft1")
    for fn in ("soft_dice_loss", "lr_at", "adam_step"):
        tracer.wrap(training, fn, f"training.{fn}")
    for fn in ("argmax_mask", "confusion", "evaluate_image", "aggregate"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")
    tracer.wrap(data, "load_dataset", "data.load_dataset")
    tracer.wrap_generator(data, "batches", "data.batches")


def metric_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for fn in OP_FNS:
        units[f"ops.{fn}.calls"] = "count"
        units[f"ops.{fn}.busy_ms"] = "ms"
    for fn in RATE_OPS:
        units[f"ops.{fn}.gflop_s"] = "GFLOP/s"
    units["ops.conv2d.gflop"] = "GFLOP"
    units["ops.conv2d.im2col_mb"] = "MB"
    units["ops.conv2d_vjp.im2col_recomputed_mb"] = "MB"
    for fn in ("forward", "backward"):
        units[f"model.{fn}.busy_ms"] = "ms"
        units[f"model.{fn}.self_ms"] = "ms"
    for node in NODES:
        units[f"node.{node}.fwd_ms"] = "ms"
        units[f"node.{node}.bwd_ms"] = "ms"
        units[f"node.{node}.gflop_s"] = "GFLOP/s"
    for name in BUSY:
        units[f"{name}.busy_ms"] = "ms"
    units["data.batches.wait_ms"] = "ms"
    units["cli.pool.busy_frac"] = "ratio"
    units["trace.overhead_ms"] = "ms"
    return units


def attribute(op_names, nodes, table):
    """Node name for each op call, matching the i-th call of an op to the
    i-th node (in `nodes` order) whose kind maps to that op in `table`.

    Returns None unless the calls per op equal the nodes per kind exactly.
    """
    expected = [(n.name, table[n.kind]) for n in nodes if n.kind in table]
    if Counter(op for _, op in expected) != Counter(op_names):
        return None
    queues = defaultdict(deque)
    for name, op in expected:
        queues[op].append(name)
    return [queues[op].popleft() for op in op_names]


def _rate(flops, seconds):
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def layer_metrics(spans, spec, requests, pool_workers=0):
    """Per-layer metrics from the spans of `requests` timed requests.

    Returns (metrics, unavailable) where unavailable maps a metric name to
    the reason it could not be computed.
    """
    per = 1.0 / requests
    dur = defaultdict(float)
    calls = Counter()
    flops = defaultdict(float)
    im2col = defaultdict(float)
    for s in spans:
        dur[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.work is not None:
            flops[s.name] += s.work.flops
            im2col[s.name] += s.work.im2col_bytes
    selfs = self_times(spans)
    kids = children_of(spans)

    out = {}
    for fn in OP_FNS:
        out[f"ops.{fn}.calls"] = calls[f"ops.{fn}"] * per
        out[f"ops.{fn}.busy_ms"] = dur[f"ops.{fn}"] * per * 1e3
    for fn in RATE_OPS:
        out[f"ops.{fn}.gflop_s"] = _rate(flops[f"ops.{fn}"], dur[f"ops.{fn}"])
    out["ops.conv2d.gflop"] = flops["ops.conv2d"] * per / 1e9
    out["ops.conv2d.im2col_mb"] = im2col["ops.conv2d"] * per / 1e6
    out["ops.conv2d_vjp.im2col_recomputed_mb"] = im2col["ops.conv2d_vjp"] * per / 1e6

    unavailable = {}
    node_time = defaultdict(float)
    node_flops = defaultdict(float)
    for direction, table, order in (
        ("forward", FORWARD_OPS, list(spec.nodes)),
        ("backward", BACKWARD_OPS, list(reversed(spec.nodes))),
    ):
        name = f"model.{direction}"
        mine = [s for s in spans if s.name == name]
        out[f"{name}.busy_ms"] = dur[name] * per * 1e3
        out[f"{name}.self_ms"] = sum(selfs[s.id] for s in mine) * per * 1e3
        tag = "fwd" if direction == "forward" else "bwd"
        for s in mine:
            op_spans = [c for c in kids.get(s.id, ()) if c.name.startswith("ops.")]
            owners = attribute([c.name[4:] for c in op_spans], order, table)
            if owners is None:
                reason = f"ops calls in one {name} do not match the graph's node kinds"
                for node in NODES:
                    unavailable[f"node.{node}.{tag}_ms"] = reason
                    if tag == "fwd":
                        unavailable[f"node.{node}.gflop_s"] = reason
                break
            for owner, c in zip(owners, op_spans):
                node_time[(owner, tag)] += c.end - c.start
                if tag == "fwd" and c.work is not None:
                    node_flops[owner] += c.work.flops
    for node in NODES:
        for tag in ("fwd", "bwd"):
            key = f"node.{node}.{tag}_ms"
            if key not in unavailable:
                out[key] = node_time[(node, tag)] * per * 1e3
        key = f"node.{node}.gflop_s"
        if key not in unavailable:
            out[key] = _rate(node_flops[node], node_time[(node, "fwd")])

    for name in BUSY:
        out[f"{name}.busy_ms"] = dur[name] * per * 1e3
    out["data.batches.wait_ms"] = dur["data.batches"] * per * 1e3
    wall = dur[REQUEST]
    out["cli.pool.busy_frac"] = (
        dur["model.forward"] / (pool_workers * wall) if pool_workers and wall else 0.0
    )
    return out, unavailable


def forward_residual_ms(out):
    """model.forward busy minus its self time minus every forward op's busy
    time, per request. Zero unless a forward op runs outside a forward."""
    ops_ms = sum(out[f"ops.{fn}.busy_ms"] for fn in FORWARD_OPS.values())
    return out["model.forward.busy_ms"] - out["model.forward.self_ms"] - ops_ms
