"""Latency harness: batch-1 forward timing with warmup, on a monotonic clock.

The input tensor is generated once (outside the timed region) and reused for
every iteration. Warmup iterations never contribute to statistics. TSV rows
carry full-precision floats so summary statistics can be recomputed exactly
from the rows; the human-readable report rounds to 3 decimals.
"""

import platform
import time
from dataclasses import dataclass

import numpy as np

from .analysis import count_flops
from .data import Prng
from .errors import ShapeError
from .metrics import mean_std
from .model import forward

_INPUT_SEED = 0x52464253  # fixed input stream for reproducible predictions


@dataclass
class BenchReport:
    iterations: int
    warmup: int
    times_ms: list
    mean_ms: float
    std_ms: float
    min_ms: float
    max_ms: float
    throughput: float  # images/s
    input_shape: tuple
    params: int
    flops: int
    machine: str


def stats(samples):
    """(mean, sample stdev, min, max); stdev is 0 for a single sample."""
    mean, std = mean_std(samples)
    return mean, std, min(samples), max(samples)


def bench_input(spec, size):
    """The fixed batch-1 uniform [0,1) input used for every timed iteration."""
    shape = (1, spec.in_channels, size, size)
    n = int(np.prod(shape))
    values = Prng(_INPUT_SEED).fill_f64(n).reshape(shape)
    return values.astype(np.float32)


def bench_forward(spec, params, size, iters=100, warmup=10):
    """Time `iters` batch-1 forward passes at size x size after `warmup`
    untimed ones."""
    if iters < 1 or warmup < 0:
        raise ShapeError(f"need iters >= 1 and warmup >= 0, got {iters}/{warmup}")
    x = bench_input(spec, size)
    cost = count_flops(spec, x.shape)
    for _ in range(warmup):
        forward(spec, params, x)
    times = []
    for _ in range(iters):
        start = time.perf_counter()
        forward(spec, params, x)
        times.append((time.perf_counter() - start) * 1000.0)
    mean, std, lo, hi = stats(times)
    return BenchReport(
        iterations=iters,
        warmup=warmup,
        times_ms=times,
        mean_ms=mean,
        std_ms=std,
        min_ms=lo,
        max_ms=hi,
        throughput=1000.0 / mean,
        input_shape=x.shape,
        params=cost.total_params,
        flops=cost.total_flops,
        machine=f"{platform.platform()} / {platform.processor() or 'unknown cpu'}",
    )


def format_text(report):
    shape = "x".join(str(d) for d in report.input_shape)
    return (
        f"input {shape} (batch 1), {report.iterations} timed iterations after "
        f"{report.warmup} warmup\n"
        f"mean {report.mean_ms:.3f} ms  std {report.std_ms:.3f} ms  "
        f"min {report.min_ms:.3f} ms  max {report.max_ms:.3f} ms  "
        f"{report.throughput:.3f} images/s\n"
        f"model: {report.params} params, {report.flops} flops/image\n"
        f"machine: {report.machine}\n"
    )


def format_tsv(report):
    """`iter<TAB>ms` rows then a SUMMARY row, all at full float precision."""
    shape = "x".join(str(d) for d in report.input_shape)
    lines = [
        f"# input = {shape}",
        f"# batch = {report.input_shape[0]}",
        f"# iterations = {report.iterations}",
        f"# warmup = {report.warmup}",
        f"# params = {report.params}",
        f"# flops = {report.flops}",
        f"# machine = {report.machine}",
    ]
    for i, ms in enumerate(report.times_ms):
        lines.append(f"{i}\t{ms!r}")
    lines.append(
        f"SUMMARY\t{report.mean_ms!r}\t{report.std_ms!r}\t{report.min_ms!r}\t"
        f"{report.max_ms!r}\t{report.throughput!r}"
    )
    return "\n".join(lines) + "\n"
