"""Benchmark of the rfbs engine, driven from outside through its public
functions.

    python3 benchmark/run.py --workload infer-256 --seed 1 --seconds 35 --trace 0
    python3 benchmark/run.py --workload train-256 --seed 1 --seconds 35 --trace 1
    python3 benchmark/run.py --workload all --seed 1 --seconds 35

Run from the root of a source checkout; the engine is imported from `src/`.
With --trace 0 the run measures the end-to-end metrics untraced; with
--trace 1 it measures untraced for half the time, then traced for the other
half, and reports the per-layer metrics and the tracing overhead. Human-
readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. `--workload all` runs every
workload in its own process and prints one table. See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import REQUEST

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_run"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("infer-256", "infer-64", "train-256", "eval-2w")
SETUP_REPEATS = 5
# Imports cannot be repeated in one process, so they are timed in fresh ones.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import rfbs.cli; "
    "print(time.perf_counter() - t)"
)
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_img_s": "img/s",
    "peak_rss_mb": "MB",
}


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between order
    statistics, the rule numpy.percentile uses by default."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Phase:
    """Outcome of one closed-loop measuring phase."""

    def __init__(self):
        self.latencies = []  # seconds, successful timed requests
        self.busy = 0.0  # seconds spent inside timed requests
        self.images = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.timed_ids = []


def measure(wl, seconds, first_id, min_requests, tracer=None):
    """Closed loop with one client: the next request starts when the previous
    one and its (untimed) check are done. The first `wl.warmup` requests are
    not timed. Timing stops once the timed requests add up to `seconds` and
    at least `min_requests` were attempted."""
    phase = Phase()
    i = first_id
    while phase.busy < seconds or phase.attempted < min_requests + wl.warmup:
        timed = phase.attempted >= wl.warmup
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out = tracer.call(REQUEST, wl.request, i) if tracer else wl.request(i)
            error = None
        except Exception:  # a failed request is counted, never fatal
            out, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.request = None
        if error is None:
            error = wl.check(i, out)
        phase.attempted += 1
        if error is not None:
            phase.failed += 1
            phase.errors.append(f"request {i}: {error}")
        if timed:
            phase.busy += elapsed
            phase.timed_ids.append(i)
            if error is None:
                phase.latencies.append(elapsed)
                phase.images += wl.images_per_request
        i += 1
    return phase


def end_to_end(phase, setup_s):
    ms = [v * 1e3 for v in phase.latencies]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(ms, 50),
        "latency_p95_ms": percentile(ms, 95),
        "throughput_img_s": phase.images / phase.busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        return f"unavailable: {ref[5:]} is packed"
    return ref


def _code_digest():
    """sha256 over the engine's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed):
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "code_sha256": _code_digest(),
    }


def _check_digest(workload, seed, digest, code):
    """Same (code, workload, seed) must give the same output digest as any
    earlier run in this checkout. Returns None or what is wrong."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{code[:16]}/{workload}/{seed}"
    previous = known.setdefault(key, digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    if previous != digest:
        return f"output digest {digest[:16]} differs from an earlier same-seed run's {previous[:16]}"
    return None


def import_seconds():
    """Time to import the engine (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def measure_traced(wl, name, spec, seconds):
    """Half the time untraced, then set up again and half the time traced.
    Returns (phases, per-layer metrics, their units, unavailable metrics)."""
    import layers
    import workloads
    from tracer import Tracer

    untraced = measure(wl, seconds / 2, 0, 1)
    wl.setup()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = measure(wl, seconds / 2, 10**6, 1, tracer)
    finally:
        tracer.restore()
    timed = set(traced.timed_ids)
    spans = [s for s in tracer.spans if s.request in timed]
    metrics, unavailable = layers.layer_metrics(
        spans, spec, len(timed), workloads.POOL_WORKERS.get(name, 0)
    )
    overhead = (percentile(traced.latencies, 50) - percentile(untraced.latencies, 50)) * 1e3
    metrics["trace.overhead_ms"] = overhead
    for key, why in unavailable.items():
        print(f"# unavailable: {key}: {why}")
    print(f"# model.forward busy - self - sum(forward ops busy) = "
          f"{layers.forward_residual_ms(metrics):.4f} ms per request "
          f"(tracing overhead {overhead:.4f} ms)")
    tracer.write_jsonl(OUT / f"spans-{name}.jsonl")
    units = {k: u for k, u in layers.metric_units().items() if k in metrics}
    return [untraced, traced], metrics, units, unavailable


def run_one(name, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / name
    workdir.mkdir(exist_ok=True)
    import costs
    import workloads
    from rfbs import model

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    wl = workloads.WORKLOADS[name](seed, str(workdir))
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    report = {"workload": name, "trace": trace, "provenance": provenance(seed)}
    print(f"# rfbs benchmark: workload {name}, seed {seed}, {seconds} s, trace {trace}")
    for key, value in report["provenance"].items():
        print(f"# {key}: {value}")
    spec = model.build_rfbsnet_desk()
    disagree = costs.analysis_disagreements(spec, 256)
    for node, ours, theirs in disagree:
        print(f"# analysis disagrees at 256: {node} counts {theirs} FLOP, "
              f"ours {ours} ({theirs / ours:.3f}x)")

    if trace:
        phases, metrics, units, unavailable = measure_traced(wl, name, spec, seconds)
        report["unavailable"] = unavailable
    else:
        phases = [measure(wl, seconds, 0, wl.min_requests)]
        metrics = end_to_end(phases[0], setup_s)
        units = E2E_UNITS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    digest = wl.digest()
    problem = _check_digest(name, seed, digest, report["provenance"]["code_sha256"])
    if problem:
        errors.append(problem)
    correct = not errors
    report.update(
        correct=correct, attempted=attempted, failed=failed, errors=errors[:20],
        latencies_s=[p.latencies for p in phases], setup_runs_s=setups,
        import_runs_s=imports, digest=digest, checks=wl.notes(),
        analysis_disagreements=disagree,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1)
    )

    print(f"# output digest: {digest}")
    for key, value in wl.notes().items():
        print(f"# check {key}: {value}")
    for e in errors[:5]:
        print(f"# FAILED {e}", file=sys.stderr)
    n = len(phases[-1].latencies)
    print(f"{'metric':40s} {'value':>14s}  unit  (* = in BENCHMARK.json)")
    for key, unit in units.items():
        mark = " *" if key in declared else ""
        print(f"{key:40s} {metrics[key]:14.6g}  {unit}{mark}")
    print(f"{'error_rate':40s} {failed / attempted:14.6g}  ratio ({failed}/{attempted})")
    print(f"# {n} timed requests in the last phase; {len(errors)} problem(s)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in declared if k in metrics},
    }))
    return 0


def run_all(seed, seconds):
    """Every workload in its own process, then one table of the end-to-end
    metrics and error rates."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(
            (OUT / f"result-{name}-seed{seed}-trace0.json").read_text()
        )
    print(f"{'workload':10s} " + " ".join(f"{k:>17s}" for k in E2E_UNITS) + f" {'error_rate':>17s}")
    print(f"{'':10s} " + " ".join(f"{u:>17s}" for u in E2E_UNITS.values()) + f" {'ratio':>17s}")
    for name, r in rows.items():
        vals = " ".join(f"{r['metrics'][k]['value']:17.6g}" for k in E2E_UNITS)
        print(f"{name:10s} {vals} {r['failed'] / r['attempted']:17.6g}"
              f"  ({r['failed']}/{r['attempted']}{'' if r['correct'] else ', INCORRECT'})")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    # One BLAS thread, set before numpy is first imported: the engine's
    # determinism contract and the eval-2w worker count both assume it.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "rfbs" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'rfbs'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
