"""Acceptance suite — one printed PASS/FAIL line per criterion.

The end-to-end criteria (5-7) drive the CLI in fresh subprocesses with BLAS
pinned to a single thread, exactly as a user would run it. Training runs use
the stated recipe (200 phantoms, seed 42, 80/20 split, batch 8, lr 1e-4 with
the 0.9-per-2000-steps decay) for 5 epochs; the 0.90 validation-Dice bar is
reached by epoch 3, within the allowed 15.
"""

import hashlib
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rfbs import analysis, data, gradsuite, metrics, model, tensor
from rfbs.data import Prng
from rfbs.errors import FormatError

from conftest import run_cli


@contextmanager
def criterion(cid, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {cid} PASS - {desc}")


@pytest.fixture(scope="session")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def phantom_dir(work):
    out = work / "phantoms"
    proc = run_cli(["generate", "--out", str(out), "--count", "200",
                    "--size", "256", "--seed", "42"])
    assert proc.returncode == 0, proc.stderr
    return out


def parse_epoch_dices(log_path):
    dices = []
    for line in log_path.read_text().strip().split("\n"):
        fields = line.split("\t")
        if fields[0] == "epoch":
            dices.append(float(fields[3]))
    return dices


@pytest.fixture(scope="session")
def trained(phantom_dir, work):
    """Two identical training runs (criterion 5 result + criterion 7 repeat)."""
    runs = {}
    for tag in ("run1", "run2"):
        ckpt = work / f"{tag}.ckpt"
        started = time.perf_counter()
        proc = run_cli([
            "train", "--data", str(phantom_dir), "--out", str(ckpt),
            "--epochs", "5", "--batch", "8", "--lr", "1e-4", "--seed", "42",
        ])
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        runs[tag] = {
            "ckpt": ckpt,
            "log": work / f"{tag}.ckpt.log",
            "elapsed": elapsed,
        }
    return runs


def test_c1_gradient_suite():
    started = time.perf_counter()
    reports = gradsuite.run_suite(scale="small")
    elapsed = time.perf_counter() - started
    with criterion("1", "op checks <= 1e-6, network <= 1e-5, under 2 min"):
        for r in reports:
            assert r.passed, f"{r.op}: {r.max_rel_error:.3e} > {r.tolerance:.1e}"
        assert any(r.op.endswith("network") and r.tolerance == 1e-5 for r in reports)
        assert all(r.tolerance == 1e-6 for r in reports if not r.op.endswith("network"))
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"


def test_c2_metric_oracle_equivalence():
    prng = Prng(2024)
    with criterion("2", "1000 random mask pairs: counts == set oracle, "
                        "Dice = 2 IoU/(1+IoU) to 1e-12"):
        for _ in range(1000):
            pred = (prng.fill_f64(256).reshape(16, 16) < 0.5).astype(np.float32)
            ref = (prng.fill_f64(256).reshape(16, 16) < 0.5).astype(np.float32)
            p = {tuple(c) for c in np.argwhere(pred != 0)}
            r = {tuple(c) for c in np.argwhere(ref != 0)}
            c = metrics.confusion(pred, ref)
            inter, union = len(p & r), len(p | r)
            want_dice = 2 * inter / (len(p) + len(r)) if (p or r) else 1.0
            want_iou = inter / union if union else 1.0
            d, i = metrics.dice(c), metrics.iou(c)
            assert d == want_dice and i == want_iou
            assert abs(d - 2 * i / (1 + i)) <= 1e-12


def test_c3_shape_and_probability_invariants(desk_spec, desk_params):
    # sizes are multiples of the downsampling factor (16) so the additive
    # decoder skips line up; every such size is even and within [32, 256]
    prng = Prng(33)
    valid = list(range(32, 257, 16))
    with criterion("3", "50 random input sizes: spatial shape preserved, "
                        "channel sums = 1 +/- 1e-6"):
        for _ in range(50):
            h = valid[prng.next_u64() % len(valid)]
            w = valid[prng.next_u64() % len(valid)]
            x = prng.fill_f64(h * w).reshape(1, 1, h, w).astype(np.float32)
            y, _ = model.forward(desk_spec, desk_params, x)
            assert y.shape == (1, 2, h, w)
            assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-6


def test_c4_flops_params_cross_checks(desk_spec, tmp_path):
    with criterion("4", "params == checkpoint elements; hand counts 150 and "
                        "4,325,376 match"):
        params = model.init_params(desk_spec, seed=0)
        path = tmp_path / "c4.ckpt"
        model.save_checkpoint(path, desk_spec, params)
        _, loaded = model.load_checkpoint(path)
        counted = analysis.count_params(desk_spec).total_params
        assert counted == sum(v.size for v in loaded.values())
        assert analysis.node_params(desk_spec.node("ds_conv")) == 150
        report = analysis.count_flops(desk_spec, (1, 1, 256, 256))
        head = next(n for n in report.nodes if n.name == "head_conv")
        assert head.flops == 4_325_376


def test_c5_end_to_end_training(trained):
    run = trained["run1"]
    dices = parse_epoch_dices(run["log"])
    with criterion("5", "200 phantoms seed 42: val Dice >= 0.90 within <= 15 "
                        "epochs, single-threaded run under 30 min"):
        assert len(dices) <= 15
        best = max(dices)
        assert best >= 0.90, f"best val dice {best:.4f}"
        assert run["elapsed"] < 1800.0, f"training took {run['elapsed']:.0f}s"


def test_c6_speed_protocol(trained, work):
    tsv_path = work / "bench.tsv"
    proc = run_cli(["bench", "--ckpt", str(trained["run1"]["ckpt"]),
                    "--size", "128", "--tsv", str(tsv_path)])
    with criterion("6", "default bench: exactly 100 timed iterations at batch 1; "
                        "summary matches rows to 1e-9"):
        assert proc.returncode == 0, proc.stderr
        lines = tsv_path.read_text().strip().split("\n")
        assert "# batch = 1" in lines
        rows = [l for l in lines if not l.startswith("#")]
        iter_rows, summary = rows[:-1], rows[-1].split("\t")
        assert len(iter_rows) == 100
        samples = [float(r.split("\t")[1]) for r in iter_rows]
        mean = statistics.fmean(samples)
        std = math.sqrt(sum((s - mean) ** 2 for s in samples) / (len(samples) - 1))
        assert abs(float(summary[1]) - mean) <= 1e-9
        assert abs(float(summary[2]) - std) <= 1e-9


def test_c7_determinism(trained, phantom_dir, work):
    with criterion("7", "repeat training run bit-identical; predictions identical "
                        "for RFBS_THREADS in {1, 4}"):
        digests = [
            hashlib.sha256(trained[tag]["ckpt"].read_bytes()).hexdigest()
            for tag in ("run1", "run2")
        ]
        assert digests[0] == digests[1]

        outputs = {}
        for threads in ("1", "4"):
            tsv = work / f"eval_t{threads}.tsv"
            mask = work / f"mask_t{threads}.pgm"
            proc = run_cli(
                ["eval", "--data", str(phantom_dir),
                 "--ckpt", str(trained["run1"]["ckpt"]),
                 "--split", "val", "--tsv", str(tsv)],
                env_extra={"RFBS_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            proc = run_cli(
                ["infer", "--ckpt", str(trained["run1"]["ckpt"]),
                 "--in", str(phantom_dir / "img_p0000.pgm"), "--out", str(mask)],
                env_extra={"RFBS_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = (tsv.read_bytes(), mask.read_bytes())
        assert outputs["1"] == outputs["4"]


def test_c8_format_round_trips_and_corrupt_files(desk_spec, tmp_path):
    with criterion("8", "PGM/RFT1/checkpoint round-trip bitwise; truncated and "
                        "corrupt files exit 2, never crash"):
        # binary mask PGM round-trips bitwise
        mask = (Prng(88).fill_f64(32 * 32).reshape(32, 32) < 0.4).astype(np.float32)
        mask_path = tmp_path / "m.pgm"
        data.write_pgm(mask_path, mask)
        body = mask_path.read_bytes()
        data.write_pgm(tmp_path / "m2.pgm", data.read_pgm(mask_path))
        assert (tmp_path / "m2.pgm").read_bytes() == body

        # RFT1 round-trips bitwise in both dtypes
        for dtype in (np.float32, np.float64):
            t = Prng(89).fill_f64(24).reshape(2, 3, 4).astype(dtype)
            tensor.write_rft1(tmp_path / "t.rft1", t)
            assert tensor.read_rft1(tmp_path / "t.rft1").tobytes() == t.tobytes()

        # checkpoint round-trips bitwise
        params = model.init_params(desk_spec, seed=8)
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, desk_spec, params)
        _, loaded = model.load_checkpoint(ckpt, expected_spec=desk_spec)
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()

        # truncated RFT1 fails cleanly, not with a crash
        (tmp_path / "bad.rft1").write_bytes(
            tensor.encode_rft1(params["ds_conv.bias"])[:-2]
        )
        with pytest.raises(FormatError):
            tensor.read_rft1(tmp_path / "bad.rft1")

        # CLI: truncated PGM and corrupt checkpoint both exit 2
        trunc = tmp_path / "trunc.pgm"
        trunc.write_bytes(b"P5\n32 32\n255\n" + bytes(5))
        proc = run_cli(["infer", "--ckpt", str(ckpt), "--in", str(trunc),
                        "--out", str(tmp_path / "o.pgm")])
        assert proc.returncode == 2, proc.stderr
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(ckpt.read_bytes()[:40])
        img = tmp_path / "img.pgm"
        data.write_pgm(img, np.zeros((32, 32), np.float32))
        proc = run_cli(["infer", "--ckpt", str(corrupt), "--in", str(img),
                        "--out", str(tmp_path / "o.pgm")])
        assert proc.returncode == 2, proc.stderr
