import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rfbs import analysis, bench, cli, data, model, ops, tensor, training

from conftest import corrupted, run_cli


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory, desk_spec):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    model.save_checkpoint(path, desk_spec, model.init_params(desk_spec, seed=42))
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    rc = cli.main(["generate", "--out", str(root / "d"), "--count", "10",
                   "--size", "64", "--seed", "5"])
    assert rc == 0
    return str(root / "d")


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize(
    "command", ["generate", "train", "bench", "analyze", "infer", "gradcheck"]
)
def test_threads_only_on_eval(command, capsys):
    assert cli.main([command, "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_utf8_manifest_exit_2(ckpt, tmp_path, capsys, command):
    (tmp_path / "manifest.tsv").write_bytes(b"p0\t\xff\n")
    rest = {"train": ["--out", str(tmp_path / "m.ckpt")], "eval": ["--ckpt", ckpt]}
    assert cli.main([command, "--data", str(tmp_path), *rest[command]]) == 2
    assert "UTF-8" in capsys.readouterr().err


_REQUIRED = {"bench": ["--ckpt", "none.ckpt"], "generate": ["--out", "none"],
             "train": ["--data", "none", "--out", "m.ckpt"], "gradcheck": [],
             "eval": ["--data", "none", "--ckpt", "none.ckpt"], "analyze": []}


@pytest.mark.parametrize("command,key,value", [
    ("bench", "iters", "0"), ("bench", "warmup", "-1"),
    ("train", "epochs", "0"), ("train", "batch", "0"),
    ("train", "lr", "-1"), ("train", "lr", "0"), ("train", "lr", "nan"),
    ("generate", "train-fraction", "1.5"), ("generate", "train-fraction", "0"),
    ("generate", "train-fraction", "1"),
    ("gradcheck", "tol", "-1"), ("gradcheck", "tol", "inf"),
    ("generate", "size", "65"), ("generate", "size", "72"), ("generate", "count", "1"),
    ("eval", "split", "bogus"),
    ("bench", "size", "17"), ("analyze", "size", "17"), ("analyze", "arch", "resnet"),
    ("gradcheck", "scale", "huge"),
])
def test_out_of_range_value_usage_error(tmp_path, monkeypatch, capsys, command, key,
                                        value):
    monkeypatch.chdir(tmp_path)  # the check must come before any file is written
    assert cli.main([command, *_REQUIRED[command], f"--{key}", value]) == 1
    assert f"usage error: --{key}: " in capsys.readouterr().err
    conf = tmp_path / "c.conf"
    conf.write_text(f"{key} = {value}\n")
    assert cli.main([command, "--config", str(conf), *_REQUIRED[command]]) == 1
    assert f"usage error: {conf}: {key}: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.conf"]


@pytest.mark.parametrize("size", ["17", "0", "-16"])
@pytest.mark.parametrize("command", ["analyze", "bench"])
def test_size_not_a_positive_multiple_of_16(ckpt, capsys, command, size):
    ckpt_flag = ["--ckpt", ckpt] if command == "bench" else []
    assert cli.main([command, *ckpt_flag, "--size", size]) == 1
    assert "--size" in capsys.readouterr().err


@pytest.fixture
def overflowing(desk_spec, tmp_path):
    """(checkpoint whose forward overflows at d1_add, input image) paths."""
    params = model.init_params(desk_spec, seed=0)
    params["e2_conv_b.weight"] *= np.float32(1e38)
    model.save_checkpoint(tmp_path / "big.ckpt", desk_spec, params)
    data.write_pgm(tmp_path / "in.pgm", data.generate_phantoms(1, 64, seed=1).samples[0].image)
    return str(tmp_path / "big.ckpt"), str(tmp_path / "in.pgm")


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_numerical_failure_is_one_stderr_line(overflowing, dataset_dir, tmp_path, command):
    # numpy's RuntimeWarnings, from the main thread or eval's pool threads,
    # do not reach stderr ahead of the error (a fresh process, as pytest
    # captures warnings itself)
    bad, img = overflowing
    args = {"infer": ["--in", img, "--out", str(tmp_path / "o.pgm")],
            "eval": ["--data", dataset_dir, "--threads", "2"]}[command]
    proc = run_cli([command, "--ckpt", bad, *args])
    assert proc.returncode == 3
    assert proc.stderr == "numerical failure: non-finite activation in node 'd1_add'\n"


_WORK = {"eval": (training, "evaluate"), "bench": (bench, "bench_forward"),
         "analyze": (analysis, "count_flops"), "infer": (model, "forward")}


@pytest.mark.parametrize("bad", ["missing/o", "adir"])
@pytest.mark.parametrize("command,flag", [("eval", "tsv"), ("bench", "tsv"),
                                          ("analyze", "tsv"), ("infer", "out"),
                                          ("infer", "prob-out")])
def test_unwritable_output_refused_before_the_work(dataset_dir, ckpt, tmp_path,
                                                  monkeypatch, capsys, command,
                                                  flag, bad):
    img = tmp_path / "in.pgm"
    data.write_pgm(img, data.generate_phantoms(1, 64, seed=6).samples[0].image)
    out_dir = tmp_path / "out"
    (out_dir / "adir").mkdir(parents=True)
    module, name = _WORK[command]
    monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail(f"{name} ran"))
    outputs = {"tsv": "", "out": str(out_dir / "m.pgm"), "prob-out": ""}
    outputs[flag] = str(out_dir / bad)  # a missing directory, or a directory
    args = {"eval": ["--data", dataset_dir, "--ckpt", ckpt],
            "bench": ["--ckpt", ckpt, "--iters", "1", "--warmup", "0", "--size", "32"],
            "analyze": ["--size", "64"],
            "infer": ["--ckpt", ckpt, "--in", str(img), "--out", outputs["out"]]}[command]
    if outputs[flag] not in args:
        args += [f"--{flag}", outputs[flag]]
    assert cli.main([command, *args]) == 2
    out, err = capsys.readouterr()
    reason = " is a directory" if bad == "adir" else ": its directory does not exist"
    assert err == f"error: output path {outputs[flag]}{reason}\n"
    assert all(line.startswith("#") for line in out.splitlines())
    assert os.listdir(out_dir) == ["adir"] and os.listdir(out_dir / "adir") == []


@pytest.fixture
def inputs(dataset_dir, ckpt, tmp_path, monkeypatch):
    """Runs in tmp_path, which holds a dataset d/, m.ckpt, in.pgm, an empty
    config c.conf, the symlinks ckpt.lnk -> m.ckpt and o.lnk -> o.pgm (not
    there yet), with every command's work stubbed to fail; returns a
    snapshot of tmp_path's files, taken again to check nothing changed."""
    shutil.copytree(dataset_dir, tmp_path / "d")
    shutil.copy(ckpt, tmp_path / "m.ckpt")
    image = data.generate_phantoms(1, 64, seed=6).samples[0].image
    data.write_pgm(tmp_path / "in.pgm", image)
    (tmp_path / "c.conf").write_text("# no keys\n")
    os.symlink("m.ckpt", tmp_path / "ckpt.lnk")
    os.symlink("o.pgm", tmp_path / "o.lnk")
    for module, name in [*_WORK.values(), (training, "train")]:
        monkeypatch.setattr(module, name,
                            lambda *a, _n=name, **k: pytest.fail(f"{_n} ran"))
    monkeypatch.chdir(tmp_path)

    def snapshot():
        return {str(p): p.read_bytes() for p in sorted(tmp_path.rglob("*"))
                if p.is_file()}

    return snapshot


def _refused(snapshot, capsys, args, message):
    before = snapshot()
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert all(line.startswith("#") for line in out.splitlines())
    assert snapshot() == before


@pytest.mark.parametrize("args, message", [
    (["train", "--data", "d", "--out", "o.ckpt", "--log", "o.ckpt"],
     "output path o.ckpt is the same file as output --out o.ckpt"),
    (["infer", "--ckpt", "m.ckpt", "--in", "in.pgm", "--out", "o.pgm",
      "--prob-out", "o.lnk"], "output path o.lnk is the same file as output --out o.pgm"),
], ids=["train-log-is-out", "infer-prob-out-links-to-out"])
def test_output_that_is_another_output_refused(inputs, capsys, args, message):
    _refused(inputs, capsys, args, message)


@pytest.mark.parametrize("args, message", [
    (["eval", "--data", "d", "--ckpt", "m.ckpt", "--tsv", "m.ckpt"],
     "output path m.ckpt is the same file as input --ckpt m.ckpt"),
    (["bench", "--ckpt", "m.ckpt", "--tsv", "ckpt.lnk"],
     "output path ckpt.lnk is the same file as input --ckpt m.ckpt"),
    (["infer", "--ckpt", "m.ckpt", "--in", "in.pgm", "--out", "in.pgm"],
     "output path in.pgm is the same file as input --in in.pgm"),
    (["infer", "--ckpt", "m.ckpt", "--in", "in.pgm", "--out", "o.pgm", "--prob-out",
      "m.ckpt"], "output path m.ckpt is the same file as input --ckpt m.ckpt"),
    (["analyze", "--config", "c.conf", "--tsv", "c.conf"],
     "output path c.conf is the same file as input --config c.conf"),
    (["train", "--config", "c.conf", "--data", "d", "--out", "o.ckpt", "--log", "c.conf"],
     "output path c.conf is the same file as input --config c.conf"),
], ids=["eval-tsv-ckpt", "bench-tsv-links-to-ckpt", "infer-out-in", "infer-prob-out-ckpt",
        "analyze-tsv-config", "train-log-config"])
def test_output_that_is_an_input_refused(inputs, capsys, args, message):
    _refused(inputs, capsys, args, message)


@pytest.mark.parametrize("args, path", [
    (["train", "--data", "d", "--out", "d/manifest.tsv"], "d/manifest.tsv"),
    (["train", "--data", "d", "--out", "o.ckpt", "--log", "d/img_p0000.pgm"],
     "d/img_p0000.pgm"),
    (["eval", "--data", "d/", "--ckpt", "m.ckpt", "--tsv", "d/mask_p0001.pgm"],
     "d/mask_p0001.pgm"),
], ids=["train-out", "train-log", "eval-tsv"])
def test_output_that_is_a_dataset_file_refused(inputs, capsys, args, path):
    data_flag = args[args.index("--data") + 1]
    _refused(inputs, capsys, args,
             f"output path {path} is a file of the dataset --data {data_flag}")


def test_new_output_inside_the_dataset_allowed(inputs):
    cli._check_outputs("eval", {"data": "d", "ckpt": "m.ckpt", "tsv": "d/r.tsv"})
    cli._check_outputs("train", {"data": "d", "out": "d/m.ckpt", "log": ""})


class TestAllocatorPolicy:
    """cli._keep_freed_memory: on glibc, mallopt(M_MMAP_THRESHOLD, 32 MiB) and,
    only if that is accepted, mallopt(M_TRIM_THRESHOLD, 1 GiB)."""

    @pytest.fixture
    def libc(self, monkeypatch):
        """On a stubbed glibc, `install(make)` makes ctypes.CDLL(None) return
        make(calls) and returns `calls`, the list the stub records into."""
        calls = []
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")

        def install(lib):
            monkeypatch.setattr(ctypes, "CDLL", lambda name: lib(calls))
            return calls

        return install

    def test_mmap_threshold_then_trim_threshold(self, libc):
        calls = libc(lambda calls: types.SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value)) or 1))
        cli._keep_freed_memory()
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_refused_mmap_threshold_sets_no_trim_threshold(self, libc):
        calls = libc(lambda calls: types.SimpleNamespace(
            mallopt=lambda param, value: calls.append((param, value)) or 0))
        cli._keep_freed_memory()
        assert calls == [(-3, 32 << 20)]

    def test_no_libc_or_no_mallopt_raises_nothing(self, libc):
        def unloadable(calls):
            raise OSError("no libc")

        libc(unloadable)
        cli._keep_freed_memory()
        libc(lambda calls: object())
        cli._keep_freed_memory()

    @pytest.mark.parametrize("confstr", ["none", "unknown name", "missing"])
    def test_not_glibc_calls_nothing(self, libc, monkeypatch, confstr):
        def other_libc(name):
            if confstr == "unknown name":
                raise ValueError("unrecognized configuration name")
            return None

        calls = libc(lambda calls: calls.append("CDLL"))
        if confstr == "missing":
            monkeypatch.delattr(os, "confstr")
        else:
            monkeypatch.setattr(os, "confstr", other_libc)
        cli._keep_freed_memory()
        assert calls == []

    _BROKEN = {
        "oserror": "def cdll(name, *a, **k): raise OSError('no libc')",
        "no-mallopt": "def cdll(name, *a, **k): return object()",
        "refused": ("def cdll(name, *a, **k):\n"
                    "    return types.SimpleNamespace(mallopt=lambda p, v: 0)"),
    }

    @pytest.mark.parametrize("stub", sorted(_BROKEN))
    def test_import_with_a_broken_libc_raises_nothing(self, stub):
        script = ("import ctypes, types\n" + self._BROKEN[stub]
                  + "\nctypes.CDLL = cdll\nimport rfbs.cli\nprint('ok')\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")

    # One batch-8 64x64 forward and backward, with the policy (rfbs.cli
    # imported first) or without it; prints whether a fresh 16 MiB buffer
    # was mmap'd, then a digest of the loss and every gradient.
    _STEP = """
import ctypes, hashlib, sys
if sys.argv[1] == "policy":
    import rfbs.cli
import numpy as np
from rfbs import data, model, training

class Info(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Info
before = mallinfo2().hblkhd
probe = np.ones(16 << 20, np.uint8)
print(mallinfo2().hblkhd - before >= 16 << 20)
del probe
samples = data.generate_phantoms(8, 64, seed=0).samples
images = np.stack([s.image for s in samples])
masks = np.stack([s.mask for s in samples])
spec = model.build_rfbsnet_desk()
params = model.init_params(spec, 3)
prob, tape = model.forward(spec, params, images, keep_intermediates=True)
loss, dprob = training.soft_dice_loss(prob, masks)
grads = model.backward(tape, dprob)
h = hashlib.sha256(float(loss).hex().encode())
for name in params:
    h.update(np.ascontiguousarray(grads[name]).tobytes())
print(h.hexdigest())
"""

    def test_step_byte_identical_with_and_without_the_policy(self):
        try:
            glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
        except (AttributeError, ValueError, OSError):
            glibc = False
        if not glibc or not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("the policy applies on glibc only; its check needs mallinfo2 (2.33)")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
        runs = {}
        for side in ("policy", "none"):
            proc = subprocess.run([sys.executable, "-c", self._STEP, side], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs[side] = proc.stdout.split()
        assert runs["policy"][0] == "False" and runs["none"][0] == "True"
        assert runs["policy"][1] == runs["none"][1]


class TestGenerate:
    def test_reports_count(self, dataset_dir, capsys):
        assert len(data.load_dataset(dataset_dir)) == 10

    def test_odd_size_usage_error(self, tmp_path):
        assert cli.main(["generate", "--out", str(tmp_path / "x"),
                         "--count", "4", "--size", "65"]) == 1

    @pytest.mark.parametrize("extra", [[], ["--train-fraction", "0.1"]])
    def test_empty_split_exit_2_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                               extra):
        # 2 samples at 0.8 round to 2 train and 0 val; at 0.1, to 0 train
        monkeypatch.chdir(tmp_path)
        assert cli.main(["generate", "--out", "d", "--count", "2", "--size", "64",
                         *extra]) == 2
        assert "both must be >= 1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_same_seed_same_digest(self, tmp_path):
        for sub in ("a", "b"):
            rc = cli.main(["generate", "--out", str(tmp_path / sub), "--count", "6",
                           "--size", "64", "--seed", "3"])
            assert rc == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_out_of_memory_exit_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(data, "generate_phantoms", exhausted)
        assert cli.main(["generate", "--out", str(tmp_path / "d"), "--count", "2",
                         "--size", "100000"]) == 2
        assert "error: Unable to allocate 74.5 GiB" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_config_echoed(self, tmp_path, capsys):
        cli.main(["generate", "--out", str(tmp_path / "c"), "--count", "4",
                  "--size", "64"])
        out = capsys.readouterr().out
        assert "# command = generate" in out
        assert "# count = 4" in out
        assert "# seed = 0" in out  # defaults echoed too


class TestConfigFile:
    def test_file_values_and_override(self, tmp_path, capsys):
        conf = tmp_path / "gen.conf"
        conf.write_text("count = 4\nsize = 64  # inline comment\nseed = 9\n")
        rc = cli.main(["generate", "--config", str(conf), "--out", str(tmp_path / "d"),
                       "--seed", "11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# count = 4" in out
        assert "# seed = 11" in out  # explicit flag beats the file

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("bogus = 1\n")
        assert cli.main(["generate", "--config", str(conf),
                         "--out", str(tmp_path / "d")]) == 1

    def test_malformed_line(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("count 4\n")
        assert cli.main(["generate", "--config", str(conf),
                         "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("line", [b"out = \xff\xfe\n", b"out = a\0b\n"])
    def test_non_utf8_or_nul_exit_2(self, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(line)
        assert cli.main(["generate", "--config", str(conf)]) == 2
        assert str(conf) in capsys.readouterr().err

    @given(st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_file_exits_0_1_or_2(self, ckpt, tmp_path, monkeypatch, fuzz):
        # relative paths in a fuzzed file land in tmp_path
        monkeypatch.chdir(tmp_path)
        if not os.path.exists("in.pgm"):
            data.write_pgm("in.pgm", data.generate_phantoms(1, 64, seed=6).samples[0].image)
        command, text = fuzz.draw(st.sampled_from([
            ("analyze", "arch = rfbsnet-desk\nsize = 64\ntsv = rows.tsv\n"),
            ("infer", f"ckpt = {ckpt}\nin = in.pgm\nout = o.pgm\nprob-out = p.rft1\n"),
        ]))
        with open("fuzz.conf", "wb") as fh:
            fh.write(corrupted(fuzz, text.encode()))
        assert cli.main([command, "--config", "fuzz.conf"]) in (0, 1, 2)


class TestTrain:
    def test_missing_dir_is_data_error(self, tmp_path):
        assert cli.main(["train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"]) == 2

    def test_mixed_image_sizes_in_a_batch_exit_2(self, tmp_path, capsys):
        small = data.generate_phantoms(3, 64, seed=1).samples
        large = data.generate_phantoms(3, 96, seed=2).samples
        for s in large:
            s.id = "q" + s.id[1:]
        data.save_dataset(tmp_path / "d", data.Dataset(
            samples=small + large, splits=["train", "train", "val"] * 2))
        out = tmp_path / "m.ckpt"
        assert cli.main(["train", "--data", str(tmp_path / "d"), "--out", str(out),
                         "--epochs", "1", "--batch", "8"]) == 2
        err = capsys.readouterr().err
        assert "64x64" in err and "96x96" in err
        assert not out.exists()

    def test_writes_checkpoint_and_log(self, dataset_dir, tmp_path, desk_spec):
        out = tmp_path / "m.ckpt"
        rc = cli.main(["train", "--data", dataset_dir, "--out", str(out),
                       "--epochs", "1", "--batch", "4", "--seed", "1"])
        assert rc == 0
        _, params = model.load_checkpoint(out, expected_spec=desk_spec)
        assert sum(v.size for v in params.values()) == 382552
        log_lines = (tmp_path / "m.ckpt.log").read_text().strip().split("\n")
        assert any(l.startswith("step\t") for l in log_lines)
        assert any(l.startswith("epoch\t") for l in log_lines)

    def test_outputs_independent_of_cpu_count(self, dataset_dir, tmp_path, monkeypatch):
        digests = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(ops, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}.ckpt"
            assert cli.main(["train", "--data", dataset_dir, "--out", str(out),
                             "--epochs", "1", "--batch", "4", "--seed", "2"]) == 0
            log = out.with_name(out.name + ".log")
            digests.append([hashlib.sha256(f.read_bytes()).hexdigest()
                            for f in (out, log)])
        assert digests[1] == digests[0] and digests[2] == digests[0]

    @pytest.mark.parametrize("flag, bad", [("out", "missing/m.ckpt"), ("out", ""),
                                           ("log", "missing/m.log"), ("log", "")])
    def test_unwritable_output_refused_before_training(self, dataset_dir, tmp_path,
                                                       capsys, flag, bad):
        paths = {"out": str(tmp_path / "m.ckpt"), "log": str(tmp_path / "m.log")}
        paths[flag] = str(tmp_path / bad)  # a missing directory, or a directory
        assert cli.main(["train", "--data", dataset_dir, "--out", paths["out"],
                         "--log", paths["log"], "--epochs", "1"]) == 2
        out, err = capsys.readouterr()
        assert paths[flag] in err
        assert not [line for line in out.splitlines() if line.startswith("epoch")]
        assert os.listdir(tmp_path) == []

    def test_diverging_run_exit_3(self, tmp_path, capsys):
        assert cli.main(["generate", "--out", str(tmp_path / "d"), "--count", "4",
                         "--size", "64", "--seed", "1"]) == 0
        assert cli.main(["train", "--data", str(tmp_path / "d"),
                         "--out", str(tmp_path / "m.ckpt"), "--lr", "1e36",
                         "--batch", "1", "--epochs", "3"]) == 3
        err = capsys.readouterr().err
        assert "epoch 0 batch 1: non-finite activation in node 'sh_conv'" in err


class TestEval:
    def test_row_count_matches_split(self, dataset_dir, ckpt, capsys):
        rc = cli.main(["eval", "--data", dataset_dir, "--ckpt", ckpt, "--split", "val"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [l for l in out.strip().split("\n")
                if "\t" in l and not l.startswith(("#", "AGGREGATE"))]
        n_val = data.load_dataset(dataset_dir).splits.count("val")
        assert len(rows) == n_val

    def test_aggregate_matches_rows(self, dataset_dir, ckpt, tmp_path, capsys):
        tsv = tmp_path / "r.tsv"
        rc = cli.main(["eval", "--data", dataset_dir, "--ckpt", ckpt,
                       "--split", "all", "--tsv", str(tsv)])
        assert rc == 0
        capsys.readouterr()
        lines = tsv.read_text().strip().split("\n")
        body = [l.split("\t") for l in lines if not l.startswith("AGGREGATE")]
        agg = lines[-1].split("\t")
        dices = [float(r[1]) for r in body]
        ious = [float(r[2]) for r in body]
        mean_d = sum(dices) / len(dices)
        std_d = (sum((d - mean_d) ** 2 for d in dices) / (len(dices) - 1)) ** 0.5
        # row values carry 6 decimals; allow the induced rounding slack
        assert abs(float(agg[1]) - mean_d) <= 2e-6
        assert abs(float(agg[2]) - std_d) <= 2e-6
        assert abs(float(agg[3]) - sum(ious) / len(ious)) <= 2e-6

    def test_perfect_oracle_masks_give_dice_one(self, ckpt, tmp_path, capsys):
        # dataset whose reference masks are the model's own predictions
        ds_dir = tmp_path / "oracle"
        assert cli.main(["generate", "--out", str(ds_dir), "--count", "4",
                         "--size", "64", "--seed", "2"]) == 0
        for sid in [s.id for s in data.load_dataset(ds_dir).samples]:
            rc = cli.main(["infer", "--ckpt", ckpt,
                           "--in", str(ds_dir / f"img_{sid}.pgm"),
                           "--out", str(ds_dir / f"mask_{sid}.pgm")])
            assert rc == 0
        capsys.readouterr()
        rc = cli.main(["eval", "--data", str(ds_dir), "--ckpt", ckpt, "--split", "all"])
        assert rc == 0
        out = capsys.readouterr().out
        agg = [l for l in out.strip().split("\n") if l.startswith("AGGREGATE")][0]
        assert agg.split("\t")[1] == "1.000000"

    def test_empty_split_exit_2(self, ckpt, tmp_path, capsys):
        data.save_dataset(tmp_path, data.generate_phantoms(2, 64, seed=1))  # all train
        assert cli.main(["eval", "--data", str(tmp_path), "--ckpt", ckpt,
                         "--split", "val"]) == 2
        assert capsys.readouterr().err == "error: split 'val' has no samples\n"

    def test_repeated_manifest_id_exit_2(self, dataset_dir, ckpt, tmp_path, capsys):
        ds_dir = tmp_path / "d"
        data.save_dataset(ds_dir, data.load_dataset(dataset_dir))
        first = (ds_dir / "manifest.tsv").read_text().split("\t")[0]
        with open(ds_dir / "manifest.tsv", "a", encoding="utf-8") as fh:
            fh.write(f"{first}\tval\n")
        assert cli.main(["eval", "--data", str(ds_dir), "--ckpt", ckpt,
                         "--split", "all"]) == 2
        err = capsys.readouterr().err
        assert f"line 11: sample {first!r} is already listed on line 1" in err

    def test_reads_only_the_split_it_scores(self, ckpt, tmp_path, monkeypatch):
        ds_dir = tmp_path / "d"
        assert cli.main(["generate", "--out", str(ds_dir), "--count", "12",
                         "--size", "64", "--seed", "3"]) == 0
        read_pgm, reads = data.read_pgm, []
        monkeypatch.setattr(data, "read_pgm", lambda p: reads.append(p) or read_pgm(p))
        args = ["eval", "--data", str(ds_dir), "--ckpt", ckpt, "--split"]
        assert cli.main(args + ["val"]) == 0
        assert len(reads) == 4  # image and mask of the 2 val samples
        train_id = next(line.split("\t")[0] for line in
                        (ds_dir / "manifest.tsv").read_text().splitlines()
                        if line.endswith("train"))
        (ds_dir / f"img_{train_id}.pgm").write_bytes(b"P5\n")
        assert cli.main(args + ["val"]) == 0
        assert cli.main(args + ["all"]) == 2

    def test_corrupt_checkpoint_exit_2(self, dataset_dir, tmp_path, ckpt):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(Path(ckpt).read_bytes()[:50])
        assert cli.main(["eval", "--data", dataset_dir, "--ckpt", str(bad)]) == 2

    def test_bad_split_usage_error(self, dataset_dir, ckpt):
        assert cli.main(["eval", "--data", dataset_dir, "--ckpt", ckpt,
                         "--split", "test"]) == 1

    def test_threads_below_one_usage_error(self, dataset_dir, ckpt, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.setenv("RFBS_THREADS", "2")
        conf = tmp_path / "eval.conf"
        for value in ("0", "-2", "x"):
            assert cli.main(["eval", "--data", dataset_dir, "--ckpt", ckpt,
                             "--threads", value]) == 1
            assert "usage error: --threads: " in capsys.readouterr().err
            conf.write_text(f"threads = {value}\n")
            assert cli.main(["eval", "--config", str(conf), "--data", dataset_dir,
                             "--ckpt", ckpt]) == 1
            assert f"usage error: {conf}: threads: " in capsys.readouterr().err
            # an explicit flag's label wins over the file's
            assert cli.main(["eval", "--config", str(conf), "--data", dataset_dir,
                             "--ckpt", ckpt, "--threads", value]) == 1
            err = capsys.readouterr().err
            assert "usage error: --threads: " in err and str(conf) not in err

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_rfbs_threads_env_checked_like_the_flag(self, dataset_dir, ckpt,
                                                    monkeypatch, value, tmp_path,
                                                    capsys):
        monkeypatch.setenv("RFBS_THREADS", value)
        assert cli.main(["eval", "--data", dataset_dir, "--ckpt", ckpt]) == 1
        assert "usage error: RFBS_THREADS: " in capsys.readouterr().err
        # a usage error wins over the data error of a missing dataset
        assert cli.main(["eval", "--data", str(tmp_path / "none"), "--ckpt", ckpt]) == 1

    def test_rfbs_threads_env_sets_workers(self, dataset_dir, ckpt, monkeypatch,
                                           capsys):
        monkeypatch.setenv("RFBS_THREADS", "2")
        assert cli.main(["eval", "--data", dataset_dir, "--ckpt", ckpt]) == 0
        assert "# threads = 2" in capsys.readouterr().out.splitlines()


class TestBench:
    def test_iters_flag(self, ckpt, tmp_path, capsys):
        tsv = tmp_path / "b.tsv"
        rc = cli.main(["bench", "--ckpt", ckpt, "--iters", "5", "--warmup", "1",
                       "--size", "32", "--tsv", str(tsv)])
        assert rc == 0
        capsys.readouterr()
        rows = [l for l in tsv.read_text().strip().split("\n")
                if not l.startswith("#")]
        assert len(rows) == 6  # 5 iterations + SUMMARY
        summary = rows[-1].split("\t")
        mean, lo, hi = float(summary[1]), float(summary[3]), float(summary[4])
        assert lo <= mean <= hi

    def test_bad_size(self, ckpt):
        assert cli.main(["bench", "--ckpt", ckpt, "--size", "100"]) == 1


class TestAnalyze:
    def test_unknown_arch_lists_known(self, capsys):
        rc = cli.main(["analyze", "--arch", "resnet"])
        assert rc == 1
        assert "rfbsnet-desk" in capsys.readouterr().err

    def test_totals_and_checkpoint_cross_check(self, ckpt, tmp_path, capsys, desk_spec):
        tsv = tmp_path / "a.tsv"
        rc = cli.main(["analyze", "--arch", "rfbsnet-desk", "--size", "64",
                       "--tsv", str(tsv)])
        assert rc == 0
        capsys.readouterr()
        rows = [l.split("\t") for l in tsv.read_text().strip().split("\n")
                if not l.startswith("#")]
        body, total = rows[:-1], rows[-1]
        assert int(total[4]) == sum(int(r[4]) for r in body)
        _, params = model.load_checkpoint(ckpt, expected_spec=desk_spec)
        assert int(total[3]) == sum(v.size for v in params.values())

    def test_huge_size_allocates_no_image(self, capsys):
        # shapes come from a forward on an empty batch: at 65536 one image's
        # conv buffer alone would be 60 GiB
        assert cli.main(["analyze", "--size", "65536"]) == 0
        total = capsys.readouterr().out.strip().split("\n")[-1].split()
        assert total == ["TOTAL", "382552", "51144470560768"]


class TestInfer:
    def test_output_bivalued_and_deterministic(self, ckpt, tmp_path, capsys):
        img = tmp_path / "in.pgm"
        data.write_pgm(img, data.generate_phantoms(1, 64, seed=6).samples[0].image)
        outputs = []
        for name in ("o1.pgm", "o2.pgm"):
            rc = cli.main(["infer", "--ckpt", ckpt, "--in", str(img),
                           "--out", str(tmp_path / name)])
            assert rc == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        pixels = np.frombuffer(outputs[0].split(b"255\n", 1)[1], dtype=np.uint8)
        assert set(np.unique(pixels)) <= {0, 255}

    def test_odd_size_exit_2(self, ckpt, tmp_path, capsys):
        img = tmp_path / "odd.pgm"
        img.write_bytes(b"P5\n33 48\n255\n" + bytes(33 * 48))
        rc = cli.main(["infer", "--ckpt", ckpt, "--in", str(img),
                       "--out", str(tmp_path / "o.pgm")])
        assert rc == 2
        assert "multiples of 16" in capsys.readouterr().err

    def test_truncated_pgm_exit_2(self, ckpt, tmp_path):
        img = tmp_path / "trunc.pgm"
        img.write_bytes(b"P5\n32 32\n255\n" + bytes(10))
        assert cli.main(["infer", "--ckpt", ckpt, "--in", str(img),
                         "--out", str(tmp_path / "o.pgm")]) == 2

    @pytest.mark.parametrize("field", [b"6_4", b"+64", b"-1"])
    def test_non_decimal_pgm_header_exit_2(self, ckpt, tmp_path, capsys, field):
        img = tmp_path / "in.pgm"
        img.write_bytes(b"P5\n%s 64\n255\n" % field + bytes(64 * 64))
        assert cli.main(["infer", "--ckpt", ckpt, "--in", str(img),
                         "--out", str(tmp_path / "o.pgm")]) == 2
        assert "decimal" in capsys.readouterr().err
        assert not (tmp_path / "o.pgm").exists()

    def test_non_utf8_checkpoint_name_exit_2(self, ckpt, tmp_path, capsys):
        bad = tmp_path / "name.ckpt"
        blob = bytearray(Path(ckpt).read_bytes())
        blob[16] = 0xFF  # first name byte: after the 14-byte header and a u16 length
        bad.write_bytes(bytes(blob))
        img = tmp_path / "in.pgm"
        data.write_pgm(img, data.generate_phantoms(1, 64, seed=6).samples[0].image)
        assert cli.main(["infer", "--ckpt", str(bad), "--in", str(img),
                         "--out", str(tmp_path / "o.pgm")]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_prob_out_rft1(self, ckpt, tmp_path, capsys):
        img = tmp_path / "in.pgm"
        data.write_pgm(img, data.generate_phantoms(1, 64, seed=6).samples[0].image)
        prob_path = tmp_path / "p.rft1"
        rc = cli.main(["infer", "--ckpt", ckpt, "--in", str(img),
                       "--out", str(tmp_path / "o.pgm"), "--prob-out", str(prob_path)])
        assert rc == 0
        prob = tensor.read_rft1(prob_path)
        assert prob.shape == (1, 2, 64, 64)
        assert np.abs(prob.sum(axis=1) - 1.0).max() <= 1e-6

    def test_overflowing_checkpoint_exit_3(self, overflowing, tmp_path, capsys):
        bad, img = overflowing
        assert cli.main(["infer", "--ckpt", bad, "--in", img,
                         "--out", str(tmp_path / "o.pgm")]) == 3
        err = capsys.readouterr().err
        assert "non-finite activation in node 'd1_add'" in err
        assert not (tmp_path / "o.pgm").exists()


class TestGradcheck:
    def test_clean_run(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 11
        assert "max rel error" in out

    def test_negative_control(self, capsys):
        assert cli.main(["gradcheck", "--self-test-corrupt"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_bad_scale(self):
        assert cli.main(["gradcheck", "--scale", "huge"]) == 1

    def test_self_test_corrupt_false(self, capsys):
        assert cli.main(["gradcheck", "--self-test-corrupt", "false"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_self_test_corrupt_not_a_boolean(self, capsys):
        assert cli.main(["gradcheck", "--self-test-corrupt", "maybe"]) == 1
        assert "usage error" in capsys.readouterr().err


def _digest(blob):
    return hashlib.sha256(blob).hexdigest()[:16]


def test_cli_recipe_golden_digests(tmp_path):
    """What the small CLI recipe computes, pinned at the default BLAS core.

    Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 (core SkylakeX); two hosts
    that read different digests for a batch-8 256x256 step read these. A
    one-ulp change in training (conv2d_vjp summing its per-image weight
    gradients in reverse order) moves the checkpoint and the log; the eval
    records, rounded to 6 dp, stay."""
    d, ckpt = tmp_path / "d", tmp_path / "m.ckpt"
    steps = [
        ["generate", "--out", d, "--count", "12", "--size", "64", "--seed", "3"],
        ["train", "--data", d, "--out", ckpt, "--epochs", "2", "--batch", "4",
         "--seed", "5"],
        ["analyze", "--size", "256"],
        ["eval", "--data", d, "--ckpt", ckpt, "--split", "val"],
    ]
    procs = [run_cli([str(a) for a in args]) for args in steps]
    assert [p.returncode for p in procs] == [0, 0, 0, 0], [p.stderr for p in procs]
    records = "".join(line + "\n" for line in procs[3].stdout.splitlines()
                      if not line.startswith("#"))
    assert {
        "checkpoint": _digest(ckpt.read_bytes()),
        "log": _digest((tmp_path / "m.ckpt.log").read_bytes()),
        "analyze": _digest(procs[2].stdout.encode()),
        "eval": _digest(records.encode()),
    } == {
        "checkpoint": "b9ebe480ead7d564",
        "log": "09b059d88e04673d",
        "analyze": "1fc57636a3fe0303",
        "eval": "16de8a8b2cf9d5be",
    }
