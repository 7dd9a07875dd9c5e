"""Command-line front end: generate / train / eval / bench / analyze / infer /
gradcheck.

Exit codes: 0 success, 1 usage error, 2 data/format error or out of memory,
3 numerical failure. Flags may also come from a `key = value` config file
(# comments); explicit command-line flags win, unknown keys are rejected, and
the effective configuration is echoed as `# key = value` lines first.
"""

import math
import os
import sys
import warnings

# Pin BLAS pools to one thread so results are bit-identical regardless of the
# machine's core count; must happen before numpy is first imported. The conv
# ops spread a batch's images, and validation and eval their samples, over the
# usable CPUs by one rule (ops.each_image), with results that do not depend on
# the CPU count; RFBS_THREADS and --threads only cap eval's thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse

from . import analysis, bench, data, gradsuite, metrics, model, training
from .errors import FormatError, NumericsError, ShapeError, UnsupportedConfigError
from .tensor import write_rft1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise UsageError(f"expected a boolean, got {raw!r}")


def _checked(convert, ok, rule):
    """An option type: `convert` the raw string, then require `ok(value)`."""

    def typ(raw):
        value = convert(raw)
        if not ok(value):
            raise UsageError(f"must be {rule}, got {value!r}")
        return value

    return typ


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def _choice(*names):
    return _checked(str, lambda v: v in names, f"one of {', '.join(names)}")


def _net_size(raw):
    """An input H = W: a positive multiple of the network's downsampling, looked
    up per conversion so that importing the CLI builds no network."""
    m = model.build_rfbsnet_desk().total_downsampling_factor
    typ = _checked(int, lambda v: v > 0 and v % m == 0, f"a positive multiple of {m}")
    return typ(raw)


# name -> (type, default, help); the type converts the raw string and enforces
# every rule on the value; default None marks a required value.
_COMMANDS = {
    "generate": {
        "out": (str, None, "output dataset directory"),
        "count": (_checked(int, lambda v: v >= 2, ">= 2"), 250, "number of phantoms"),
        "size": (_checked(_net_size, lambda v: v >= 64, ">= 64"), 256,
                 "image size (a multiple of 16, >= 64)"),
        "seed": (int, 0, "generation/split seed"),
        "train-fraction": (_checked(float, lambda v: 0 < v < 1, "in (0, 1)"), 0.8,
                           "train split fraction"),
    },
    "train": {
        "data": (str, None, "dataset directory"),
        "out": (str, None, "checkpoint output path"),
        "epochs": (_positive_int, 15, "training epochs"),
        "batch": (_positive_int, 8, "batch size"),
        "lr": (_positive_float, 1e-4, "initial learning rate"),
        "seed": (int, 0, "init/shuffle seed"),
        "log": (str, "", "train log path (default: <out>.log)"),
    },
    "eval": {
        "data": (str, None, "dataset directory"),
        "ckpt": (str, None, "checkpoint path"),
        "split": (_choice("train", "val", "all"), "val",
                  "split to evaluate: train|val|all"),
        "tsv": (str, "", "also write the records to this file"),
        "threads": (_positive_int, 1, "worker count (default: RFBS_THREADS, else 1)"),
    },
    "bench": {
        "ckpt": (str, None, "checkpoint path"),
        "iters": (_positive_int, 100, "timed iterations"),
        "warmup": (_checked(int, lambda v: v >= 0, ">= 0"), 10,
                   "untimed warmup iterations"),
        "size": (_net_size, 256, "input H = W"),
        "tsv": (str, "", "also write per-iteration rows to this file"),
    },
    "analyze": {
        "arch": (_choice("rfbsnet-desk"), "rfbsnet-desk", "architecture id"),
        "size": (_net_size, 256, "input H = W"),
        "tsv": (str, "", "also write the rows to this file"),
    },
    "infer": {
        "ckpt": (str, None, "checkpoint path"),
        "in": (str, None, "input PGM image"),
        "out": (str, None, "output mask PGM"),
        "prob-out": (str, "", "optional RFT1 probability map output"),
    },
    "gradcheck": {
        "scale": (_choice("small", "full"), "small", "coordinate sampling: small|full"),
        "tol": (_positive_float, 1e-5, "whole-network tolerance"),
        "self-test-corrupt": (_parse_bool, False, "inject a broken gradient "
                              "(negative control; must fail)"),
    },
}


def _build_parser():
    parser = _Parser(prog="rfbs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="key = value config file")
        for name, (typ, default, helptext) in options.items():
            if typ is _parse_bool:
                p.add_argument(f"--{name}", nargs="?", const="true",
                               default=argparse.SUPPRESS, help=helptext)
            else:
                p.add_argument(f"--{name}", type=str, default=argparse.SUPPRESS,
                               help=helptext)
    return parser


def _read_config_file(path, options):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read config file {path}: {e}") from e
    for lineno, raw in enumerate(lines, 1):
        if "\0" in raw:
            raise FormatError(f"{path}:{lineno}: NUL character")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in options:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _resolve(args, command):
    """defaults <- RFBS_THREADS <- config file <- explicit flags, with type
    conversion; a conversion error names the source of the bad value."""
    options = _COMMANDS[command]
    raw = {}  # name -> (value, source)
    if "threads" in options and "RFBS_THREADS" in os.environ:
        raw["threads"] = (os.environ["RFBS_THREADS"], "RFBS_THREADS")
    if hasattr(args, "config"):
        for k, v in _read_config_file(args.config, options).items():
            raw[k] = (v, f"{args.config}: {k}")
    for k, v in vars(args).items():
        if k not in ("command", "config"):
            k = k.replace("_", "-")
            raw[k] = (v, f"--{k}")
    cfg = {}
    for name, (typ, default, _help) in options.items():
        if name in raw:
            value, source = raw[name]
            try:
                cfg[name] = typ(value)
            except (ValueError, UsageError) as e:
                raise UsageError(f"{source}: {e}") from None
        elif default is None:
            raise UsageError(f"missing required option --{name}")
        else:
            cfg[name] = default
    return cfg


def _echo_config(command, cfg):
    print(f"# command = {command}")
    for key in sorted(cfg):
        print(f"# {key} = {cfg[key]}")


def _load_model(ckpt_path):
    spec = model.build_rfbsnet_desk()
    _, params = model.load_checkpoint(ckpt_path, expected_spec=spec)
    return spec, params


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_generate(cfg):
    dataset = data.generate_phantoms(cfg["count"], cfg["size"], cfg["seed"])
    dataset = data.split(dataset, cfg["train-fraction"], cfg["seed"])
    data.save_dataset(cfg["out"], dataset)
    n_train = dataset.splits.count("train")
    print(f"wrote {len(dataset)} samples ({n_train} train, "
          f"{len(dataset) - n_train} val) to {cfg['out']}")
    return 0


def cmd_train(cfg):
    log_path = cfg["log"] or cfg["out"] + ".log"
    for path in (cfg["out"], log_path):  # refused before the first step
        if os.path.isdir(path):
            raise FormatError(f"output path {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FormatError(f"output path {path}: its directory does not exist")
    dataset = data.load_dataset(cfg["data"])
    spec = model.build_rfbsnet_desk()
    train_cfg = training.TrainConfig(
        batch_size=cfg["batch"],
        initial_lr=cfg["lr"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
    )

    def progress(epoch, train_loss, val_dice, seconds):
        print(f"epoch {epoch}: train_loss {train_loss:.4f} "
              f"val_dice {val_dice:.4f} ({seconds:.1f}s)")

    params, log = training.train(spec, dataset, train_cfg, progress=progress)
    model.save_checkpoint(cfg["out"], spec, params)
    log.write(log_path)
    best = max(e[2] for e in log.epochs)
    print(f"best val dice {best:.4f}; checkpoint {cfg['out']}, log {log_path}")
    return 0


def cmd_eval(cfg):
    part = data.load_dataset(cfg["data"], cfg["split"]).samples
    if not part:
        raise FormatError(f"split {cfg['split']!r} has no samples")
    spec, params = _load_model(cfg["ckpt"])
    report = training.evaluate(spec, params, part, cfg["threads"])
    records = metrics.format_records(report)
    print(records, end="")
    if cfg["tsv"]:
        _write(cfg["tsv"], records)
    return 0


def cmd_bench(cfg):
    spec, params = _load_model(cfg["ckpt"])
    report = bench.bench_forward(spec, params, cfg["size"], iters=cfg["iters"],
                                 warmup=cfg["warmup"])
    print(bench.format_text(report), end="")
    if cfg["tsv"]:
        _write(cfg["tsv"], bench.format_tsv(report))
    return 0


def cmd_analyze(cfg):
    spec = model.build_rfbsnet_desk()
    report = analysis.count_flops(spec, (1, spec.in_channels, cfg["size"], cfg["size"]))
    print(analysis.format_table(report), end="")
    if cfg["tsv"]:
        _write(cfg["tsv"], analysis.format_tsv(report))
    return 0


def cmd_infer(cfg):
    spec, params = _load_model(cfg["ckpt"])
    image = data.read_pgm(cfg["in"])
    prob, _ = model.forward(spec, params, image[None, None, :, :])
    mask = metrics.argmax_mask(prob, foreground_class=1)[0]
    data.write_pgm(cfg["out"], mask)
    if cfg["prob-out"]:
        write_rft1(cfg["prob-out"], prob)
    print(f"wrote mask {cfg['out']}")
    return 0


def cmd_gradcheck(cfg):
    reports = gradsuite.run_suite(
        scale=cfg["scale"], net_tol=cfg["tol"], corrupt=cfg["self-test-corrupt"]
    )
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.op}: max rel error {r.max_rel_error:.3e} "
              f"(tol {r.tolerance:.1e}, {r.coords_checked} coords)")
        failed += 0 if r.passed else 1
    if failed:
        raise NumericsError(f"{failed} gradient check(s) failed")
    return 0


_DISPATCH = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "analyze": cmd_analyze,
    "infer": cmd_infer,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():  # process-wide, so the worker threads too
            # numpy's overflow warnings would precede the one-line error below
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = _resolve(args, args.command)
            _echo_config(args.command, cfg)
            return _DISPATCH[args.command](cfg)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (FormatError, ShapeError, UnsupportedConfigError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
