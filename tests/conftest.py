import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from rfbs import model


@pytest.fixture(scope="session")
def desk_spec():
    return model.build_rfbsnet_desk()


@pytest.fixture(scope="session")
def desk_params(desk_spec):
    return model.init_params(desk_spec, seed=42)


def run_cli(args, env_extra=None, cwd=None):
    """Run the CLI in a fresh process; returns CompletedProcess."""
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rfbs", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def corrupted(fuzz, blob):
    """`blob` with 1-4 bytes overwritten, then cut or extended by up to 8
    bytes, every choice drawn from the hypothesis `st.data()` object `fuzz`."""
    out = bytearray(blob)
    for _ in range(fuzz.draw(st.integers(1, 4))):
        pos = fuzz.draw(st.integers(0, len(out) - 1))
        out[pos] = fuzz.draw(st.integers(0, 255))
    out = bytes(out[: fuzz.draw(st.integers(0, len(out)))])
    return out + fuzz.draw(st.binary(max_size=8))


def from_values(shape, values, dtype=np.float32):
    """A tensor of `shape` holding `values` in row-major order."""
    return np.array(values, dtype=dtype).reshape(shape)


def rand_f32(shape, seed):
    from rfbs.data import Prng

    n = int(np.prod(shape))
    return Prng(seed).fill_f64(n).reshape(shape).astype(np.float32)


def rand_f64(shape, seed, lo=-1.0, hi=1.0):
    from rfbs.data import Prng

    n = int(np.prod(shape))
    return (lo + (hi - lo) * Prng(seed).fill_f64(n)).reshape(shape)


def join_spec(kind, ca, cb, stride_b=1):
    """x -> 1x1 conv "a" (ca channels) and 3x3 conv "b" (cb channels, stride
    stride_b), joined by one `kind` node named "join"."""
    return model.ArchitectureSpec(
        arch_id=kind, input_name="x", output_name="join", in_channels=2,
        num_classes=2, total_downsampling_factor=1,
        nodes=(
            model.LayerNode("a", "conv", ("x",), 2, ca, 1, 1, 0),
            model.LayerNode("b", "conv", ("x",), 2, cb, 3, stride_b, 1),
            model.LayerNode("join", kind, ("a", "b")),
        ),
    )
