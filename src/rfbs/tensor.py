"""The tensor checks, the sequential sum and the RFT1 binary tensor format.

A tensor is a numpy array of dtype float32 or float64 with rank 1..4; rank-4
arrays are laid out NCHW. `as_tensor` and `check_shape` enforce that; the
engine builds its arrays with numpy directly. Every function here is pure:
inputs are never mutated and identical inputs produce bit-identical outputs.

RFT1 layout (little-endian): magic "RFT1", 1 byte dtype code (0=f32, 1=f64),
1 byte rank (1..4), rank u32 extents, then row-major element data. No padding
and no trailing bytes.
"""

import math
import struct

import numpy as np

from .errors import FormatError, ShapeError

# Extents are serialized as u32; stay well inside that (and addressable RAM).
MAX_EXTENT = 2**31 - 1

_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

_MAGIC = b"RFT1"


def check_shape(shape):
    """Validate extents and return them as a tuple of ints."""
    dims = tuple(int(d) for d in shape)
    if not 1 <= len(dims) <= 4:
        raise ShapeError(f"rank must be 1..4, got rank {len(dims)}")
    for d in dims:
        if d < 1:
            raise ShapeError(f"extents must be >= 1, got {dims}")
        if d > MAX_EXTENT:
            raise ShapeError(f"extent {d} overflows the supported range")
    return dims


def as_tensor(a, name="tensor"):
    """Check that `a` is a valid tensor value; returns it unchanged."""
    if not isinstance(a, np.ndarray):
        raise ShapeError(f"{name} must be a numpy array, got {type(a).__name__}")
    if a.dtype not in _DTYPE_CODE:
        raise ShapeError(f"{name} dtype must be float32 or float64, got {a.dtype}")
    check_shape(a.shape)
    return a


def reduce_sum(a):
    """Sum of all elements, accumulated sequentially in flat row-major order.

    Accumulation happens in float64 regardless of input dtype; repeated calls
    on the same tensor are bit-identical.
    """
    as_tensor(a, "reduce_sum input")
    # cumsum is a strict left-to-right scan, which pins the reduction order.
    return float(np.cumsum(np.ascontiguousarray(a).ravel(), dtype=np.float64)[-1])


def encode_rft1(a):
    """Serialize a tensor to RFT1 bytes."""
    as_tensor(a, "rft1 tensor")
    code = _DTYPE_CODE[a.dtype]
    out = bytearray(_MAGIC)
    out.append(code)
    out.append(a.ndim)
    for d in a.shape:
        out += struct.pack("<I", d)
    out += np.ascontiguousarray(a).astype(_CODE_DTYPE[code], copy=False).tobytes()
    return bytes(out)


def decode_rft1(buf, offset=0):
    """Parse one RFT1 blob starting at `offset`; returns (tensor, next_offset)."""
    if len(buf) < offset + 6:
        raise FormatError("RFT1: truncated header")
    if buf[offset : offset + 4] != _MAGIC:
        raise FormatError("RFT1: bad magic")
    code = buf[offset + 4]
    rank = buf[offset + 5]
    if code not in _CODE_DTYPE:
        raise FormatError(f"RFT1: unknown dtype code {code}")
    if not 1 <= rank <= 4:
        raise FormatError(f"RFT1: rank {rank} out of range 1..4")
    pos = offset + 6
    if len(buf) < pos + 4 * rank:
        raise FormatError("RFT1: truncated extent table")
    dims = struct.unpack_from(f"<{rank}I", buf, pos)
    pos += 4 * rank
    if not all(1 <= d <= MAX_EXTENT for d in dims):
        raise FormatError(f"RFT1: extents {dims} outside 1..{MAX_EXTENT}")
    dtype = _CODE_DTYPE[code]
    nbytes = math.prod(dims) * dtype.itemsize  # Python ints: cannot wrap around
    if len(buf) < pos + nbytes:
        raise FormatError("RFT1: truncated element data")
    data = np.frombuffer(buf, dtype=dtype, count=nbytes // dtype.itemsize, offset=pos)
    arr = data.reshape(dims).astype(dtype.newbyteorder("="), copy=True)
    return arr, pos + nbytes


def write_rft1(path, a):
    with open(path, "wb") as fh:
        fh.write(encode_rft1(a))


def read_rft1(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = decode_rft1(buf)
    if end != len(buf):
        raise FormatError(f"RFT1: {len(buf) - end} trailing bytes")
    return arr
