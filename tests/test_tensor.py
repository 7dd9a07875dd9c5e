import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfbs import model, tensor
from rfbs.errors import FormatError, ShapeError

from conftest import from_values, join_spec


class TestCheckShape:
    def test_extents_come_back_as_ints(self):
        assert tensor.check_shape(np.array([1, 1, 2, 2])) == (1, 1, 2, 2)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ShapeError):
            tensor.check_shape([0])
        with pytest.raises(ShapeError):
            tensor.check_shape([2, 0, 2])

    def test_rank_bounds(self):
        with pytest.raises(ShapeError):
            tensor.check_shape([1, 1, 1, 1, 1])
        with pytest.raises(ShapeError):
            tensor.check_shape([])

    def test_overflowing_extent(self):
        with pytest.raises(ShapeError):
            tensor.check_shape([2**31])


class TestElementwiseAdd:
    # the engine adds tensors only at an `add` node of the graph
    def test_basic(self):
        spec = join_spec("add", 1, 1)
        params = model.init_params(spec, seed=1)
        params["a.weight"][:] = from_values([1, 2, 1, 1], [1, 0])  # picks x[:, 0]
        params["b.weight"][:] = 0.0
        params["b.weight"][0, 1, 1, 1] = 1.0  # centre tap of x[:, 1]
        x = from_values([1, 2, 1, 2], [1, 2, 3, 4])
        out, _ = model.forward(spec, params, x)
        assert list(out.ravel()) == [4, 6]

    def test_shape_preserved(self):
        spec = join_spec("add", 16, 16)
        params = model.init_params(spec, seed=2)
        out, _ = model.forward(spec, params, np.zeros([1, 2, 32, 32], np.float32))
        assert out.shape == (1, 16, 32, 32)


class TestConcatChannels:
    # the engine concatenates channels only at a `concat` node of the graph
    def test_downsampler_shape(self, desk_spec, desk_params):
        x = np.zeros([1, 1, 256, 256], np.float32)
        _, tape = model.forward(desk_spec, desk_params, x, keep_intermediates=True)
        assert tape.shapes["ds_conv"] == (1, 15, 128, 128)
        assert tape.shapes["ds_pool"] == (1, 1, 128, 128)
        assert tape.shapes["ds_cat"] == (1, 16, 128, 128)


class TestReduceSum:
    def test_basic(self):
        assert tensor.reduce_sum(from_values([3], [1, 2, 3])) == 6

    def test_zeros(self):
        assert tensor.reduce_sum(np.zeros([8], np.float32)) == 0.0

    def test_repeat_bit_identical(self):
        from rfbs.data import Prng

        t = Prng(3).fill_f64(1000).reshape(10, 100).astype(np.float32)
        first = tensor.reduce_sum(t)
        assert all(tensor.reduce_sum(t) == first for _ in range(5))

    def test_matches_sequential_loop(self):
        # independent oracle: explicit left-to-right accumulation in f64
        from rfbs.data import Prng

        t = (Prng(9).fill_f64(257) * 1e3 - 500.0).reshape(257)
        acc = 0.0
        for v in t:
            acc += float(v)
        assert tensor.reduce_sum(t) == acc


class TestRft1:
    def test_exact_bytes(self):
        # hand-assembled blob: magic, dtype code 0, rank 1, extent 2, payload
        t = from_values([2], [1.0, 2.0])
        expect = b"RFT1" + bytes([0, 1]) + struct.pack("<I", 2) + struct.pack("<2f", 1, 2)
        assert tensor.encode_rft1(t) == expect

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (2, 1, 3, 2)])
    def test_round_trip(self, dtype, shape, tmp_path):
        from rfbs.data import Prng

        t = Prng(5).fill_f64(int(np.prod(shape))).reshape(shape).astype(dtype)
        path = tmp_path / "t.rft1"
        tensor.write_rft1(path, t)
        back = tensor.read_rft1(path)
        assert back.dtype == t.dtype
        assert back.shape == t.shape
        assert back.tobytes() == t.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FormatError):
            tensor.read_rft1(path)

    def test_truncated(self, tmp_path):
        good = tensor.encode_rft1(from_values([4], [1, 2, 3, 4]))
        path = tmp_path / "trunc"
        path.write_bytes(good[:-3])
        with pytest.raises(FormatError):
            tensor.read_rft1(path)

    def test_trailing_bytes(self, tmp_path):
        good = tensor.encode_rft1(from_values([2], [1, 2]))
        path = tmp_path / "trail"
        path.write_bytes(good + b"x")
        with pytest.raises(FormatError):
            tensor.read_rft1(path)

    def test_unknown_dtype_code(self, tmp_path):
        good = bytearray(tensor.encode_rft1(from_values([2], [1, 2])))
        good[4] = 9
        path = tmp_path / "dtype"
        path.write_bytes(bytes(good))
        with pytest.raises(FormatError):
            tensor.read_rft1(path)

    def test_overflowing_extents_are_format_errors(self):
        # every extent above MAX_EXTENT; and a product far beyond int64
        for rank, extent in ((4, 2**31), (2, 2**32 - 1)):
            blob = b"RFT1" + bytes([0, rank]) + struct.pack(f"<{rank}I", *[extent] * rank)
            with pytest.raises(FormatError):
                tensor.decode_rft1(blob + bytes(64))
        huge = b"RFT1" + bytes([1, 4]) + struct.pack("<4I", *[2**20] * 4)
        with pytest.raises(FormatError, match="truncated"):
            tensor.decode_rft1(huge + bytes(64))


def _rft1_blobs():
    """A header with arbitrary magic, dtype code, rank and extents followed by
    arbitrary data, or plain random bytes."""
    extent = st.sampled_from([0, 1, 2, 3, 2**16, 2**31 - 1, 2**31, 2**32 - 1])
    header = st.tuples(
        st.sampled_from([b"RFT1", b"RFT2"]), st.integers(0, 3), st.integers(0, 5),
        st.lists(extent | st.integers(0, 2**32 - 1), max_size=5),
    ).map(lambda t: t[0] + bytes(t[1:3]) + struct.pack(f"<{len(t[3])}I", *t[3]))
    blob = st.tuples(header, st.binary(max_size=96)).map(b"".join)
    return blob | st.binary(max_size=64)


class TestRft1Fuzz:
    @given(_rft1_blobs())
    @settings(max_examples=400, deadline=None)
    def test_decode_raises_only_format_error(self, blob):
        try:
            arr, end = tensor.decode_rft1(blob)
        except FormatError:
            return
        assert tensor.encode_rft1(arr) == blob[:end]  # what decodes re-encodes
