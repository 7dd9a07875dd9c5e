import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from rfbs import data, metrics, training
from rfbs.errors import FormatError, ShapeError

from conftest import corrupted


class TestPrng:
    def test_reference_vectors(self):
        # published SplitMix64 outputs for these seeds
        p = data.Prng(1234567)
        assert [p.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]
        assert data.Prng(0).next_u64() == 16294208416658607535

    def test_same_seed_same_sequence(self):
        a = data.Prng(99)
        b = data.Prng(99)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_f64_range(self):
        p = data.Prng(1)
        draws = [p.next_f64() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_fill_matches_scalar_path(self):
        a = data.Prng(7)
        b = data.Prng(7)
        vec = a.fill_f64(513)
        scalars = np.array([b.next_f64() for _ in range(513)])
        assert np.array_equal(vec, scalars)
        assert a.state == b.state

    def test_shuffle_is_permutation(self):
        items = data.Prng(3).shuffle(list(range(50)))
        assert sorted(items) == list(range(50))


class TestPgm:
    def test_byte_level_decode(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = data.read_pgm(path)
        assert img.shape == (2, 2)
        assert img.dtype == np.float32
        assert img[0, 0] == 0.0
        assert img[0, 1] == 1.0
        assert img[1, 0] == pytest.approx(0.50196078, abs=1e-7)
        assert img[1, 1] == pytest.approx(0.25098039, abs=1e-7)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n" + bytes([7]))
        assert data.read_pgm(path).shape == (1, 1)

    def test_mask_round_trip_bitwise(self, tmp_path):
        mask = (np.arange(64).reshape(8, 8) % 3 == 0).astype(np.float32)
        path = tmp_path / "m.pgm"
        data.write_pgm(path, mask)
        body = path.read_bytes()
        data.write_pgm(tmp_path / "m2.pgm", data.read_pgm(path))
        assert (tmp_path / "m2.pgm").read_bytes() == body

    def test_round_trip_error_bound(self, tmp_path):
        img = data.Prng(4).fill_f64(16 * 16).reshape(16, 16).astype(np.float32)
        path = tmp_path / "x.pgm"
        data.write_pgm(path, img)
        back = data.read_pgm(path)
        assert np.abs(back - img).max() <= 1.0 / 510.0 + 1e-7

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError):
            data.read_pgm(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
        with pytest.raises(FormatError):
            data.read_pgm(path)

    @pytest.mark.parametrize("field", [b"6_4", b"+64", b"-1", b"x"])
    @pytest.mark.parametrize("where", ["width", "height", "maxval"])
    def test_non_decimal_header_field(self, tmp_path, field, where):
        # int() reads b"6_4" as 64 and b"+64" as 64; the header takes digits only
        header = {"width": b"%s 64\n255" % field, "height": b"64 %s\n255" % field,
                  "maxval": b"64 64\n%s" % field}[where]
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n" + header + b"\n" + bytes(64 * 64))
        with pytest.raises(FormatError, match="decimal"):
            data.read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(FormatError):
            data.read_pgm(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([1, 2]))
        with pytest.raises(FormatError):
            data.read_pgm(path)

    def test_write_shape_validation(self, tmp_path):
        with pytest.raises(ShapeError):
            data.write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2, 2), np.float32))


class TestPhantoms:
    def test_deterministic(self):
        a = data.generate_phantoms(3, 64, seed=42)
        b = data.generate_phantoms(3, 64, seed=42)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.image.tobytes() == sb.image.tobytes()
            assert sa.mask.tobytes() == sb.mask.tobytes()

    def test_value_ranges(self):
        ds = data.generate_phantoms(5, 64, seed=1)
        for s in ds.samples:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert np.isin(s.mask, (0.0, 1.0)).all()
            assert s.image.shape == (1, 64, 64)
            assert s.mask.shape == (64, 64)

    def test_single_connected_component(self):
        # flood-fill oracle: 4-connected labeling finds exactly one blob
        four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        for seed in range(8):
            ds = data.generate_phantoms(1, 128, seed=seed)
            _, count = ndimage.label(ds.samples[0].mask, structure=four)
            assert count == 1

    @pytest.mark.parametrize("count,size", [(200, 256), (500, 128)])
    def test_foreground_fraction(self, count, size):
        # semi-axes in [size/8, size/4] bound the area ratio to [pi/64, pi/16]
        ds = data.generate_phantoms(count, size, seed=11)
        for s in ds.samples:
            frac = float(s.mask.mean())
            assert 0.01 < frac < 0.25

    def test_size_validation(self):
        with pytest.raises(ShapeError):
            data.generate_phantoms(1, 63, seed=0)
        with pytest.raises(ShapeError):
            data.generate_phantoms(0, 64, seed=0)


class TestSplit:
    def test_80_20(self):
        ds = data.split(data.generate_phantoms(10, 64, seed=0), 0.8, seed=1)
        assert ds.splits.count("train") == 8
        assert ds.splits.count("val") == 2

    def test_deterministic(self):
        base = data.generate_phantoms(20, 64, seed=0)
        assert data.split(base, 0.8, 5).splits == data.split(base, 0.8, 5).splits

    def test_partition(self):
        ds = data.split(data.generate_phantoms(13, 64, seed=0), 0.8, seed=2)
        train_ids = {s.id for s in ds.part("train")}
        val_ids = {s.id for s in ds.part("val")}
        assert train_ids | val_ids == {s.id for s in ds.samples}
        assert not (train_ids & val_ids)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            data.split(data.generate_phantoms(1, 64, seed=0), 0.8, seed=0)

    @pytest.mark.parametrize("n,fraction", [(2, 0.8), (2, 0.1), (10, 0.04), (10, 0.96)])
    def test_empty_part_refused(self, n, fraction):
        # the rounded train count is 0 or n: one part would be empty
        with pytest.raises(ShapeError, match="both must be >= 1"):
            data.split(data.generate_phantoms(n, 64, seed=0), fraction, seed=0)


class TestBatches:
    def _ds(self, n):
        return data.generate_phantoms(n, 64, seed=3).samples

    def test_exact_batches(self):
        out = list(data.batches(self._ds(16), 8, epoch_seed=0))
        assert len(out) == 2
        assert all(img.shape == (8, 1, 64, 64) for img, _ in out)
        assert all(m.shape == (8, 64, 64) for _, m in out)

    def test_partial_batch_kept(self):
        sizes = [img.shape[0] for img, _ in data.batches(self._ds(17), 8, epoch_seed=0)]
        assert sizes == [8, 8, 1]

    def test_epoch_seed_permutes(self):
        samples = self._ds(12)

        def order(seed):
            out = []
            for img, _ in data.batches(samples, 4, epoch_seed=seed):
                out.extend(img[i].tobytes() for i in range(img.shape[0]))
            return out

        a, b = order(1), order(2)
        assert a != b
        assert sorted(a) == sorted(b)  # same multiset of samples

    def test_every_sample_once(self):
        samples = self._ds(10)
        seen = []
        for img, _ in data.batches(samples, 3, epoch_seed=9):
            seen.extend(img[i].tobytes() for i in range(img.shape[0]))
        assert sorted(seen) == sorted(s.image.tobytes() for s in samples)

    def test_mixed_sizes_in_a_batch_refused(self):
        samples = self._ds(2) + data.generate_phantoms(2, 96, seed=3).samples
        with pytest.raises(ShapeError, match="mixes image sizes") as info:
            list(data.batches(samples, 4, epoch_seed=0))
        assert "64x64" in str(info.value) and "96x96" in str(info.value)
        # one image per batch never mixes sizes
        sizes = {img.shape for img, _ in data.batches(samples, 1, epoch_seed=0)}
        assert sizes == {(1, 1, 64, 64), (1, 1, 96, 96)}


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        ds = data.split(data.generate_phantoms(6, 64, seed=8), 0.8, seed=8)
        data.save_dataset(tmp_path / "d", ds)
        back = data.load_dataset(tmp_path / "d")
        assert [s.id for s in back.samples] == [s.id for s in ds.samples]
        assert back.splits == ds.splits
        for orig, loaded in zip(ds.samples, back.samples):
            assert loaded.mask.tobytes() == orig.mask.tobytes()  # {0,1} exact
            assert np.abs(loaded.image - orig.image).max() <= 1.0 / 510.0 + 1e-7

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            data.load_dataset(tmp_path)

    def test_bad_manifest_record(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "manifest.tsv").write_text("p0000\tother\n")
        with pytest.raises(FormatError):
            data.load_dataset(d)

    def test_non_utf8_manifest(self, tmp_path):
        (tmp_path / "manifest.tsv").write_bytes(b"p0\t\xff\n")
        with pytest.raises(FormatError, match="UTF-8"):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("sid", ["p9999", "p\0", ""])
    def test_sample_without_pgm_pair(self, tmp_path, sid):
        data.save_dataset(tmp_path, data.generate_phantoms(2, 64, seed=3))
        (tmp_path / "manifest.tsv").write_text(f"p0000\ttrain\n{sid}\tval\n")
        with pytest.raises(FormatError, match="line 2"):
            data.load_dataset(tmp_path)

    def test_repeated_id_refused(self, tmp_path):
        # one sample listed as train and again as val would be trained on and
        # validated on, and counted twice by eval
        data.save_dataset(tmp_path, data.split(data.generate_phantoms(6, 64, seed=3),
                                               0.5, 3))
        with open(tmp_path / "manifest.tsv", "a", encoding="utf-8") as fh:
            fh.write("p0000\tval\n")
        with pytest.raises(FormatError, match="line 7: sample 'p0000' is already "
                                              "listed on line 1"):
            data.load_dataset(tmp_path)


    def test_split_checks_every_line_and_decodes_its_own(self, tmp_path):
        data.save_dataset(tmp_path, data.split(data.generate_phantoms(6, 64, seed=3),
                                               0.5, 3))
        manifest = (tmp_path / "manifest.tsv").read_text()
        ids = {part: [line.split("\t")[0] for line in manifest.splitlines()
                      if line.endswith(part)] for part in ("train", "val")}
        (tmp_path / f"img_{ids['train'][0]}.pgm").write_bytes(b"P5\n")
        assert [s.id for s in data.load_dataset(tmp_path, "val").samples] == ids["val"]
        with pytest.raises(FormatError):
            data.load_dataset(tmp_path, "train")
        for extra, error in [("p0000\ttrain\n", "already listed"),
                             ("p9999\ttrain\n", "no img/mask PGM pair")]:
            (tmp_path / "manifest.tsv").write_text(manifest + extra)
            with pytest.raises(FormatError, match=error):
                data.load_dataset(tmp_path, "val")


class TestBinaryMask:
    """data.is_binary_mask is the one rule: the loader, the soft Dice and the
    confusion counts refuse and accept the same masks."""

    @pytest.mark.parametrize("value, is_mask", [
        (-0.0, True), (0.5, False), (2.0, False),
        (np.nan, False), (np.inf, False), (-np.inf, False),
    ])
    def test_one_rule(self, tmp_path, monkeypatch, value, is_mask):
        data.save_dataset(tmp_path, data.generate_phantoms(1, 64, seed=3))
        read_pgm = data.read_pgm

        def read_with_value(path):  # PGM holds only n/255, so set the pixel here
            img = read_pgm(path)
            if "mask_" in str(path):
                img[0, 0] = value
            return img

        monkeypatch.setattr(data, "read_pgm", read_with_value)
        eye = np.eye(4, dtype=np.float32)
        mask = eye.copy()
        mask[0, 1] = value
        uses = [
            (FormatError, lambda: data.load_dataset(tmp_path)),
            (ShapeError, lambda: training.soft_dice_loss(
                np.full((1, 2, 4, 4), 0.5, np.float32), mask[None])),
            (ShapeError, lambda: metrics.confusion(mask, eye)),
            (ShapeError, lambda: metrics.confusion(eye, mask)),
        ]
        for error, use in uses:
            if is_mask:
                use()
            else:
                with pytest.raises(error, match="binary|0/1"):
                    use()
        if is_mask:
            assert metrics.confusion(mask, eye) == metrics.ConfusionCounts(4, 0, 0, 12)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data.save_dataset(root, data.split(data.generate_phantoms(2, 64, seed=3), 0.5, 3))
    return root


class TestParserFuzz:
    """Malformed files raise FormatError and nothing else."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_read_pgm(self, fuzz_dir, fuzz):
        valid = b"P5\n# c\n3 2\n255\n" + bytes([0, 9, 255, 128, 7, 1])
        if fuzz.draw(st.booleans()):
            blob = corrupted(fuzz, valid)
        else:
            blob = fuzz.draw(st.binary(max_size=32))
        path = fuzz_dir / "fuzz.pgm"
        path.write_bytes(blob)
        try:
            img = data.read_pgm(path)
        except FormatError:
            return
        assert img.dtype == np.float32 and img.ndim == 2
        assert 0.0 <= img.min() and img.max() <= 1.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_manifest(self, fuzz_dir, fuzz):
        manifest = fuzz_dir / "manifest.tsv"
        manifest.write_bytes(corrupted(fuzz, b"p0000\ttrain\np0001\tval\n"))
        try:
            ds = data.load_dataset(fuzz_dir)
        except FormatError:
            return
        assert len(ds) >= 1 and set(ds.splits) <= {"train", "val"}
