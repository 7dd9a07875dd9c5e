"""Synthetic phantom dataset, PGM image I/O, splitting, and batching.

All randomness flows through a SplitMix64 stream (`Prng`), so generated
datasets, shuffles, and weight draws are bit-identical across platforms and
runs. Images are single-channel float32 in [0, 1]; masks are strictly binary
{0, 1} float32.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError
from .tensor import as_tensor

MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Prng:
    """SplitMix64: one 64-bit seed, one platform-independent u64 sequence."""

    def __init__(self, seed):
        self.state = int(seed) & MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_f64(self):
        """Uniform in [0, 1): next_u64 / 2^64."""
        return self.next_u64() / 2.0**64

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.next_f64()

    def fill_f64(self, n):
        """Vectorized batch of n next_f64 draws (bit-identical to n scalar calls)."""
        with np.errstate(over="ignore"):
            s = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(
                _GOLDEN
            )
            z = (s ^ (s >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GOLDEN) & MASK64
        return z.astype(np.float64) / 2.0**64

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass
class Sample:
    id: str
    image: np.ndarray  # (1, H, W) float32 in [0, 1]
    mask: np.ndarray  # (H, W) float32, values in {0, 1}


@dataclass
class Dataset:
    """Ordered samples plus a train/val assignment per sample."""

    samples: list = field(default_factory=list)
    splits: list = field(default_factory=list)  # "train" | "val", parallel to samples

    def __len__(self):
        return len(self.samples)

    def part(self, split):
        if split == "all":
            return list(self.samples)
        return [s for s, p in zip(self.samples, self.splits) if p == split]


def is_binary_mask(a):
    """Whether the array `a` is a mask: every element is exactly 0 or 1.
    -0.0 is 0; NaN, +-inf and every other value make `a` no mask."""
    return ((a == 0) | (a == 1)).all()


# -- PGM (P5, maxval 255) ---------------------------------------------------


def _pgm_tokens(buf, count):
    """Read `count` whitespace-separated header tokens, honoring # comments.

    Returns (tokens, offset of the byte right after the single whitespace
    that terminates the last token).
    """
    tokens = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i : i + 1].isspace():
            i += 1
        if i < n and buf[i] == ord("#"):
            while i < n and buf[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and not buf[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FormatError("PGM: truncated header")
        tokens.append(buf[start:i])
        if len(tokens) == count:
            if i >= n:
                raise FormatError("PGM: missing payload")
            i += 1  # exactly one whitespace byte separates header and payload
        else:
            if i >= n:
                raise FormatError("PGM: truncated header")
    return tokens, i


def read_pgm(path):
    """Read a binary P5 PGM with maxval 255 into an (H, W) float32 in [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    tokens, pos = _pgm_tokens(buf, 4)
    if tokens[0] != b"P5":
        raise FormatError(f"PGM: unsupported magic {tokens[0]!r} (only binary P5)")
    if not all(t.isdigit() for t in tokens[1:]):  # int() also takes b"+6_4"
        raise FormatError(f"PGM: header fields {tokens[1:]} are not all decimal digits")
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval != 255:
        raise FormatError(f"PGM: unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise FormatError(f"PGM: degenerate size {width}x{height}")
    payload = buf[pos:]
    if len(payload) < width * height:
        raise FormatError("PGM: truncated payload")
    if len(payload) > width * height:
        raise FormatError("PGM: trailing bytes after payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return (pixels.astype(np.float32) / np.float32(255.0)).astype(np.float32)


def write_pgm(path, img):
    """Write an (H, W) or (1, H, W) tensor in [0, 1] as P5 maxval-255 PGM."""
    as_tensor(img, "pgm image")
    if img.ndim == 3:
        if img.shape[0] != 1:
            raise ShapeError(f"pgm image must have 1 channel, got {img.shape}")
        img = img[0]
    if img.ndim != 2:
        raise ShapeError(f"pgm image must be (H, W) or (1, H, W), got {img.shape}")
    quantized = np.clip(np.rint(img.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(quantized.tobytes())


# -- phantom generation -------------------------------------------------------


def generate_phantoms(n, size=256, seed=0):
    """Ellipse phantoms with analytically known masks.

    Per sample (stream seeded as seed XOR index): ellipse center inside the
    middle 50% of the frame, semi-axes in [size/8, size/4], rotation in
    [0, pi). Mask = 1 where the pixel center lies inside the ellipse. Image =
    0.7*mask + diagonal background ramp in [0.1, 0.2] + noise in
    [-0.05, 0.05], clamped to [0, 1].
    """
    if n < 1:
        raise ShapeError(f"need n >= 1 phantoms, got {n}")
    if size < 64 or size % 2:
        raise ShapeError(f"size must be even and >= 64, got {size}")
    ys, xs = np.mgrid[0:size, 0:size]
    px = xs + 0.5
    py = ys + 0.5
    ramp = 0.1 + 0.1 * (xs + ys) / (2.0 * (size - 1))
    samples = []
    for i in range(n):
        rng = Prng(seed ^ i)
        cx = rng.uniform(size / 4.0, 3.0 * size / 4.0)
        cy = rng.uniform(size / 4.0, 3.0 * size / 4.0)
        ax = rng.uniform(size / 8.0, size / 4.0)
        ay = rng.uniform(size / 8.0, size / 4.0)
        theta = rng.uniform(0.0, math.pi)
        ct, st = math.cos(theta), math.sin(theta)
        dx = px - cx
        dy = py - cy
        u = dx * ct + dy * st
        v = -dx * st + dy * ct
        mask = ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(np.float64)
        noise = rng.fill_f64(size * size).reshape(size, size) * 0.1 - 0.05
        image = np.clip(0.7 * mask + ramp + noise, 0.0, 1.0)
        samples.append(
            Sample(
                id=f"p{i:04d}",
                image=image.astype(np.float32)[None, :, :],
                mask=mask.astype(np.float32),
            )
        )
    return Dataset(samples=samples, splits=["train"] * n)


def split(dataset, train_fraction=0.8, seed=0):
    """Seeded shuffle + prefix split into non-empty train/val; returns a new Dataset."""
    n = len(dataset)
    if not 0.0 < train_fraction < 1.0:
        raise ShapeError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(round(train_fraction * n))
    if not 0 < n_train < n:
        raise ShapeError(f"train_fraction {train_fraction} of {n} samples gives "
                         f"{n_train} train and {n - n_train} val; both must be >= 1")
    order = Prng(seed).shuffle(list(range(n)))
    assignment = ["val"] * n
    for idx in order[:n_train]:
        assignment[idx] = "train"
    return Dataset(samples=list(dataset.samples), splits=assignment)


def batches(samples, batch_size, epoch_seed):
    """Seeded shuffle, then (images N1HW, masks NHW) batches; final partial kept."""
    if not samples:
        raise ShapeError("cannot batch an empty sample list")
    if batch_size < 1:
        raise ShapeError(f"batch_size must be >= 1, got {batch_size}")
    order = Prng(epoch_seed).shuffle(list(range(len(samples))))
    for lo in range(0, len(order), batch_size):
        chunk = [samples[i] for i in order[lo : lo + batch_size]]
        for s in chunk[1:]:
            if s.image.shape != chunk[0].image.shape:
                (_, h0, w0), (_, h, w) = chunk[0].image.shape, s.image.shape
                raise ShapeError(f"a batch mixes image sizes {h0}x{w0} and {h}x{w}")
        images = np.stack([s.image for s in chunk], axis=0)
        masks = np.stack([s.mask for s in chunk], axis=0)
        yield images, masks


# -- on-disk dataset layout ----------------------------------------------------


def save_dataset(directory, dataset):
    """Write img_<id>.pgm / mask_<id>.pgm pairs plus manifest.tsv (id, split)."""
    os.makedirs(directory, exist_ok=True)
    lines = []
    for sample, part in zip(dataset.samples, dataset.splits):
        write_pgm(os.path.join(directory, f"img_{sample.id}.pgm"), sample.image)
        write_pgm(os.path.join(directory, f"mask_{sample.id}.pgm"), sample.mask)
        lines.append(f"{sample.id}\t{part}\n")
    with open(os.path.join(directory, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_dataset(directory, split="all"):
    """The samples of `directory` in manifest order. Every manifest line is
    checked (record, repeated id, PGM pair present); only the lines of
    `split` ("train", "val" or "all") are decoded and mask-checked."""
    manifest = os.path.join(directory, "manifest.tsv")
    if not os.path.isfile(manifest):
        raise FormatError(f"no manifest.tsv in {directory}")
    samples = []
    splits = []
    seen = {}  # sample id -> manifest line
    try:
        with open(manifest, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{manifest} is not UTF-8: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or fields[1] not in ("train", "val"):
            raise FormatError(f"manifest.tsv line {lineno}: bad record {line!r}")
        sid, part = fields
        if sid in seen:
            raise FormatError(f"manifest.tsv line {lineno}: sample {sid!r} is "
                              f"already listed on line {seen[sid]}")
        seen[sid] = lineno
        paths = [os.path.join(directory, f"{kind}_{sid}.pgm") for kind in ("img", "mask")]
        if not all(os.path.isfile(p) for p in paths):  # False on a NUL in sid too
            raise FormatError(f"manifest.tsv line {lineno}: no img/mask PGM pair "
                              f"for sample {sid!r}")
        if split not in ("all", part):
            continue
        image, mask = (read_pgm(p) for p in paths)
        if image.shape != mask.shape:
            raise FormatError(f"sample {sid}: image/mask size mismatch")
        if not is_binary_mask(mask):
            raise FormatError(f"sample {sid}: mask is not binary")
        samples.append(Sample(id=sid, image=image[None, :, :], mask=mask))
        splits.append(part)
    if not seen:
        raise FormatError(f"manifest.tsv in {directory} lists no samples")
    return Dataset(samples=samples, splits=splits)
