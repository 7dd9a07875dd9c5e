"""Confusion counts and the two overlap metrics for binary masks.

Dice = 2TP / (2TP + FP + FN), IoU = TP / (TP + FP + FN); both are 1.0 by
convention when prediction and reference are both empty. Aggregates report
mean and sample (n-1) standard deviation over images.
"""

import statistics
from dataclasses import dataclass

import numpy as np

from .data import is_binary_mask
from .errors import ShapeError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ShapeError("confusion counts must be non-negative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def _as_binary(a, name):
    if not isinstance(a, np.ndarray):
        raise ShapeError(f"{name} must be a numpy array")
    if not is_binary_mask(a):
        raise ShapeError(f"{name} must contain only 0/1 values")
    return a != 0


def confusion(pred_mask, ref_mask):
    """Exact pixel counts of a binary prediction against a binary reference."""
    if pred_mask.shape != ref_mask.shape:
        raise ShapeError(
            f"mask shapes differ: {pred_mask.shape} vs {ref_mask.shape}"
        )
    p = _as_binary(pred_mask, "pred_mask")
    r = _as_binary(ref_mask, "ref_mask")
    tp = int(np.count_nonzero(p & r))
    fp = int(np.count_nonzero(p & ~r))
    fn = int(np.count_nonzero(~p & r))
    tn = p.size - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def dice(c):
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0  # both masks empty: perfect agreement on absence
    return 2 * c.tp / denom


def iou(c):
    denom = c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0
    return c.tp / denom


def argmax_mask(prob, foreground_class):
    """Binary (N, H, W) mask: 1 where the foreground class wins the argmax.

    Same winner as prob.argmax(axis=1): ties go to the lower class index,
    so tied pixels are background whenever a lower-indexed class is
    involved, and a NaN beats every number, the first NaN winning. The
    channel planes are compared directly, which is much faster than numpy's
    argmax over the strided channel axis.
    """
    if not isinstance(prob, np.ndarray) or prob.ndim != 4:
        raise ShapeError("argmax_mask expects an NCHW probability map")
    if not 0 <= foreground_class < prob.shape[1]:
        raise ShapeError(
            f"foreground class {foreground_class} out of range 0..{prob.shape[1] - 1}"
        )
    fg = prob[:, foreground_class]
    fg_nan = fg != fg
    wins = np.ones(fg.shape, dtype=bool)
    for c in range(prob.shape[1]):
        other = prob[:, c]
        if c < foreground_class:  # must lose strictly, and a NaN of its own wins
            wins &= (other < fg) | (fg_nan & (other == other))
        elif c > foreground_class:  # may tie, and loses to a NaN foreground
            wins &= (other <= fg) | fg_nan
    return wins.astype(np.float32)


@dataclass(frozen=True)
class ImageResult:
    image_id: str
    dice: float
    iou: float
    counts: ConfusionCounts


@dataclass(frozen=True)
class MetricsReport:
    per_image: tuple
    mean_dice: float
    std_dice: float
    mean_iou: float
    std_iou: float
    counts: ConfusionCounts  # summed over images


def mean_std(values):
    """Arithmetic mean and sample (n-1) standard deviation; std 0 for n = 1."""
    if not values:
        raise ShapeError("cannot aggregate an empty value list")
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def evaluate_image(image_id, pred_mask, ref_mask):
    c = confusion(pred_mask, ref_mask)
    return ImageResult(image_id=image_id, dice=dice(c), iou=iou(c), counts=c)


def aggregate(results):
    """Fold per-image results into a MetricsReport."""
    results = list(results)
    if not results:
        raise ShapeError("aggregate needs at least one image result")
    mean_d, std_d = mean_std([r.dice for r in results])
    mean_i, std_i = mean_std([r.iou for r in results])
    total = ConfusionCounts(
        tp=sum(r.counts.tp for r in results),
        fp=sum(r.counts.fp for r in results),
        fn=sum(r.counts.fn for r in results),
        tn=sum(r.counts.tn for r in results),
    )
    return MetricsReport(
        per_image=tuple(results),
        mean_dice=mean_d,
        std_dice=std_d,
        mean_iou=mean_i,
        std_iou=std_i,
        counts=total,
    )


def format_records(report):
    """Line-oriented records: one `id<TAB>dice<TAB>iou` row per image, then
    `AGGREGATE<TAB>mean_dice<TAB>std_dice<TAB>mean_iou<TAB>std_iou` (6 dp)."""
    lines = [
        f"{r.image_id}\t{r.dice:.6f}\t{r.iou:.6f}" for r in report.per_image
    ]
    lines.append(
        "AGGREGATE\t"
        f"{report.mean_dice:.6f}\t{report.std_dice:.6f}\t"
        f"{report.mean_iou:.6f}\t{report.std_iou:.6f}"
    )
    return "\n".join(lines) + "\n"
