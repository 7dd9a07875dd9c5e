"""Training recipe: soft Dice loss, Adam, step-decayed learning rate, the epoch
loop with best-checkpoint retention, and `evaluate`, which scores parameters
for both per-epoch validation and `rfbs eval`.

The loss is the probabilistic (soft) Dice complement on the foreground
channel, averaged over the batch. Determinism contract: a fixed (seed, data,
config) triple yields a bit-identical final parameter store and log.
"""

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import metrics, model, ops
from .data import Prng, batches, is_binary_mask
from .errors import NumericsError, ShapeError
from .model import backward, forward, init_params
from .tensor import reduce_sum

# stream tag separating epoch-shuffle draws from weight-init draws
_SHUFFLE_TAG = 0xA5A5A5A5A5A5A5A5


@dataclass
class TrainConfig:
    batch_size: int = 8
    initial_lr: float = 1e-4
    epochs: int = 100  # desk runs default to 15 via the CLI
    seed: int = 0
    # fixed by the recipe; class constants, readable on an instance
    lr_decay: ClassVar[float] = 0.9
    lr_decay_steps: ClassVar[int] = 2000
    smooth: ClassVar[float] = 1.0  # soft-Dice smoothing epsilon
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ShapeError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.initial_lr) and self.initial_lr > 0.0):
            raise ShapeError(f"initial_lr must be finite and > 0, got {self.initial_lr}")
        if self.epochs < 1:
            raise ShapeError(f"epochs must be >= 1, got {self.epochs}")


def soft_dice_loss(prob, target, smooth=1.0):
    """Soft Dice complement on the foreground channel, batch-averaged.

    prob is (N, 2, H, W) softmax output, target is a binary (N, H, W) mask.
    Returns (loss, gradient w.r.t. prob); only the foreground channel of the
    gradient is non-zero (the background channel participates through the
    softmax backward).
    """
    if not isinstance(prob, np.ndarray) or prob.ndim != 4 or prob.shape[1] != 2:
        raise ShapeError(f"prob must be (N, 2, H, W), got {getattr(prob, 'shape', None)}")
    if not isinstance(target, np.ndarray):
        raise ShapeError("target must be a numpy array")
    if target.shape != (prob.shape[0],) + prob.shape[2:]:
        raise ShapeError(
            f"target shape {target.shape} does not match prob {prob.shape}"
        )
    if not is_binary_mask(target):
        raise ShapeError("target mask must be binary")
    n = prob.shape[0]
    if n == 0:
        raise ShapeError("soft Dice of an empty batch")
    dprob = np.zeros_like(prob)
    total = 0.0
    for i in range(n):
        p = prob[i, 1]
        g = target[i]
        inter = reduce_sum(p * g)
        union = reduce_sum(p) + reduce_sum(g)
        num = 2.0 * inter + smooth
        den = union + smooth
        total += 1.0 - num / den
        # d/dp [1 - (2*sum(p*g)+eps)/(sum(p)+sum(g)+eps)], then / n
        dfg = -(2.0 * g.astype(np.float64) * den - num) / (den * den) / n
        dprob[i, 1] = dfg.astype(prob.dtype)
    return total / n, dprob


def lr_at(step, cfg):
    """initial_lr * decay^floor(step / decay_steps)."""
    if step < 0:
        raise ShapeError(f"step must be >= 0, got {step}")
    return cfg.initial_lr * cfg.lr_decay ** (step // cfg.lr_decay_steps)


class AdamState:
    """First/second moments per parameter plus the shared step counter."""

    def __init__(self, params):
        self.m = {name: np.zeros_like(v) for name, v in params.items()}
        self.v = {name: np.zeros_like(v) for name, v in params.items()}
        self.t = 0


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update, in parameter insertion order, in place;
    a bad gradient refuses the step before anything moves."""
    for name, theta in params.items():
        g = grads.get(name)
        if g is None:
            raise ShapeError(f"missing gradient for parameter {name!r}")
        if g.shape != theta.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != parameter shape {theta.shape} for {name!r}"
            )
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, theta in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        mhat = m / bc1
        vhat = v / bc2
        theta -= lr * mhat / (np.sqrt(vhat) + eps)


@dataclass
class TrainLog:
    """Step and epoch records; wall-clock is informational and excluded from
    the on-disk format so log files hash identically across reruns."""

    steps: list = field(default_factory=list)  # (step, lr, loss)
    epochs: list = field(default_factory=list)  # (epoch, train_loss, val_dice, seconds)

    def format_lines(self):
        lines = []
        for step, lr, loss in self.steps:
            lines.append(f"step\t{step}\t{lr:.10g}\t{loss:.10g}")
        for epoch, train_loss, val_dice, _seconds in self.epochs:
            lines.append(f"epoch\t{epoch}\t{train_loss:.10g}\t{val_dice:.10g}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.format_lines())


def evaluate(spec, params, samples, workers=None):
    """Score params on samples: a batch-1 forward per sample, its argmax mask
    against the sample's mask, folded into a metrics.MetricsReport in sample
    order. The samples run on threads by ops.each_image's rule, with at most
    `workers` threads (default: the usable CPUs)."""

    def score(i):
        sample = samples[i]
        # the module attribute, looked up per call, so a wrapper installed on
        # model.forward (the benchmark's tracer) sees every forward
        prob, _ = model.forward(spec, params, sample.image[None, :, :, :])
        pred = metrics.argmax_mask(prob, foreground_class=1)[0]
        return metrics.evaluate_image(sample.id, pred, sample.mask)

    return metrics.aggregate(ops.each_image(len(samples), score, workers=workers))


def train_step(spec, params, state, images, masks, lr, cfg):
    """forward -> soft Dice -> backward -> Adam at rate lr, updating params
    and state in place; returns the loss. The tape, probabilities and
    gradients are locals, so they are freed before the next step begins."""
    prob, tape = forward(spec, params, images, keep_intermediates=True)
    loss, dprob = soft_dice_loss(prob, masks, cfg.smooth)
    grads = backward(tape, dprob)
    adam_step(params, grads, state, lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    return loss


def train(spec, dataset, cfg, progress=None):
    """Full recipe: seeded per-epoch shuffles, forward -> soft Dice ->
    backward -> Adam with the step-decayed rate, validation Dice per epoch,
    best-validation parameters retained.

    Returns (best parameter store, TrainLog).
    """
    train_part = dataset.part("train")
    val_part = dataset.part("val")
    if not train_part:
        raise ShapeError("dataset has no training samples")
    if not val_part:
        raise ShapeError("dataset has no validation samples")
    params = init_params(spec, cfg.seed)
    state = AdamState(params)
    epoch_seeds = Prng(cfg.seed ^ _SHUFFLE_TAG)
    log = TrainLog()
    best_dice = float("-inf")
    best_params = params.copy()
    global_step = 0
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        epoch_losses = []
        for batch_idx, (images, masks) in enumerate(
            batches(train_part, cfg.batch_size, epoch_seeds.next_u64())
        ):
            lr = lr_at(global_step, cfg)
            try:
                loss = train_step(spec, params, state, images, masks, lr, cfg)
            except (ShapeError, NumericsError) as e:
                raise type(e)(f"epoch {epoch} batch {batch_idx}: {e}") from e
            log.steps.append((global_step, lr, loss))
            epoch_losses.append(loss)
            global_step += 1
        val_dice = evaluate(spec, params, val_part).mean_dice
        seconds = time.perf_counter() - started
        train_loss = sum(epoch_losses) / len(epoch_losses)
        log.epochs.append((epoch, train_loss, val_dice, seconds))
        if val_dice > best_dice:
            best_dice = val_dice
            best_params = params.copy()
        if progress is not None:
            progress(epoch, train_loss, val_dice, seconds)
    return best_params, log
