"""The four closed-loop, one-client workloads.

Each workload builds its inputs from the workload seed alone: ellipse
phantoms from `rfbs.data.generate_phantoms`, and weights from
`rfbs.model.init_params` round-tripped through a checkpoint on disk. Engine
functions are always called through their module attribute (`model.forward`,
not a bound name), so the traced run sees every call.

A workload has `setup()`, `request(i)` (the timed part), `check(i, out)`
(untimed; returns None or what is wrong) and `digest()` (a hash of outputs
that do not depend on how many requests the run had time for).
"""

import contextlib
import hashlib
import io
import os

import numpy as np

from rfbs import cli, data, metrics, model, training

from reference import compare, probability_problem, reference_forward

PHANTOMS = 32  # distinct inference inputs, cycled
REFERENCE_CHECKS = 8  # requests compared against the float64 reference
TRAIN_BATCH = 8
TRAIN_SAMPLES = 32  # four full batches per epoch
EVAL_SAMPLES = 10  # 2 train + 8 val after the split below
EVAL_TRAIN_FRACTION = 0.2
EVAL_WORKERS = 2
DIGEST_STEP = 2  # train digests the parameters after this step index


def _sha(parts):
    """sha256 over a sequence of bytes objects and arrays."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _weights(spec, seed, workdir):
    path = os.path.join(workdir, "weights.rfbc")
    model.save_checkpoint(path, spec, model.init_params(spec, seed))
    _, params = model.load_checkpoint(path, expected_spec=spec)
    return params


class Infer:
    """Batch-1 forward, then the foreground mask and its confusion counts."""

    images_per_request = 1
    min_requests = 200  # p95 with at least ten samples beyond it
    warmup = 3

    def __init__(self, size, seed, workdir):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.outputs = {}
        self.ref_diffs = []
        self.ref_agreements = []

    def setup(self):
        dataset = data.generate_phantoms(PHANTOMS, self.size, self.seed)
        self.spec = model.build_rfbsnet_desk()
        self.params = _weights(self.spec, self.seed, self.workdir)
        self.images = [s.image[None] for s in dataset.samples]
        self.masks = [s.mask for s in dataset.samples]

    def request(self, i):
        k = i % PHANTOMS
        prob, _ = model.forward(self.spec, self.params, self.images[k])
        pred = metrics.argmax_mask(prob, foreground_class=1)[0]
        return prob, pred, metrics.confusion(pred, self.masks[k])

    def check(self, i, out):
        prob, pred, counts = out
        problem = probability_problem(prob)
        if problem:
            return problem
        if counts.total != self.size * self.size:
            return f"confusion counts {counts.total} pixels, image has {self.size ** 2}"
        if int(np.count_nonzero(pred)) != counts.tp + counts.fp:
            return "confusion counts disagree with the predicted mask"
        digest = _sha([prob])
        first = self.outputs.setdefault(i % PHANTOMS, digest)
        if digest != first:
            return f"phantom {i % PHANTOMS} gave a different output than before"
        if i < PHANTOMS and i % (PHANTOMS // REFERENCE_CHECKS) == 0:
            ref = reference_forward(self.spec, self.params, self.images[i])
            diff, agree, problem = compare(prob, ref)
            self.ref_diffs.append(diff)
            self.ref_agreements.append(agree)
            return problem
        return None

    def digest(self):
        return _sha([bytes.fromhex(self.outputs[k]) for k in sorted(self.outputs)])

    def notes(self):
        if not self.ref_diffs:
            return {}
        return {
            "reference_checks": len(self.ref_diffs),
            "reference_max_prob_diff": max(self.ref_diffs),
            "reference_min_mask_agreement": min(self.ref_agreements),
        }


class Train:
    """One Adam step at batch 8, in the inner-loop order of training.train."""

    images_per_request = TRAIN_BATCH
    min_requests = 3
    warmup = 1

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.losses = {}  # step index -> loss, over the first steps after setup
        self.param_digest = None

    def setup(self):
        dataset = data.generate_phantoms(TRAIN_SAMPLES, 256, self.seed)
        self.samples = dataset.samples
        self.spec = model.build_rfbsnet_desk()
        self.params = _weights(self.spec, self.seed, self.workdir)
        self.cfg = training.TrainConfig(batch_size=TRAIN_BATCH, seed=self.seed)
        self.state = training.AdamState(self.params)
        self.epoch_seeds = data.Prng(self.seed)
        self.epoch = iter(())
        self.step = 0

    def _next_batch(self):
        batch = next(self.epoch, None)
        if batch is None:
            self.epoch = data.batches(self.samples, TRAIN_BATCH, self.epoch_seeds.next_u64())
            batch = next(self.epoch)
        return batch

    def request(self, i):
        images, masks = self._next_batch()
        prob, tape = model.forward(self.spec, self.params, images, keep_intermediates=True)
        loss, dprob = training.soft_dice_loss(prob, masks, self.cfg.smooth)
        grads = model.backward(tape, dprob)
        lr = training.lr_at(self.step, self.cfg)
        training.adam_step(
            self.params, grads, self.state, lr,
            self.cfg.beta1, self.cfg.beta2, self.cfg.adam_eps,
        )
        self.step += 1
        return loss

    def check(self, i, loss):
        if not np.isfinite(loss):
            return f"non-finite loss {loss}"
        for name, value in self.params.items():
            if not np.isfinite(value).all():
                return f"non-finite parameter {name}"
        step = self.step - 1
        if step <= DIGEST_STEP and self.losses.setdefault(step, loss) != loss:
            return f"step {step} loss differs from the previous run of that step"
        if step == DIGEST_STEP:
            digest = _sha(v for _, v in self.params.items())
            if self.param_digest not in (None, digest):
                return f"parameters after step {step} differ from the previous run"
            self.param_digest = digest
        return None

    def digest(self):
        losses = ",".join(float(self.losses[k]).hex() for k in sorted(self.losses))
        return _sha([losses.encode(), (self.param_digest or "").encode()])

    def notes(self):
        return {"first_losses": [self.losses[k] for k in sorted(self.losses)]}


class Eval:
    """`rfbs eval --threads 2` over the validation split of an on-disk dataset."""

    min_requests = 3
    warmup = 1

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.data_dir = os.path.join(workdir, "eval-data")
        self.ckpt = os.path.join(workdir, "weights.rfbc")
        self.expected = None

    def setup(self):
        dataset = data.split(
            data.generate_phantoms(EVAL_SAMPLES, 256, self.seed),
            EVAL_TRAIN_FRACTION, self.seed,
        )
        data.save_dataset(self.data_dir, dataset)
        spec = model.build_rfbsnet_desk()
        _weights(spec, self.seed, self.workdir)
        self.images_per_request = len(dataset.part("val"))

    def _run(self, workers):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([
                "eval", "--data", self.data_dir, "--ckpt", self.ckpt,
                "--split", "val", "--threads", str(workers),
            ])
        records = "".join(
            line for line in buf.getvalue().splitlines(True) if not line.startswith("#")
        )
        return code, records

    def request(self, i):
        return self._run(EVAL_WORKERS)

    def check(self, i, out):
        code, records = out
        if code != 0:
            return f"rfbs eval exited with {code}"
        if self.expected is None:
            self.expected = self._run(1)[1]
        if records != self.expected:
            return "records differ from a single-worker pass"
        return None

    def digest(self):
        return _sha([(self.expected or "").encode()])

    def notes(self):
        return {}


WORKLOADS = {
    "infer-256": lambda seed, workdir: Infer(256, seed, workdir),
    "infer-64": lambda seed, workdir: Infer(64, seed, workdir),
    "train-256": Train,
    "eval-2w": Eval,
}
POOL_WORKERS = {"eval-2w": EVAL_WORKERS}
