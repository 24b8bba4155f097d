"""SGD training with heavy-ball momentum, step schedules, and KD objectives.

One backward pass per step covers task + lambda * KD, recorded as one tape
node; it replaces the parameters' gradients, so nothing zeroes them between
steps.  The KD losses read the teacher's taps as arrays, so the teacher gets
no gradient, is never updated and keeps its parameters' flags as given.  All
randomness (shuffling) derives from (seed, epoch), so a run is
bit-reproducible from its config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward, record
from .config import DistillConfig, Schedule
from .datasets import DataSplit, minibatch_indices
from .losses import gkd_loss, ikd_loss, rkdd_loss, task_loss
from .graphs import build_similarity_graph
from .models import BlockNet, forward_with_taps

__all__ = [
    "EpochMetrics",
    "TrainResult",
    "lr_at",
    "sgd_momentum_step",
    "evaluate_error",
    "train",
]


def lr_at(schedule: Schedule, epoch: int) -> float:
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError(
            f"epoch {epoch} outside the schedule range [0, {schedule.total_epochs})"
        )
    passed = sum(1 for m in schedule.milestones if m <= epoch)
    return schedule.base_lr * schedule.decay_factor**passed


def sgd_momentum_step(params, grads, velocities, learning_rate: float, momentum: float) -> None:
    """Heavy-ball update: v <- momentum*v + g; w <- w - lr*v.

    Both updates are in place, on the caller's velocity arrays and on each
    parameter's array.
    """
    if len(params) != len(grads) or len(params) != len(velocities):
        raise ValueError(
            f"sgd_momentum_step: got {len(params)} params, {len(grads)} grads, "
            f"{len(velocities)} velocities"
        )
    for i, (p, g, v) in enumerate(zip(params, grads, velocities)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(
                f"sgd_momentum_step: grad {i} has shape {g.shape}, expected {p.data.shape}"
            )
        v *= momentum
        v += g
        p.data -= learning_rate * v


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_error: float
    test_error: float
    task_loss: float
    kd_loss: float
    total_loss: float


@dataclass
class TrainResult:
    net: BlockNet
    metrics: list[EpochMetrics]

    @property
    def final(self) -> EpochMetrics:
        return self.metrics[-1]


def evaluate_error(net: BlockNet, dataset) -> float:
    """Top-1 error rate on a dataset; the forward is never differentiated."""
    logits = forward_with_taps(net, dataset.features)[-1].data
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred != dataset.labels))


def _validate_setup(net, data: DataSplit, config: DistillConfig, teacher) -> None:
    if config.loss == "vanilla":
        if teacher is not None:
            raise ValueError("vanilla training does not take a teacher")
    else:
        if teacher is None:
            raise ValueError(f"loss {config.loss!r} requires a teacher network")
        if teacher.input_dim != net.input_dim or teacher.classes != net.classes:
            raise ValueError(
                f"teacher ({teacher.input_dim} -> {teacher.classes}) and student "
                f"({net.input_dim} -> {net.classes}) disagree on input/classes"
            )
        t_count, s_count = len(teacher.tap_names()), len(net.tap_names())
        if t_count != s_count:
            raise ValueError(f"teacher exposes {t_count} taps but student exposes {s_count}; "
                             "KD losses need matching tap counts")
        if config.loss == "ikd" and teacher.widths != net.widths:
            raise ValueError(
                f"ikd requires identical tap widths, got teacher {teacher.widths} "
                f"and student {net.widths}"
            )
    if net.input_dim != data.train.dim:
        raise ValueError(
            f"network input_dim {net.input_dim} does not match data dim {data.train.dim}"
        )
    if net.classes < data.train.num_classes:
        raise ValueError(
            f"network has {net.classes} classes but data has {data.train.num_classes}"
        )
    if len(data.train) < config.batch_size:
        raise ValueError(
            f"training split of {len(data.train)} examples is smaller than "
            f"batch_size {config.batch_size}"
        )


def _kd_loss(config: DistillConfig, s_taps, t_taps, labels) -> Tensor:
    """Return the configured KD loss as a tensor on the student's tape.

    Both tap lists are as the forward pass returns them.  The teacher's taps
    go in as arrays, so nothing on the teacher side is taped.
    """
    t_taps = [tap.data for tap in t_taps]
    if config.loss == "gkd":
        g = config.graph
        # one (taps, n, n) stack per side
        s_graph, t_graph = (
            build_similarity_graph(taps, k=g.k, p=g.p, mask_mode=g.mask_mode, labels=labels)
            for taps in (s_taps, t_taps)
        )
        return gkd_loss([s_graph], [t_graph])
    if config.loss == "rkdd":
        return rkdd_loss(s_taps, t_taps)
    return ikd_loss(s_taps, t_taps)


def _total_loss(task: Tensor, kd: Tensor, lambda_kd: float) -> Tensor:
    """``task + lambda_kd * kd`` as one tape node, bitwise equal to
    ``add(task, mul(kd, lambda_kd))``."""
    return record(task.data + kd.data * lambda_kd, (task, kd), lambda g: (g, g * lambda_kd))


# overflow on the way to divergence is reported once, by the finiteness checks
# in the loop, not as a stream of numpy warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(
    net: BlockNet,
    data: DataSplit,
    config: DistillConfig,
    seed: int,
    teacher: BlockNet | None = None,
) -> TrainResult:
    """Train ``net`` under the configured objective; returns per-epoch metrics.

    With ``lambda_kd == 0`` the KD branch short-circuits, so such a run is
    bit-identical to plain task training with the same seed.  A non-finite
    loss term, a non-finite global gradient norm (checked after ``backward``,
    before SGD touches a parameter or velocity), or non-finite parameters at
    the end of an epoch, raise ``RuntimeError`` instead of training on.
    """
    _validate_setup(net, data, config, teacher)
    schedule = config.schedule

    params = net.parameters()
    net.set_requires_grad(True)
    velocities = [np.zeros_like(p.data) for p in params]

    features, labels = data.train.features, data.train.labels
    metrics: list[EpochMetrics] = []
    for epoch in range(schedule.total_epochs):
        lr = lr_at(schedule, epoch)
        rng = np.random.default_rng([int(seed), epoch])
        batch_sums = np.zeros(3)  # task, kd, total
        hits = 0
        seen = 0
        batches = minibatch_indices(len(data.train), config.batch_size, rng)
        for step, idx in enumerate(batches):
            xb = Tensor(features[idx])
            yb = labels[idx]
            s_taps = forward_with_taps(net, xb)
            task_t = task_loss(s_taps[-1], yb)
            task = float(task_t.data)
            if config.lambda_kd > 0:  # never under vanilla, which forces lambda_kd = 0
                kd_t = _kd_loss(config, s_taps, forward_with_taps(teacher, xb), yb)
                total_t = _total_loss(task_t, kd_t, config.lambda_kd)
                kd = float(kd_t.data)
            else:
                total_t, kd = task_t, 0.0
            total = float(total_t.data)
            for term, value in (("task", task), ("kd", kd), ("total", total)):
                if not math.isfinite(value):
                    raise RuntimeError(
                        f"training diverged at epoch {epoch}, step {step}: {term} loss is {value}"
                    )

            backward(total_t)
            grads = [p.grad for p in params]
            grad_norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads))
            if not math.isfinite(grad_norm):
                raise RuntimeError(
                    f"training diverged at epoch {epoch}, step {step}: gradient norm is {grad_norm}"
                )
            sgd_momentum_step(params, grads, velocities, lr, config.momentum)

            batch_sums += (task, kd, total)
            hits += int(np.sum(np.argmax(s_taps[-1].data, axis=1) == yb))
            seen += len(yb)

        if not all(np.isfinite(p.data).all() for p in params):
            raise RuntimeError(f"training diverged at epoch {epoch}: parameters are not finite")
        n_batches = len(batches)
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                lr=lr,
                train_error=float(1.0 - hits / seen),
                test_error=evaluate_error(net, data.test),
                task_loss=float(batch_sums[0] / n_batches),
                kd_loss=float(batch_sums[1] / n_batches),
                total_loss=float(batch_sums[2] / n_batches),
            )
        )
    return TrainResult(net=net, metrics=metrics)
