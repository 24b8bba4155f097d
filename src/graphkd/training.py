"""SGD training with heavy-ball momentum, step schedules, and KD objectives.

One backward pass per step covers task + lambda * KD.  The teacher is
forwarded without gradients and never updated.  All randomness (shuffling)
derives from (seed, epoch), so a run is bit-reproducible from its config
and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, backward, mul, zero_grads
from .config import DistillConfig, Schedule
from .datasets import DataSplit, minibatch_indices
from .losses import gkd_loss, ikd_loss, rkdd_loss, task_loss
from .graphs import build_similarity_graph
from .models import BlockNet, forward_with_taps, frozen_forward

__all__ = [
    "OptimizerState",
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


@dataclass
class OptimizerState:
    learning_rate: float
    momentum: float
    velocities: list[np.ndarray]


def init_optimizer(params, learning_rate: float, momentum: float) -> OptimizerState:
    return OptimizerState(
        learning_rate=float(learning_rate),
        momentum=float(momentum),
        velocities=[np.zeros_like(p.data) for p in params],
    )


def sgd_momentum_step(params, grads, state: OptimizerState) -> None:
    """Heavy-ball update: v <- momentum*v + g; w <- w - lr*v (in place on state)."""
    if len(params) != len(grads) or len(params) != len(state.velocities):
        raise ValueError(
            f"sgd_momentum_step: got {len(params)} params, {len(grads)} grads, "
            f"{len(state.velocities)} velocities"
        )
    for i, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(
                f"sgd_momentum_step: grad {i} has shape {g.shape}, expected {p.data.shape}"
            )
        v = state.momentum * state.velocities[i] + g
        state.velocities[i] = v
        p.data = p.data - state.learning_rate * v


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
    """Top-1 error rate on a dataset, computed without touching the tape."""
    logits = frozen_forward(net, dataset.features).logits.data
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
        if len(teacher.tap_set) != len(net.tap_set):
            raise ValueError(
                f"teacher exposes {len(teacher.tap_set)} taps but student exposes "
                f"{len(net.tap_set)}; KD losses need matching tap counts"
            )
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


def _kd_loss(config: DistillConfig, student_out, teacher_out, net, teacher, labels) -> Tensor:
    """Return the configured KD loss as a tensor on the student's tape."""
    s_taps = student_out.for_taps(net.tap_set)
    t_taps = teacher_out.for_taps(teacher.tap_set)
    if config.loss == "gkd":
        g = config.graph
        s_graphs = [
            build_similarity_graph(tap, k=g.k, p=g.p, mask_mode=g.mask_mode, labels=labels)
            for tap in s_taps
        ]
        t_graphs = [
            build_similarity_graph(tap.detach(), k=g.k, p=g.p, mask_mode=g.mask_mode, labels=labels)
            for tap in t_taps
        ]
        return gkd_loss(s_graphs, t_graphs)
    if config.loss == "rkdd":
        return rkdd_loss(s_taps, t_taps)
    return ikd_loss(s_taps, t_taps)


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
    loss term, or non-finite parameters at the end of an epoch, raise
    ``RuntimeError`` instead of training on.
    """
    _validate_setup(net, data, config, teacher)
    schedule = config.schedule
    kd_active = config.loss != "vanilla" and config.lambda_kd > 0

    params = net.parameters()
    net.set_requires_grad(True)
    if teacher is not None:
        teacher.set_requires_grad(False)
    state = init_optimizer(params, lr_at(schedule, 0), config.momentum)

    features, labels = data.train.features, data.train.labels
    metrics: list[EpochMetrics] = []
    for epoch in range(schedule.total_epochs):
        state.learning_rate = lr_at(schedule, epoch)
        rng = np.random.default_rng([int(seed), epoch])
        batch_sums = np.zeros(3)  # task, kd, total
        hits = 0
        seen = 0
        batches = minibatch_indices(len(data.train), config.batch_size, rng)
        for step, idx in enumerate(batches):
            xb = Tensor(features[idx])
            yb = labels[idx]
            student_out = forward_with_taps(net, xb)
            task_t = task_loss(student_out.logits, yb)
            task = float(task_t.data)
            if kd_active:
                teacher_out = forward_with_taps(teacher, xb)
                kd_t = _kd_loss(config, student_out, teacher_out, net, teacher, yb)
                total_t = add(task_t, mul(kd_t, config.lambda_kd))
                kd = float(kd_t.data)
                total = task + config.lambda_kd * kd
            else:
                total_t = task_t
                kd, total = 0.0, task
            for term, value in (("task", task), ("kd", kd)):
                if not math.isfinite(value):
                    raise RuntimeError(
                        f"training diverged at epoch {epoch}, step {step}: {term} loss is {value}"
                    )

            zero_grads(params)
            backward(total_t)
            sgd_momentum_step(params, [p.grad for p in params], state)

            batch_sums += (task, kd, total)
            hits += int(np.sum(np.argmax(student_out.logits.data, axis=1) == yb))
            seen += len(yb)

        if not all(np.isfinite(p.data).all() for p in params):
            raise RuntimeError(f"training diverged at epoch {epoch}: parameters are not finite")
        n_batches = len(batches)
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                lr=float(state.learning_rate),
                train_error=float(1.0 - hits / seen),
                test_error=evaluate_error(net, data.test),
                task_loss=float(batch_sums[0] / n_batches),
                kd_loss=float(batch_sums[1] / n_batches),
                total_loss=float(batch_sums[2] / n_batches),
            )
        )
    return TrainResult(net=net, metrics=metrics)
