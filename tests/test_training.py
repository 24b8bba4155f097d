"""Optimizer, schedule, and the full training loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.autodiff import Tensor
from graphkd.config import Schedule
from graphkd.datasets import minibatch_indices
from graphkd.harness import build_split
from graphkd.models import build_blocknet, forward_with_taps
from graphkd.training import (
    OptimizerState,
    evaluate_error,
    init_optimizer,
    lr_at,
    sgd_momentum_step,
    train,
)

from conftest import make_config

PAPER_SCHEDULE = Schedule(base_lr=0.1, decay_factor=0.2, milestones=(60, 120, 160), total_epochs=200)


class TestSchedule:
    def test_published_schedule_values(self):
        assert lr_at(PAPER_SCHEDULE, 0) == 0.1
        assert lr_at(PAPER_SCHEDULE, 59) == 0.1
        assert_allclose(lr_at(PAPER_SCHEDULE, 60), 0.02, rtol=1e-12)
        assert_allclose(lr_at(PAPER_SCHEDULE, 120), 0.004, rtol=1e-12)
        assert_allclose(lr_at(PAPER_SCHEDULE, 160), 0.0008, rtol=1e-12)
        assert_allclose(lr_at(PAPER_SCHEDULE, 199), 0.0008, rtol=1e-12)

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(PAPER_SCHEDULE, 200)
        with pytest.raises(ValueError):
            lr_at(PAPER_SCHEDULE, -1)

    def test_milestones_must_increase(self):
        with pytest.raises(ValueError):
            Schedule(base_lr=0.1, decay_factor=0.2, milestones=(50, 50), total_epochs=100)
        with pytest.raises(ValueError):
            Schedule(base_lr=0.1, decay_factor=0.2, milestones=(80, 20), total_epochs=100)

    def test_milestones_must_fit_horizon(self):
        with pytest.raises(ValueError):
            Schedule(base_lr=0.1, decay_factor=0.2, milestones=(100,), total_epochs=100)


class TestSgdMomentum:
    def test_two_steps_with_constant_gradient(self):
        """First step moves by lr*g; the second by lr*1.9*g (velocity 0.9g + g)."""
        w0 = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.25]])
        p = Tensor(w0.copy(), requires_grad=True)
        state = init_optimizer([p], learning_rate=0.1, momentum=0.9)
        sgd_momentum_step([p], [g], state)
        assert_allclose(p.data, w0 - 0.1 * g, atol=1e-15)
        sgd_momentum_step([p], [g], state)
        assert_allclose(p.data, w0 - 0.1 * g - 0.1 * 1.9 * g, atol=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        g = np.ones((2, 2))
        state = init_optimizer([p], learning_rate=0.5, momentum=0.0)
        sgd_momentum_step([p], [g], state)
        sgd_momentum_step([p], [g], state)
        assert_allclose(p.data, -1.0 * np.ones((2, 2)), atol=1e-15)

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        state = init_optimizer([p], 0.1, 0.9)
        with pytest.raises(ValueError):
            sgd_momentum_step([p], [np.zeros((2, 3))], state)

    def test_gradient_count_mismatch_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        state = init_optimizer([p], 0.1, 0.9)
        with pytest.raises(ValueError):
            sgd_momentum_step([p], [], state)


class TestTrainLoop:
    def test_single_step_matches_hand_computation(self):
        """One epoch, one batch, replayed with explicit numpy arithmetic."""
        config = make_config(
            dataset={
                "name": "gaussian_mixture",
                "n": 24,
                "classes": 2,
                "dim": 3,
                "separation": 4.0,
                "seed": 0,
                "test_fraction": 0.25,
            },
            student={"depths": [1], "widths": [5]},
            schedule={"base_lr": 0.1, "decay_factor": 0.2, "milestones": [], "total_epochs": 1},
            batch_size=18,
        )
        split = build_split(config)
        net = build_blocknet((1,), (5,), 3, 2, seed=3)
        w1, b1 = net.blocks[0][0]
        w2, b2 = net.head
        start = [p.data.copy() for p in (w1, b1, w2, b2)]

        result = train(net, split, config, seed=7)

        order = minibatch_indices(18, 18, np.random.default_rng([7, 0]))[0]
        x = split.train.features[order]
        y = split.train.labels[order]
        pre = x @ start[0] + start[1]
        h = np.maximum(pre, 0.0)
        logits = h @ start[2] + start[3]
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        dlogits = probs.copy()
        dlogits[np.arange(18), y] -= 1.0
        dlogits /= 18.0
        grads = [
            x.T @ (dlogits @ start[2].T * (pre > 0)),
            np.sum(dlogits @ start[2].T * (pre > 0), axis=0, keepdims=True),
            h.T @ dlogits,
            np.sum(dlogits, axis=0, keepdims=True),
        ]
        for p, w0, g in zip((w1, b1, w2, b2), start, grads):
            assert_allclose(p.data, w0 - 0.1 * g, atol=1e-12)
        assert len(result.metrics) == 1
        assert result.metrics[0].lr == 0.1

    def test_deterministic_across_runs(self):
        config = make_config()
        split = build_split(config)
        nets = []
        for _ in range(2):
            net = build_blocknet((1, 1), (4, 4), 3, 2, seed=1)
            train(net, split, config, seed=5)
            nets.append(net)
        for p, q in zip(nets[0].parameters(), nets[1].parameters()):
            assert_array_equal(p.data, q.data)

    def test_different_seed_changes_trajectory(self):
        config = make_config()
        split = build_split(config)
        a = build_blocknet((1, 1), (4, 4), 3, 2, seed=1)
        b = build_blocknet((1, 1), (4, 4), 3, 2, seed=1)
        train(a, split, config, seed=5)
        train(b, split, config, seed=6)
        assert any(
            not np.array_equal(p.data, q.data)
            for p, q in zip(a.parameters(), b.parameters())
        )

    def test_metrics_rows_cover_every_epoch(self):
        config = make_config()
        split = build_split(config)
        net = build_blocknet((1, 1), (4, 4), 3, 2, seed=0)
        result = train(net, split, config, seed=1)
        assert [m.epoch for m in result.metrics] == [0, 1, 2]
        assert result.metrics[0].lr == 0.1
        assert_allclose(result.metrics[2].lr, 0.02, rtol=1e-12)
        assert result.final is result.metrics[-1]
        for m in result.metrics:
            assert 0.0 <= m.train_error <= 1.0
            assert 0.0 <= m.test_error <= 1.0
            assert m.kd_loss == 0.0
            assert m.total_loss == m.task_loss

    def test_easy_mixture_reaches_zero_error(self):
        config = make_config(
            dataset={
                "name": "gaussian_mixture",
                "n": 160,
                "classes": 2,
                "dim": 3,
                "separation": 12.0,
                "seed": 0,
                "test_fraction": 0.25,
            },
            schedule={"base_lr": 0.1, "decay_factor": 0.2, "milestones": [], "total_epochs": 8},
        )
        split = build_split(config)
        net = build_blocknet((1, 1), (16, 16), 3, 2, seed=2)
        result = train(net, split, config, seed=3)
        assert result.final.test_error == 0.0

    def test_lambda_zero_gkd_is_bit_identical_to_vanilla(self):
        gkd_config = make_config(loss="gkd", lambda_kd=0.0, graph={"k": 5})
        vanilla_config = make_config()
        split = build_split(gkd_config)
        teacher = build_blocknet((1, 1), (16, 16), 3, 2, seed=9)

        a = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        train(a, split, gkd_config, seed=2, teacher=teacher)
        b = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        train(b, split, vanilla_config, seed=2)

        for p, q in zip(a.parameters(), b.parameters()):
            assert_array_equal(p.data, q.data)

    def test_teacher_parameters_never_move(self):
        config = make_config(loss="gkd", graph={"k": 7})
        split = build_split(config)
        teacher = build_blocknet((1, 1), (16, 16), 3, 2, seed=9)
        frozen = [p.data.copy() for p in teacher.parameters()]
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        train(student, split, config, seed=2, teacher=teacher)
        for p, before in zip(teacher.parameters(), frozen):
            assert_array_equal(p.data, before)

    def test_gkd_reports_nonzero_kd_loss(self):
        config = make_config(loss="gkd", graph={"k": 7})
        split = build_split(config)
        teacher = build_blocknet((1, 1), (16, 16), 3, 2, seed=9)
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        result = train(student, split, config, seed=2, teacher=teacher)
        final = result.final
        assert final.kd_loss > 0.0
        assert_allclose(
            final.total_loss, final.task_loss + config.lambda_kd * final.kd_loss, rtol=1e-9
        )

    def test_rkdd_and_ikd_paths_run(self):
        split = build_split(make_config())
        teacher16 = build_blocknet((1, 1), (16, 16), 3, 2, seed=9)
        for loss in ("rkdd", "ikd"):
            config = make_config(
                loss=loss,
                lambda_kd=1.0,
                teacher={"depths": [1, 1], "widths": [4, 4]} if loss == "ikd" else {"depths": [1, 1], "widths": [16, 16]},
            )
            teacher = (
                build_blocknet((1, 1), (4, 4), 3, 2, seed=9) if loss == "ikd" else teacher16
            )
            student = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
            result = train(student, split, config, seed=2, teacher=teacher)
            assert result.final.kd_loss > 0.0

    def test_validation_catches_mismatches(self):
        config = make_config(loss="gkd", graph={"k": 5})
        split = build_split(config)
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=0)
        with pytest.raises(ValueError, match="teacher"):
            train(student, split, config, seed=1)  # teacher missing

        vanilla = make_config()
        teacher = build_blocknet((1, 1), (16, 16), 3, 2, seed=0)
        with pytest.raises(ValueError, match="teacher"):
            train(student, split, vanilla, seed=1, teacher=teacher)

        wrong_dim = build_blocknet((1, 1), (4, 4), 5, 2, seed=0)
        with pytest.raises(ValueError, match="input_dim"):
            train(wrong_dim, split, vanilla, seed=1)

        ikd = make_config(loss="ikd", lambda_kd=1.0)
        with pytest.raises(ValueError, match="widths"):
            train(student, split, ikd, seed=1, teacher=teacher)

    def test_batch_size_larger_than_train_split_rejected(self):
        config = make_config(batch_size=150)
        split = build_split(config)  # 120 train rows
        net = build_blocknet((1, 1), (4, 4), 3, 2, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            train(net, split, config, seed=1)


class TestEvaluate:
    def test_zero_error_on_memorized_labels(self):
        config = make_config()
        split = build_split(config)
        net = build_blocknet((1, 1), (16, 16), 3, 2, seed=2)
        train(net, split, make_config(schedule={
            "base_lr": 0.1, "decay_factor": 0.2, "milestones": [], "total_epochs": 10
        }), seed=0)
        err = evaluate_error(net, split.train)
        preds_match = 1.0 - err
        assert preds_match > 0.9

    def test_evaluation_does_not_touch_grads(self):
        config = make_config()
        split = build_split(config)
        net = build_blocknet((1,), (4,), 3, 2, seed=0)
        net.set_requires_grad(True)
        before = [p.grad.copy() for p in net.parameters()]
        evaluate_error(net, split.test)
        for p, g in zip(net.parameters(), before):
            assert_array_equal(p.grad, g)
            assert p.requires_grad
