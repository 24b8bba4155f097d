"""Optimizer, schedule, and the full training loop."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.autodiff import Tensor, backward
from graphkd.config import Schedule
from graphkd.datasets import DataSplit, Dataset, minibatch_indices
from graphkd.harness import build_split
from graphkd import losses, training
from graphkd.graphs import build_similarity_graph
from graphkd.losses import gkd_loss, task_loss
from graphkd.models import build_blocknet, forward_with_taps
from graphkd.training import (
    evaluate_error,
    lr_at,
    sgd_momentum_step,
    train,
)

from conftest import make_config, tape
from _tape_ops import add, mul

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
        velocities = [np.zeros_like(p.data)]
        sgd_momentum_step([p], [g], velocities, learning_rate=0.1, momentum=0.9)
        assert_allclose(p.data, w0 - 0.1 * g, atol=1e-15)
        sgd_momentum_step([p], [g], velocities, learning_rate=0.1, momentum=0.9)
        assert_allclose(p.data, w0 - 0.1 * g - 0.1 * 1.9 * g, atol=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        g = np.ones((2, 2))
        velocities = [np.zeros_like(p.data)]
        sgd_momentum_step([p], [g], velocities, learning_rate=0.5, momentum=0.0)
        sgd_momentum_step([p], [g], velocities, learning_rate=0.5, momentum=0.0)
        assert_allclose(p.data, -1.0 * np.ones((2, 2)), atol=1e-15)

    def test_step_is_in_place_and_equals_the_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        params = [Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  Tensor(rng.normal(size=(1, 4)), requires_grad=True)]
        learning_rate, momentum = 0.037, 0.9
        velocities = [rng.normal(size=p.data.shape) for p in params]
        grads = [rng.normal(size=p.data.shape) for p in params]
        arrays = [p.data for p in params]
        buffers = list(velocities)
        expected_v = [momentum * v + g for v, g in zip(buffers, grads)]
        expected_p = [p.data - learning_rate * v for p, v in zip(params, expected_v)]
        sgd_momentum_step(params, grads, velocities, learning_rate, momentum)
        for i, p in enumerate(params):
            assert p.data is arrays[i] and velocities[i] is buffers[i]
            assert p.data.tobytes() == expected_p[i].tobytes()
            assert velocities[i].tobytes() == expected_v[i].tobytes()

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            sgd_momentum_step([p], [np.zeros((2, 3))], [np.zeros_like(p.data)], 0.1, 0.9)

    def test_gradient_count_mismatch_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError):
            sgd_momentum_step([p], [], [np.zeros_like(p.data)], 0.1, 0.9)


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

    @pytest.mark.parametrize("loss", ["gkd", "rkdd", "ikd"])
    def test_trainable_teacher_keeps_its_flags_grads_and_weights(self, loss):
        # the KD losses read the teacher's taps as arrays, so a teacher whose
        # parameters require gradients trains the student exactly as a flag-off one
        graph = {"graph": {"k": 7}} if loss == "gkd" else {}
        config = make_config(loss=loss, lambda_kd=1.0, **graph)
        split = build_split(config)
        widths = (4, 4) if loss == "ikd" else (16, 16)
        teacher = build_blocknet((1, 1), widths, 3, 2, seed=9)
        teacher.set_requires_grad(True)
        before = [(p.data.copy(), p.grad.copy()) for p in teacher.parameters()]
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        train(student, split, config, seed=2, teacher=teacher)
        for p, (data, grad) in zip(teacher.parameters(), before):
            assert p.requires_grad
            assert_array_equal(p.data, data)
            assert_array_equal(p.grad, grad)

        flag_off = build_blocknet((1, 1), widths, 3, 2, seed=9)
        reference = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        train(reference, split, config, seed=2, teacher=flag_off)
        assert not any(p.requires_grad for p in flag_off.parameters())
        for p, q in zip(student.parameters(), reference.parameters()):
            assert_array_equal(p.data, q.data)

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

    def test_overflowing_total_loss_stops_before_the_step(self):
        # task and kd are finite at step 0, but lambda_kd * kd overflows to inf
        config = make_config(loss="gkd", lambda_kd=1e308, graph={"k": 7})
        split = build_split(config)
        teacher = build_blocknet((1, 1), (16, 16), 3, 2, seed=9)
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        start = [p.data.copy() for p in student.parameters()]
        message = r"^training diverged at epoch 0, step 0: total loss is inf$"
        with pytest.raises(RuntimeError, match=message):
            train(student, split, config, seed=2, teacher=teacher)
        for p, before in zip(student.parameters(), start):
            assert_array_equal(p.data, before)

    def test_non_finite_gradient_stops_before_the_step(self):
        # with block 1 the identity, the student's first tap is these rows; the
        # subnormal degree gives a finite gkd loss and an all-NaN gradient
        rows = Dataset([[1.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1e-310, 0.0, 1.0]], [0, 1, 0], 2)
        config = make_config(loss="gkd", lambda_kd=0.5, batch_size=3, graph={"k": 2, "p": 1})
        teacher = build_blocknet([1], [4], 3, 2, seed=2)
        student = build_blocknet([1], [3], 3, 2, seed=1)
        w, b = student.blocks[0][0]
        w.data[...] = np.eye(3)
        b.data[...] = 0.0
        start = [p.data.copy() for p in student.parameters()]
        message = r"^training diverged at epoch 0, step 0: gradient norm is nan$"
        with pytest.raises(RuntimeError, match=message):
            train(student, DataSplit(rows, rows), config, seed=0, teacher=teacher)
        for p, before in zip(student.parameters(), start):
            assert_array_equal(p.data, before)

    def test_teacher_side_stays_off_the_tape(self, monkeypatch):
        built = []

        def spy(reps, **kwargs):
            graph = build_similarity_graph(reps, **kwargs)
            built.append((reps, graph))
            return graph

        monkeypatch.setattr(losses, "build_similarity_graph", spy)
        split = build_split(make_config())
        xb, yb = split.train.features[:24], split.train.labels[:24]
        teacher = build_blocknet((1, 1), (16, 16), 3, 2, seed=9)
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=4)
        student.set_requires_grad(True)
        teacher.set_requires_grad(False)
        s_taps, t_taps = forward_with_taps(student, xb), forward_with_taps(teacher, xb)
        for loss in ("gkd", "rkdd"):
            config = make_config(loss=loss, **({"graph": {"k": 7}} if loss == "gkd" else {}))
            kd = training._kd_loss(config, s_taps, t_taps, yb)
            taped = {id(t) for t in tape(kd)}
            assert not any(id(tap) in taped for tap in t_taps)
        # one stacked build per side, student first
        assert len(built) == 2
        (s_reps, s_graph), (t_reps, t_graph) = built
        assert all(isinstance(tap, Tensor) for tap in s_reps)
        assert not any(isinstance(tap, Tensor) for tap in t_reps)
        assert s_graph.adjacency_tensor is not None
        assert t_graph.adjacency_tensor is None
        for graph in (s_graph, t_graph):
            assert graph.adjacency.shape == (len(teacher.tap_names()), 24, 24)
        assert student.num_blocks == teacher.num_blocks

    def test_vanilla_step_records_fourteen_tape_nodes(self):
        # the input batch, each of the four layers' node, weight and bias, and
        # the task loss node
        split = build_split(make_config())
        student = build_blocknet((1, 1, 1), (4, 4, 4), 3, 2, seed=4)
        student.set_requires_grad(True)
        logits = forward_with_taps(student, Tensor(split.train.features[:24]))[-1]
        assert len(tape(task_loss(logits, split.train.labels[:24]))) == 14

    def step_taps(self, loss, **overrides):
        """(config, student, student taps, teacher taps, labels) of one batch
        under ``loss``, with four-tap nets (ikd's teacher has the student's widths)."""
        config = make_config(loss=loss, lambda_kd=1.5, **overrides)
        split = build_split(config)
        xb, yb = split.train.features[:24], split.train.labels[:24]
        widths = (4, 4, 4) if loss == "ikd" else (16, 16, 16)
        teacher = build_blocknet((1, 1, 1), widths, 3, 2, seed=9)
        student = build_blocknet((1, 1, 1), (4, 4, 4), 3, 2, seed=4)
        student.set_requires_grad(True)
        teacher.set_requires_grad(False)
        return config, student, forward_with_taps(student, xb), forward_with_taps(teacher, xb), yb

    def step_losses(self, loss, **overrides):
        """(config, student, task, kd) of one batch's step under ``loss``."""
        config, student, s_taps, t_taps, yb = self.step_taps(loss, **overrides)
        task = task_loss(s_taps[-1], yb)
        return config, student, task, training._kd_loss(config, s_taps, t_taps, yb)

    def test_dense_gkd_step_adds_five_tape_nodes(self):
        # the factored node of the three block taps, the logits' graph node
        # and its GKD term node, the node summing the two terms, and the total
        config, student, task, kd = self.step_losses("gkd", graph={"k": 23})
        total = training._total_loss(task, kd, config.lambda_kd)
        assert len(student.tap_names()) == 4
        assert len(tape(total)) - len(tape(task)) == 5

    def test_dense_gkd_step_gradients_match_the_graph_path(self):
        # the factored node on the block taps against one stacked graph pair of
        # all four taps; where the two differ (tap entries equal to 0) the
        # ReLU passes no gradient to the parameters
        grads = []
        for path in ("taps", "graphs"):
            config, student, s_taps, t_taps, yb = self.step_taps("gkd", graph={"k": 23})
            if path == "taps":
                kd = training._kd_loss(config, s_taps, t_taps, yb)
                assert kd._parents[0]._parents == tuple(s_taps[:3])  # the factored node
            else:
                kd = gkd_loss(*([build_similarity_graph(taps, k=23)]
                                for taps in (s_taps, [tap.data for tap in t_taps])))
            backward(training._total_loss(task_loss(s_taps[-1], yb), kd, config.lambda_kd))
            grads.append([p.grad for p in student.parameters()])
        for got, ref in zip(*grads):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    # tape nodes of a whole step: vanilla's 14, then the KD nodes (gkd: the
    # graph and term nodes; rkdd, ikd: four tap terms and their sum node) and
    # the total node
    @pytest.mark.parametrize("loss,nodes", [("gkd", 17), ("rkdd", 20), ("ikd", 20)])
    def test_kd_step_records_the_pinned_tape_nodes(self, loss, nodes):
        graph = {"graph": {"k": 8, "p": 2, "mask_mode": "inter_class"}} if loss == "gkd" else {}
        config, _, task, kd = self.step_losses(loss, **graph)
        assert len(tape(training._total_loss(task, kd, config.lambda_kd))) == nodes

    @pytest.mark.parametrize("loss", ["gkd", "rkdd", "ikd"])
    def test_total_node_equals_add_of_mul(self, loss):
        graph = {"graph": {"k": 8, "p": 2, "mask_mode": "inter_class"}} if loss == "gkd" else {}
        config, student, task, kd = self.step_losses(loss, **graph)
        got = training._total_loss(task, kd, config.lambda_kd)
        backward(got)
        grads = [p.grad for p in student.parameters()]
        config, student, task, kd = self.step_losses(loss, **graph)
        ref = add(task, mul(kd, config.lambda_kd))
        backward(ref)
        assert got.data.tobytes() == ref.data.tobytes()
        for g, p in zip(grads, student.parameters()):
            assert g.tobytes() == p.grad.tobytes()

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
        with pytest.raises(ValueError, match="IKD requires identical dimensions"):
            train(student, split, ikd, seed=1, teacher=teacher)

    def test_classes_rules(self):
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=0)
        three = make_config(dataset={"name": "gaussian_mixture", "n": 150, "classes": 3,
                                     "dim": 3, "separation": 6.0, "seed": 0})
        with pytest.raises(ValueError, match="^network has 2 classes but data has 3$"):
            train(student, build_split(three), three, seed=1)
        # GKD and RKD-D compare taps of any width, so only this rule pairs the
        # teacher's classes with the student's
        teacher = build_blocknet((1, 1), (16, 16), 3, 3, seed=0)
        gkd = make_config(loss="gkd", lambda_kd=1.0)
        with pytest.raises(ValueError, match=re.escape(
                "teacher (3 -> 3) and student (3 -> 2) disagree on input/classes")):
            train(student, build_split(gkd), gkd, seed=1, teacher=teacher)

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
