"""Block MLP construction, forward taps, and checkpoint serialization."""

import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graphkd.autodiff import Tensor, backward
from graphkd.losses import task_loss
from graphkd.models import (
    BlockNet,
    build_blocknet,
    checkpoint_digest,
    forward_with_taps,
    load_checkpoint,
    save_checkpoint,
)

from _tape_ops import add, log_softmax, matmul, mul, relu, total, where


def param_count(depths, widths, input_dim, classes):
    """Closed-form parameter count: each affine layer has in*out + out."""
    total = 0
    fan_in = input_dim
    for depth, width in zip(depths, widths):
        for _ in range(depth):
            total += fan_in * width + width
            fan_in = width
    return total + fan_in * classes + classes


class TestBuild:
    def test_tap_shapes_and_logits(self):
        net = build_blocknet(depths=(2, 1), widths=(8, 4), input_dim=3, classes=5, seed=0)
        taps = forward_with_taps(net, np.zeros((7, 3)))
        assert [t.data.shape for t in taps] == [(7, 8), (7, 4), (7, 5)]

    def test_parameter_count_closed_form(self):
        for depths, widths, input_dim, classes in (
            ((1,), (4,), 2, 2),
            ((2, 2), (16, 8), 5, 3),
            ((1, 1, 1), (64, 64, 64), 2, 2),
        ):
            net = build_blocknet(depths, widths, input_dim, classes, seed=1)
            assert net.num_parameters() == param_count(depths, widths, input_dim, classes)

    def test_student_is_a_small_fraction_of_teacher(self):
        teacher = build_blocknet((1, 1, 1), (64, 64, 64), input_dim=2, classes=2, seed=0)
        student = build_blocknet((1, 1, 1), (8, 8, 8), input_dim=2, classes=2, seed=0)
        assert student.num_parameters() / teacher.num_parameters() < 0.03

    def test_init_is_deterministic_in_seed(self):
        a = build_blocknet((2,), (6,), 4, 3, seed=11)
        b = build_blocknet((2,), (6,), 4, 3, seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert_array_equal(pa.data, pb.data)
        c = build_blocknet((2,), (6,), 4, 3, seed=12)
        assert any(
            not np.array_equal(pa.data, pc.data)
            for pa, pc in zip(a.parameters(), c.parameters())
        )

    def test_init_respects_fan_in_bound(self):
        net = build_blocknet((1, 1), (100, 50), input_dim=9, classes=4, seed=3)
        fan_in = 9
        for block in net.blocks:
            for w, b in block:
                bound = 1.0 / np.sqrt(fan_in)
                assert np.abs(w.data).max() <= bound
                assert np.abs(b.data).max() <= bound
                fan_in = w.data.shape[1]

    def test_default_tap_set(self):
        # the forward pass returns one tap per name, the head's output last
        x = np.random.default_rng(0).normal(size=(5, 2))
        for blocks in (1, 2, 3):
            net = build_blocknet((1,) * blocks, (4,) * blocks, 2, 3, seed=0)
            names = [f"block{i}" for i in range(1, blocks + 1)]
            assert net.tap_names() == names + ["output"]
            taps = forward_with_taps(net, x)
            assert len(taps) == len(net.tap_names())
            w, b = net.head
            assert_array_equal(taps[-1].data, taps[-2].data @ w.data + b.data)

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            build_blocknet((), (), 2, 2, seed=0)
        with pytest.raises(ValueError):
            build_blocknet((1, 1), (4,), 2, 2, seed=0)
        with pytest.raises(ValueError):
            build_blocknet((0,), (4,), 2, 2, seed=0)
        with pytest.raises(ValueError):
            build_blocknet((1,), (4,), 2, 1, seed=0)


class TestForward:
    def test_zero_weights_give_zero_everywhere(self):
        net = build_blocknet((1, 1), (3, 3), 2, 2, seed=0)
        for p in net.parameters():
            p.data[:] = 0.0
        taps = forward_with_taps(net, np.random.default_rng(0).normal(size=(4, 2)))
        for tap in taps[:-1]:
            assert_array_equal(tap.data, np.zeros((4, 3)))
        assert_array_equal(taps[-1].data, np.zeros((4, 2)))

    def test_identity_block_passes_nonnegative_input_through(self):
        net = build_blocknet((1,), (2,), 2, 2, seed=0)
        w, b = net.blocks[0][0]
        w.data[:] = np.eye(2)
        b.data[:] = 0.0
        x = np.array([[0.5, 1.5], [2.0, 0.0]])
        assert_array_equal(forward_with_taps(net, x)[0].data, x)

    def test_taps_depend_only_on_earlier_blocks(self):
        """Perturbing block 3 must leave tap 1 and tap 2 bit-identical."""
        x = np.random.default_rng(1).normal(size=(5, 2))
        a = build_blocknet((1, 1, 1), (4, 4, 4), 2, 2, seed=7)
        b = build_blocknet((1, 1, 1), (4, 4, 4), 2, 2, seed=7)
        b.blocks[2][0][0].data += 1.0
        taps_a, taps_b = forward_with_taps(a, x), forward_with_taps(b, x)
        assert_array_equal(taps_a[0].data, taps_b[0].data)
        assert_array_equal(taps_a[1].data, taps_b[1].data)
        assert not np.array_equal(taps_a[2].data, taps_b[2].data)

    def test_forward_is_pure(self):
        net = build_blocknet((2,), (5,), 3, 2, seed=2)
        x = np.random.default_rng(2).normal(size=(6, 3))
        assert_array_equal(forward_with_taps(net, x)[-1].data, forward_with_taps(net, x)[-1].data)

    def test_input_width_mismatch_rejected(self):
        net = build_blocknet((1,), (4,), 3, 2, seed=0)
        with pytest.raises(ValueError):
            forward_with_taps(net, np.zeros((2, 5)))

    def test_accepts_tensor_input_on_tape(self):
        net = build_blocknet((1,), (4,), 2, 2, seed=0)
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        assert forward_with_taps(net, x)[-1].data.shape == (3, 2)




def generic_forward(net, x) -> list[Tensor]:
    """The layers as the generic relu(add(matmul(...))) chain: the bitwise reference."""
    h, taps = x, []
    for block in net.blocks:
        for w, b in block:
            h = relu(add(matmul(h, w), b))
        taps.append(h)
    w, b = net.head
    return taps + [add(matmul(h, w), b)]


def generic_task_loss(logits, labels):
    n, classes = logits.data.shape
    onehot = np.arange(classes) == labels[:, None]
    return mul(total(where(onehot, log_softmax(logits), 0.0)), -1.0 / n)


class TestFusedLayers:
    """Each layer and the task loss are one tape node each, bitwise equal to
    the generic ops' values and gradients."""

    def run(self, forward, loss_fn, x, labels):
        net = build_blocknet((2, 1), (5, 4), 3, 3, seed=12)
        net.blocks[0][0][1].data[0, :2] = 0.0  # a zero row of x meets zero biases
        net.set_requires_grad(True)
        xt = Tensor(x, requires_grad=True)
        taps = forward(net, xt)
        loss = loss_fn(taps[-1], labels)
        # a second consumer of every block output, as a KD term has
        for i, tap in enumerate(taps[:-1]):
            loss = add(loss, total(mul(tap, np.cos(np.arange(tap.data.size) + i).reshape(tap.data.shape))))
        backward(loss)
        return net, xt, taps, loss

    def test_values_and_gradients_equal_the_generic_chain(self):
        x = np.random.default_rng(31).normal(size=(6, 3))
        x[2] = 0.0
        for batch in (x, np.zeros((4, 3))):
            labels = np.arange(len(batch)) % 3
            net, xt, taps, loss = self.run(forward_with_taps, task_loss, batch, labels)
            r_net, r_xt, r_taps, r_loss = self.run(generic_forward, generic_task_loss, batch, labels)
            w, b = net.blocks[0][0]
            assert np.any(batch @ w.data + b.data == 0.0)  # the ReLU's kink is hit
            for tap, r_tap in zip(taps, r_taps):
                assert tap.data.tobytes() == r_tap.data.tobytes()
            assert loss.data.tobytes() == r_loss.data.tobytes()
            assert xt.grad.tobytes() == r_xt.grad.tobytes()
            for p, q in zip(net.parameters(), r_net.parameters()):
                assert p.grad.tobytes() == q.grad.tobytes()

    def test_one_tape_node_per_layer(self):
        net = build_blocknet((2, 1), (5, 4), 3, 3, seed=12)
        net.set_requires_grad(True)
        x = Tensor(np.ones((4, 3)))
        layers = [layer for block in net.blocks for layer in block] + [net.head]
        node = forward_with_taps(net, x)[-1]
        for w, b in reversed(layers):
            assert node._parents[1:] == (w, b)
            node = node._parents[0]
        assert node is x


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = build_blocknet((2, 1), (6, 3), 4, 3, seed=5)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.depths == net.depths
        assert loaded.widths == net.widths
        assert loaded.input_dim == net.input_dim
        assert loaded.classes == net.classes
        for p, q in zip(net.parameters(), loaded.parameters()):
            assert_array_equal(p.data, q.data)

    def test_save_load_save_produces_identical_bytes(self, tmp_path):
        net = build_blocknet((1, 1), (4, 4), 2, 2, seed=6)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert checkpoint_digest(p1) == checkpoint_digest(p2)

    def test_write_failing_midway_leaves_no_file(self, tmp_path):
        net = build_blocknet((1, 1), (4, 4), 2, 2, seed=7)
        path = tmp_path / "net.ckpt"
        net.parameters()[-1].data = np.array(["not a number"])  # fails after the header
        with pytest.raises(ValueError):
            save_checkpoint(net, path)
        assert list(tmp_path.iterdir()) == []

        good = build_blocknet((1, 1), (4, 4), 2, 2, seed=8)
        save_checkpoint(good, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(net, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_header_is_one_json_line(self, tmp_path):
        net = build_blocknet((1,), (4,), 2, 2, seed=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        header = path.read_bytes().split(b"\n", 1)[0]
        meta = json.loads(header)
        assert meta["format_version"] == 1
        assert meta["depths"] == [1] and meta["widths"] == [4]
        assert meta["input_dim"] == 2 and meta["classes"] == 2

    def test_rejects_unknown_format_version(self, tmp_path):
        net = build_blocknet((1,), (4,), 2, 2, seed=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        # the writer's keys come from the reader's table; the bytes stay these
        assert header == (b'{"classes": 2, "depths": [1], "format_version": 1, '
                          b'"input_dim": 2, "widths": [4]}')
        meta = json.loads(header)

        def rejects(message):
            path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_checkpoint(path)

        for version in (99, True, 1.0):  # JSON true and 1.0 compare equal to 1
            meta["format_version"] = version
            rejects(f"checkpoint {path}: header field 'format_version' must be 1, "
                    f"got {version!r}")
        del meta["format_version"]
        rejects(f"checkpoint {path}: missing required key 'format_version'")

    def test_rejects_truncated_payload(self, tmp_path):
        net = build_blocknet((1,), (4,), 2, 2, seed=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"not json\n" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_missing_field(self, tmp_path):
        net = build_blocknet((1,), (4,), 2, 2, seed=0)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        del meta["classes"]
        path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="classes"):
            load_checkpoint(path)

    def test_loaded_net_reproduces_outputs(self, tmp_path):
        net = build_blocknet((2,), (8,), 3, 4, seed=9)
        x = np.random.default_rng(9).normal(size=(5, 3))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert_array_equal(
            forward_with_taps(net, x)[-1].data,
            forward_with_taps(loaded, x)[-1].data,
        )
