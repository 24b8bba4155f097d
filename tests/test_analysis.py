"""Loss-concentration, probe-consistency, and spectral-smoothness analyses."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphkd.analysis import (
    LogisticProbe,
    _fit_lockstep,
    concentration_report,
    consistency_curve,
    consistency_probe,
    loss_concentration,
    probe_agreement,
    spectral_report,
)
from graphkd.datasets import gen_gaussian_mixture
from graphkd.graphs import GraphParams
from graphkd.models import build_blocknet

from conftest import make_config
from _oracles import oracle_probe_fit


def blocks_nets(blocks: int, input_dim: int, classes: int, widths=(8, 4, 4)):
    """Untrained nets of ``blocks`` one-layer blocks, one per width, seeded 0, 1, ..."""
    return [build_blocknet((1,) * blocks, (width,) * blocks, input_dim, classes, seed=i)
            for i, width in enumerate(widths)]


# every report names its taps as the nets' tap_names() do, in that order
TAP_ORDER_BLOCKS = (1, 2, 3)


class TestLossConcentration:
    def test_uniform_mass_needs_ninety_percent(self):
        assert loss_concentration(np.ones(10), 0.9) == 90.0

    def test_point_mass_needs_one_example(self):
        v = np.zeros(10)
        v[3] = 5.0
        assert loss_concentration(v, 0.9) == 10.0

    def test_hand_worked_four_values(self):
        # total 10; prefix 4+3+2=9 exactly meets 0.9 -> 3 of 4 -> 75%
        assert loss_concentration(np.array([4.0, 3.0, 2.0, 1.0]), 0.9) == 75.0

    def test_all_zero_returns_none(self):
        assert loss_concentration(np.zeros(5)) is None

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.0, 2.0, size=50)
        assert loss_concentration(v, 0.8) == loss_concentration(v * 123.4, 0.8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.0, 1.0, size=30)
        assert loss_concentration(v) == loss_concentration(v[rng.permutation(30)])

    def test_concentrating_mass_never_raises_percentage(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(0.1, 1.0, size=12)
            base = loss_concentration(v, 0.9)
            shifted = v.copy()
            big, small = np.argmax(shifted), np.argmin(shifted)
            delta = shifted[small] * 0.5
            shifted[big] += delta
            shifted[small] -= delta
            assert loss_concentration(shifted, 0.9) <= base

    def test_input_validation(self):
        with pytest.raises(ValueError):
            loss_concentration(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            loss_concentration(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            loss_concentration(np.array([]))
        with pytest.raises(ValueError):
            loss_concentration(np.ones(3), fraction=0.0)
        with pytest.raises(ValueError):
            loss_concentration(np.ones(3), fraction=1.2)


class TestLogisticProbe:
    def test_separable_data_is_fit_perfectly(self):
        ds = gen_gaussian_mixture(n=200, classes=2, dim=4, separation=10.0, seed=0)
        probe = LogisticProbe().fit(ds.features, ds.labels, 2)
        assert np.mean(probe.predict(ds.features) == ds.labels) == 1.0

    def test_multiclass(self):
        ds = gen_gaussian_mixture(n=300, classes=3, dim=5, separation=10.0, seed=1)
        probe = LogisticProbe().fit(ds.features, ds.labels, 3)
        assert np.mean(probe.predict(ds.features) == ds.labels) > 0.99

    def test_deterministic(self):
        ds = gen_gaussian_mixture(n=100, classes=2, dim=3, separation=3.0, seed=2)
        a = LogisticProbe().fit(ds.features, ds.labels, 2).predict(ds.features)
        b = LogisticProbe().fit(ds.features, ds.labels, 2).predict(ds.features)
        assert np.array_equal(a, b)

    def test_agreement_of_independent_noise_probes_is_a_coin_flip(self):
        """Two probes fit on unrelated noise agree on about half of 2000 points."""
        rng = np.random.default_rng(3)
        n_train, n_eval = 400, 2000
        labels = rng.integers(0, 2, size=n_train)
        probe_a = LogisticProbe().fit(rng.normal(size=(n_train, 6)), labels, 2)
        probe_b = LogisticProbe().fit(
            rng.normal(size=(n_train, 6)), rng.integers(0, 2, size=n_train), 2
        )
        agreement = probe_agreement(
            probe_a, probe_b, rng.normal(size=(n_eval, 6)), rng.normal(size=(n_eval, 6))
        )
        assert 0.45 <= agreement <= 0.55


def probe_features(rng, n: int, width: int) -> np.ndarray:
    """ReLU-like features with a quarter of the columns all zero, like dead units."""
    x = np.maximum(rng.normal(size=(n, width)), 0.0)
    x[:, rng.choice(width, size=width // 4, replace=False)] = 0.0
    return x


def lockstep_and_oracle(classes: int, count: int, n: int = 120, widths=(64, 8)):
    """Fit ``count`` probes, with widths cycling through ``widths``, in one
    lockstep and one by one."""
    rng = np.random.default_rng(classes)
    labels = rng.integers(0, classes, size=n)
    features = [probe_features(rng, n, widths[i % len(widths)]) for i in range(count)]
    probes = [LogisticProbe() for _ in features]
    _fit_lockstep(probes, features, labels, classes)
    return probes, [oracle_probe_fit(x, labels, classes) for x in features]


class TestLockstepProbes:
    # numpy sums a row of fewer than 8 entries in order, so the (P, C, n)
    # layout's class sums are the one-probe loop's bits
    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("classes", [2, 3, 4, 7])
    def test_bit_equal_to_one_probe_at_a_time(self, classes, count):
        probes, expected = lockstep_and_oracle(classes, count)
        for probe, (w, b) in zip(probes, expected):
            assert probe.weights.tobytes() + probe.bias.tobytes() == w.tobytes() + b.tobytes()

    def test_ten_classes_match_to_roundoff(self):
        # from 8 entries on, numpy sums a row pairwise, so the bits may move
        probes, expected = lockstep_and_oracle(10, 6)
        for probe, (w, b) in zip(probes, expected):
            assert_allclose(np.concatenate([probe.weights, probe.bias[None]]),
                            np.concatenate([w, b[None]]), rtol=1e-12, atol=0)

    def test_group_of_one_beside_a_group_of_three(self):
        # widths 8, 8, 64, 8: the 64-wide probe is a stack of its own
        probes, expected = lockstep_and_oracle(3, 4, widths=(8, 8, 64, 8))
        for probe, (w, b) in zip(probes, expected):
            assert probe.weights.tobytes() + probe.bias.tobytes() == w.tobytes() + b.tobytes()

    def test_probe_order_does_not_move_bits(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=90)
        features = [probe_features(rng, 90, width) for width in (8, 64, 8, 64, 16, 8)]
        fitted = []
        for order in ([0, 1, 2, 3, 4, 5], [5, 3, 0, 4, 2, 1]):
            probes = [LogisticProbe() for _ in order]
            _fit_lockstep(probes, [features[i] for i in order], labels, 3)
            by_feature = dict(zip(order, probes))
            fitted.append([by_feature[i].weights.tobytes() + by_feature[i].bias.tobytes()
                           for i in range(len(features))])
        assert fitted[0] == fitted[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_named_in_the_callers_order(self):
        # probe 2 shares the first group (width 8) with probe 0, so it comes
        # before probe 1 in the stack, but the error names probe 1
        rng = np.random.default_rng(0)
        features = [probe_features(rng, 40, width) for width in (8, 64, 8)]
        features[1][0, 0] = features[2][0, 0] = np.nan
        probes = [LogisticProbe() for _ in features]
        with pytest.raises(RuntimeError, match=r"^probe 1 diverged at iteration 0: [^\n]*$"):
            _fit_lockstep(probes, features, rng.integers(0, 2, size=40), 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_first_diverged_probe(self):
        rng = np.random.default_rng(0)
        features = [probe_features(rng, 40, 8) for _ in range(3)]
        features[1][0, 0] = features[2][0, 0] = np.nan
        probes = [LogisticProbe() for _ in features]
        with pytest.raises(RuntimeError, match=r"^probe 1 diverged at iteration 0: [^\n]*$"):
            _fit_lockstep(probes, features, rng.integers(0, 2, size=40), 2)


class TestConsistency:
    def test_identical_networks_agree_everywhere(self):
        train = gen_gaussian_mixture(n=120, classes=2, dim=3, separation=4.0, seed=0)
        evald = gen_gaussian_mixture(n=80, classes=2, dim=3, separation=4.0, seed=1)
        net = build_blocknet((1, 1), (6, 6), 3, 2, seed=5)
        for block in (1, 2, "output"):
            assert consistency_probe(net, net, train, evald, block) == 1.0

    def test_curve_covers_blocks_and_output(self):
        train = gen_gaussian_mixture(n=120, classes=2, dim=3, separation=4.0, seed=0)
        evald = gen_gaussian_mixture(n=80, classes=2, dim=3, separation=4.0, seed=1)
        for blocks in TAP_ORDER_BLOCKS:
            teacher, student = blocks_nets(blocks, 3, 2, widths=(8, 4))
            curve = consistency_curve(teacher, student, train, evald)
            assert list(curve) == student.tap_names()
            assert len(curve) == blocks + 1
            assert all(0.0 <= f <= 1.0 for f in curve.values())

    def test_curve_equals_per_block_probes_and_output(self):
        train = gen_gaussian_mixture(n=120, classes=3, dim=3, separation=3.0, seed=0)
        evald = gen_gaussian_mixture(n=81, classes=3, dim=3, separation=3.0, seed=1)
        teacher = build_blocknet((1, 1, 1), (16, 16, 16), 3, 3, seed=3)
        student = build_blocknet((1, 1, 1), (4, 4, 4), 3, 3, seed=0)
        curve = consistency_curve(teacher, student, train, evald)
        parts = [consistency_probe(teacher, student, train, evald, block)
                 for block in (1, 2, 3, "output")]
        assert curve == dict(zip(student.tap_names(), parts))
        assert list(curve) == student.tap_names()
        assert 0.0 < parts[-1] < 1.0  # untrained nets often agree on no output at all

    def test_curve_rejects_student_deeper_than_teacher(self):
        train = gen_gaussian_mixture(n=40, classes=2, dim=3, separation=4.0, seed=0)
        teacher = build_blocknet((1, 1), (4, 4), 3, 2, seed=0)
        student = build_blocknet((1, 1, 1), (4, 4, 4), 3, 2, seed=1)
        with pytest.raises(ValueError, match=r"^consistency_probe: block 3 out of range$"):
            consistency_curve(teacher, student, train, train)

    def test_block_out_of_range_rejected(self):
        train = gen_gaussian_mixture(n=40, classes=2, dim=3, separation=4.0, seed=0)
        net = build_blocknet((1,), (4,), 3, 2, seed=0)
        with pytest.raises(ValueError):
            consistency_probe(net, net, train, train, 2)


def identity_first_block_net(dim: int, seed: int = 0):
    """A net whose first tap reproduces nonnegative inputs exactly."""
    net = build_blocknet((1,), (dim,), dim, 2, seed=seed)
    w, b = net.blocks[0][0]
    w.data[:] = np.eye(dim)
    b.data[:] = 0.0
    return net


def orthogonal_cluster_data(n_per: int, dim: int):
    """Two classes supported on disjoint coordinate axes: zero cross-cosine."""
    from graphkd.datasets import Dataset

    rng = np.random.default_rng(7)
    a = np.zeros((n_per, dim))
    a[:, 0] = rng.uniform(0.5, 1.5, size=n_per)
    b = np.zeros((n_per, dim))
    b[:, 1] = rng.uniform(0.5, 1.5, size=n_per)
    features = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per, dtype=np.int64)
    return Dataset(
        features=features, labels=labels, num_classes=2, provenance="synthetic"
    )


class TestSpectralReport:
    # untrained random taps can have relu-dead rows -> isolated nodes; the
    # degenerate-Fiedler warning is expected and not under test here
    @pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
    def test_curve_shapes_and_nonnegativity(self):
        data = gen_gaussian_mixture(n=90, classes=3, dim=4, separation=5.0, seed=0)
        for blocks in TAP_ORDER_BLOCKS:
            teacher, a, b = blocks_nets(blocks, 4, 3)
            report = spectral_report(teacher, {"a": a, "b": b}, data, k=6)
            assert list(report) == ["a", "b"]
            for curves in report.values():
                assert list(curves) == ["label_indicator", "teacher_fiedler"]
                for curve in curves.values():
                    assert list(curve) == teacher.tap_names() == a.tap_names()
                    assert len(curve) == blocks + 1
                    assert all(v >= -1e-12 for v in curve.values())

    def test_intra_class_only_edges_zero_label_smoothness(self):
        """Orthogonal class clusters + identity tap: no cross-class edges, so
        the one-vs-rest indicator signal is constant on every component."""
        data = orthogonal_cluster_data(n_per=10, dim=4)
        net = identity_first_block_net(4)
        with pytest.warns(RuntimeWarning, match="disconnected"):
            report = spectral_report(teacher=net, students={"self": net}, data=data, k=3)
        label_curve = report["self"]["label_indicator"]
        assert list(label_curve) == net.tap_names()
        assert label_curve["block1"] == 0.0

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_rejected(self, n):
        data = gen_gaussian_mixture(n=30, classes=2, dim=3, separation=4.0, seed=0)
        data = replace(data, features=data.features[:n], labels=data.labels[:n])
        net = build_blocknet((1,), (4,), 3, 2, seed=0)
        message = f"^spectral_report: need at least 2 examples, got {n}$"
        with pytest.raises(ValueError, match=message):
            spectral_report(net, {"s": net}, data, k=1)

    def test_student_with_other_taps_rejected(self):
        data = gen_gaussian_mixture(n=30, classes=2, dim=3, separation=4.0, seed=0)
        teacher = build_blocknet((1, 1, 1), (8, 8, 8), 3, 2, seed=0)
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=1)
        message = (r"^teacher taps \['block1', 'block2', 'block3', 'output'\] and student "
                   r"taps \['block1', 'block2', 'output'\] differ$")
        with pytest.raises(ValueError, match=message):
            spectral_report(teacher, {"same": teacher, "other": student}, data, k=3)


class TestConcentrationReport:
    def test_gkd_and_rkdd_report_all_taps(self):
        config = make_config()
        from graphkd.harness import build_split

        split = build_split(config)
        for blocks in TAP_ORDER_BLOCKS:
            teacher, student = blocks_nets(blocks, 3, 2, widths=(8, 4))
            report = concentration_report(teacher, student, split.train, GraphParams(k=15),
                                          n_batches=3, batch_size=16, seed=0)
            assert list(report) == ["gkd", "rkdd"]
            for table in report.values():
                assert list(table) == student.tap_names()
                for value in table.values():
                    assert value is None or 0.0 < value <= 100.0

    def test_values_are_pinned(self):
        # the medians of one concentration_report call per loss, each drawing
        # and forwarding its own batches; one call for both must read the same
        from graphkd.harness import build_split

        teacher, student = blocks_nets(2, 3, 2, widths=(8, 4))
        report = concentration_report(teacher, student, build_split(make_config()).train,
                                      GraphParams(k=15), n_batches=3, batch_size=16, seed=0)
        assert report == {
            "gkd": {"block1": 68.75, "block2": 81.25, "output": 87.5},
            "rkdd": {"block1": 81.25, "block2": 81.25, "output": 75.0},
        }

    @pytest.mark.parametrize("n_batches, batch_size", [(0, 8), (-1, 8), (2, 1), (2, 0)])
    def test_empty_batches_rejected(self, n_batches, batch_size):
        net = build_blocknet((1,), (4,), 3, 2, seed=0)
        data = gen_gaussian_mixture(n=40, classes=2, dim=3, separation=4.0, seed=0)
        with pytest.raises(ValueError, match="^concentration_report: need n_batches"):
            concentration_report(net, net, data, GraphParams(k=1), n_batches=n_batches,
                                 batch_size=batch_size, seed=0)

    def test_student_with_other_taps_rejected(self):
        data = gen_gaussian_mixture(n=40, classes=2, dim=3, separation=4.0, seed=0)
        teacher = build_blocknet((1, 1, 1), (8, 8, 8), 3, 2, seed=0)
        student = build_blocknet((1, 1), (4, 4), 3, 2, seed=1)
        message = r"^teacher taps \[.*\] and student taps \[.*\] differ$"
        with pytest.raises(ValueError, match=message):
            concentration_report(teacher, student, data, GraphParams(k=7), n_batches=2,
                                 batch_size=8, seed=0)

    def test_batch_larger_than_dataset_rejected(self):
        net = build_blocknet((1,), (4,), 3, 2, seed=0)
        data = gen_gaussian_mixture(n=40, classes=2, dim=3, separation=4.0, seed=0)
        with pytest.raises(ValueError):
            concentration_report(net, net, data, GraphParams(k=63), n_batches=20,
                                 batch_size=64, seed=0)
