"""End-to-end acceptance gate.

Each test here checks one shipped guarantee at its stated tolerance and
prints a single PASS/FAIL line so the whole gate can be read at a glance:

1. directional distillation benchmark (two_arcs, teacher/vanilla/gkd)
2. graph pipeline equals a brute-force oracle
3. finite-difference gradient suite for all four losses
4. invariance suite (rescaling, permutation, lambda=0 bit-identity)
5. spectral toolkit (path-graph eigenpairs, smoothness forms)
6. analysis protocol (concentration, probe self/noise consistency)
7. variant sweep plumbing (k, p, mask) and base-variant equality
8. rerun determinism (bit-identical metrics and checkpoints)
"""

from __future__ import annotations

import sys
import time

import numpy as np
from numpy.testing import assert_allclose

from _oracles import (
    fd_gradient,
    oracle_normalized_distances,
    oracle_pipeline,
    separated_reps,
)
from graphkd.analysis import (
    LogisticProbe,
    consistency_curve,
    loss_concentration,
    probe_agreement,
)
from graphkd.autodiff import Tensor, backward
from graphkd.config import parse_config
from graphkd.datasets import gen_gaussian_mixture
from graphkd.graphs import (
    build_similarity_graph,
    fiedler_vector,
    laplacian,
    smoothness,
    symmetric_eig,
)
from graphkd.harness import (
    build_net,
    build_split,
    run_distill,
    run_sweep,
    run_train_teacher,
)
from graphkd.losses import gkd_loss, ikd_loss, rkdd_loss, task_loss
from graphkd.models import build_blocknet, load_checkpoint
from graphkd.training import evaluate_error, train


def _report(num: int, ok: bool, detail: str) -> None:
    # write past pytest's capture so the gate summary is always visible
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}", file=sys.__stdout__)
    sys.__stdout__.flush()


# ---------------------------------------------------------------------------
# 1. Directional benchmark: a small student distilled on latent graphs should
#    match or beat the same student trained alone, with the teacher ahead of
#    both.  Full-scale error rates are out of reach on a desktop core, so the
#    check is directional on a 2-D toy with the shipped desk schedule.
# ---------------------------------------------------------------------------


def test_criterion_1_directional_distillation(tmp_path):
    t0 = time.monotonic()
    gkd_dict = {
        "version": 1,
        # 2000 points, sigma 0.15; the 500/1500 train/test split keeps the
        # student in a limited-data regime where guidance has headroom.
        "dataset": {
            "name": "two_arcs",
            "n": 2000,
            "noise": 0.15,
            "seed": 0,
            "test_fraction": 0.75,
        },
        "teacher": {"depths": [1, 1, 1], "widths": [64, 64, 64]},
        "student": {"depths": [1, 1, 1], "widths": [8, 8, 8]},
        "loss": "gkd",
        # benchmark calibration: width-8 blocks have no normalization layers,
        # so the raw graph-mismatch gradient needs a gentler weight than the
        # batch-norm networks the default of 25 was tuned for.  0.5 is the
        # largest tested value that trains stably on every seed here.
        "lambda_kd": 0.5,
        "batch_size": 128,
        "seeds": [1, 2, 3, 4, 5],
        # schedule omitted: the default desk schedule (60 epochs, decay 0.2
        # at {20, 40, 50}, base lr 0.1) applies; graph params omitted: the
        # dense default k = batch-1 = 127, p = 1, mask "all" apply.
    }
    van_dict = {k: v for k, v in gkd_dict.items() if k != "lambda_kd"}
    van_dict["loss"] = "vanilla"
    gkd_cfg = parse_config(gkd_dict)
    van_cfg = parse_config(van_dict)

    ckpt = run_train_teacher(gkd_cfg, tmp_path / "teacher")
    teacher_err = evaluate_error(load_checkpoint(ckpt), build_split(gkd_cfg).test)
    vanilla = run_distill(van_cfg, tmp_path / "vanilla")
    gkd = run_distill(gkd_cfg, tmp_path / "gkd", teacher_path=ckpt)

    med_v = vanilla.median["test_error"]
    med_g = gkd.median["test_error"]
    elapsed = time.monotonic() - t0

    ok = med_g <= med_v and teacher_err < med_g and teacher_err < med_v and elapsed < 600
    _report(
        1,
        ok,
        f"gkd median {med_g:.6f} <= vanilla median {med_v:.6f}; "
        f"teacher {teacher_err:.6f} < both; {elapsed:.1f}s of 600s budget",
    )
    assert med_g <= med_v, f"gkd median {med_g} exceeds vanilla median {med_v}"
    assert teacher_err < med_g, f"teacher {teacher_err} not under gkd median {med_g}"
    assert teacher_err < med_v, f"teacher {teacher_err} not under vanilla median {med_v}"
    assert elapsed < 600, f"benchmark took {elapsed:.0f}s, over the 10-minute budget"


# ---------------------------------------------------------------------------
# 2. The shipped graph pipeline must equal an independently coded brute-force
#    pipeline (cosine, mask, top-k union, normalization, power) entrywise.
# ---------------------------------------------------------------------------


def _tie_free_reps(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random reps whose pairwise cosines are distinct and clearly signed.

    The pipeline and the oracle compute cosines in different orders, so a
    pair of weights closer than float noise could be ranked differently by
    the two top-k passes.  Rejecting near-ties (and near-zero similarities,
    where the clamp could flip) keeps the comparison exact.
    """
    while True:
        reps = rng.uniform(-2.0, 2.0, size=(n, d))
        norms = np.linalg.norm(reps, axis=1)
        if norms.min() < 1e-3:
            continue
        unit = reps / norms[:, None]
        sim = unit @ unit.T
        upper = sim[np.triu_indices(n, k=1)]
        if upper.size and np.abs(upper).min() < 1e-6:
            continue
        positive = np.sort(upper[upper > 0.0])
        if positive.size > 1 and np.diff(positive).min() < 1e-9:
            continue
        return reps


def test_criterion_2_graph_pipeline_matches_oracle():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        p = int(rng.integers(1, 4))
        mask = rng.choice(["all", "inter_class", "intra_class"])
        labels = np.asarray(rng.integers(0, 3, size=n)) if mask != "all" else None
        reps = _tie_free_reps(rng, n, d)

        got = build_similarity_graph(reps, k=k, p=p, mask_mode=mask, labels=labels)
        want_w, want_a = oracle_pipeline(reps, k, p, mask, labels)
        worst = max(
            worst,
            float(np.abs(got.weights - want_w).max()),
            float(np.abs(got.adjacency - want_a).max()),
        )
        assert_allclose(got.weights, want_w, atol=1e-12, rtol=0)
        assert_allclose(got.adjacency, want_a, atol=1e-12, rtol=0)
    _report(2, True, f"100 random pipelines match the brute-force oracle; worst |delta| {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 3. Analytic gradients of every loss match central finite differences
#    (step 1e-6) within relative tolerance 1e-4 on 50 instances per loss.
# ---------------------------------------------------------------------------


def _fd_check(value_fn, grad_fn, x0) -> float:
    """Check gradients and return the largest fraction of the bound used."""
    analytic = grad_fn(x0)
    numeric = fd_gradient(value_fn, x0)
    assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
    bound = 1e-7 + 1e-4 * np.abs(numeric)
    return float(np.max(np.abs(analytic - numeric) / bound))


def test_criterion_3_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    worst = {"task": 0.0, "ikd": 0.0, "rkdd": 0.0, "gkd": 0.0}

    for _ in range(50):
        n, c = int(rng.integers(2, 11)), int(rng.integers(2, 6))
        logits0 = rng.normal(size=(n, c))
        labels = np.asarray(rng.integers(0, c, size=n))

        def task_value(arr, labels=labels):
            return task_loss(Tensor(arr), labels).data.item()

        def task_grad(arr, labels=labels):
            x = Tensor(arr, requires_grad=True)
            backward(task_loss(x, labels))
            return x.grad

        worst["task"] = max(worst["task"], _fd_check(task_value, task_grad, logits0))

    for _ in range(50):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        s0 = rng.normal(size=(n, d))
        t_tap = [Tensor(rng.normal(size=(n, d)))]

        def ikd_value(arr, t=t_tap):
            return ikd_loss([Tensor(arr)], t).data.item()

        def ikd_grad(arr, t=t_tap):
            x = Tensor(arr, requires_grad=True)
            backward(ikd_loss([x], t))
            return x.grad

        worst["ikd"] = max(worst["ikd"], _fd_check(ikd_value, ikd_grad, s0))

    done = 0
    while done < 50:
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        s0 = rng.normal(size=(n, d))
        t0 = rng.normal(size=(n, d))
        # keep every normalized-distance pair away from the Huber kink so the
        # probe step cannot cross it
        delta = np.abs(
            np.abs(oracle_normalized_distances(s0) - oracle_normalized_distances(t0)) - 1.0
        )
        off = ~np.eye(n, dtype=bool)
        if delta[off].min() < 1e-3:
            continue
        t_tap = [Tensor(t0)]

        def rkdd_value(arr, t=t_tap):
            return rkdd_loss([Tensor(arr)], t).data.item()

        def rkdd_grad(arr, t=t_tap):
            x = Tensor(arr, requires_grad=True)
            backward(rkdd_loss([x], t))
            return x.grad

        worst["rkdd"] = max(worst["rkdd"], _fd_check(rkdd_value, rkdd_grad, s0))
        done += 1

    for trial in range(50):
        n = int(rng.integers(5, 11))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, n - 1))
        p = int(rng.integers(1, 3))
        s0 = separated_reps(rng, n, d, k)
        g_t = build_similarity_graph(rng.normal(size=(n, d)), k=k, p=p)

        def gkd_value(arr, k=k, p=p, g_t=g_t):
            return gkd_loss([build_similarity_graph(arr, k=k, p=p)], [g_t]).data.item()

        def gkd_grad(arr, k=k, p=p, g_t=g_t):
            x = Tensor(arr, requires_grad=True)
            backward(gkd_loss([build_similarity_graph(x, k=k, p=p)], [g_t]))
            return x.grad

        worst["gkd"] = max(worst["gkd"], _fd_check(gkd_value, gkd_grad, s0))

    detail = ", ".join(f"{name} {err:.3f}" for name, err in worst.items())
    _report(
        3,
        True,
        f"50 instances per loss at rtol 1e-4 (step 1e-6); "
        f"largest fraction of tolerance used: {detail}",
    )


# ---------------------------------------------------------------------------
# 4. Invariances: cosine graphs ignore per-row scale, rkdd ignores per-tap
#    scale, everything respects node permutation, and lambda 0 is vanilla.
# ---------------------------------------------------------------------------


def test_criterion_4_invariance_suite():
    rng = np.random.default_rng(40)

    worst_a = 0.0
    for _ in range(20):
        n, d, k = 8, 4, 3
        reps = [rng.normal(size=(n, d)) for _ in range(2)]
        teacher = [build_similarity_graph(rng.normal(size=(n, d)), k=k) for _ in range(2)]
        base = gkd_loss([build_similarity_graph(r, k=k) for r in reps], teacher).data.item()
        scaled = gkd_loss(
            [build_similarity_graph(r * rng.uniform(0.1, 3.0, size=(n, 1)), k=k) for r in reps],
            teacher,
        ).data.item()
        worst_a = max(worst_a, abs(base - scaled))
        assert worst_a < 1e-9

    worst_b = 0.0
    for _ in range(20):
        n, d = 6, 3
        s = [rng.normal(size=(n, d)) for _ in range(2)]
        t = [Tensor(rng.normal(size=(n, d))) for _ in range(2)]
        base = rkdd_loss([Tensor(x) for x in s], t).data.item()
        scaled = rkdd_loss(
            [Tensor(x * rng.uniform(0.2, 4.0)) for x in s], t
        ).data.item()
        worst_b = max(worst_b, abs(base - scaled))
        assert worst_b < 1e-9

    worst_c = 0.0
    for _ in range(20):
        n, d, k = 7, 3, 2
        s = rng.normal(size=(n, d))
        t = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        g = build_similarity_graph(s, k=k)
        g_perm = build_similarity_graph(s[perm], k=k)
        worst_c = max(
            worst_c,
            float(np.abs(g_perm.weights - g.weights[np.ix_(perm, perm)]).max()),
            float(np.abs(g_perm.adjacency - g.adjacency[np.ix_(perm, perm)]).max()),
        )
        g_t = build_similarity_graph(t, k=k)
        g_t_perm = build_similarity_graph(t[perm], k=k)
        worst_c = max(
            worst_c,
            abs(gkd_loss([g], [g_t]).data.item() - gkd_loss([g_perm], [g_t_perm]).data.item()),
            abs(
                rkdd_loss([Tensor(s)], [Tensor(t)]).data.item()
                - rkdd_loss([Tensor(s[perm])], [Tensor(t[perm])]).data.item()
            ),
        )
        assert worst_c < 1e-12

    # lambda 0 with a teacher attached must replay the vanilla trajectory bit
    # for bit: same metrics, same final weights.
    base_dict = {
        "version": 1,
        "dataset": {
            "name": "gaussian_mixture",
            "n": 240,
            "classes": 2,
            "dim": 3,
            "separation": 5.0,
            "seed": 0,
            "test_fraction": 0.25,
        },
        "teacher": {"depths": [1, 1], "widths": [16, 16]},
        "student": {"depths": [1, 1], "widths": [6, 6]},
        "loss": "vanilla",
        "schedule": {
            "base_lr": 0.1,
            "decay_factor": 0.2,
            "milestones": [2],
            "total_epochs": 3,
        },
        "batch_size": 32,
        "seeds": [1],
    }
    van_cfg = parse_config(base_dict)
    gkd_dict = dict(base_dict, loss="gkd", lambda_kd=0.0)
    gkd_cfg = parse_config(gkd_dict)
    split = build_split(van_cfg)
    teacher = train(build_net(van_cfg, "teacher", split, seed=1), split, van_cfg, seed=1).net

    res_v = train(build_net(van_cfg, "student", split, seed=1), split, van_cfg, seed=1)
    res_g = train(
        build_net(gkd_cfg, "student", split, seed=1), split, gkd_cfg, seed=1, teacher=teacher
    )
    identical = all(
        mv.lr == mg.lr
        and mv.train_error == mg.train_error
        and mv.test_error == mg.test_error
        and mv.task_loss == mg.task_loss
        and mv.total_loss == mg.total_loss
        for mv, mg in zip(res_v.metrics, res_g.metrics)
    ) and all(
        pv.data.tobytes() == pg.data.tobytes()
        for pv, pg in zip(res_v.net.parameters(), res_g.net.parameters())
    )
    assert identical, "lambda 0 run diverged from the vanilla trajectory"

    _report(
        4,
        True,
        f"row-rescale |d|max {worst_a:.2e} < 1e-9; tap-rescale {worst_b:.2e} < 1e-9; "
        f"permutation {worst_c:.2e} < 1e-12; lambda-0 trajectory bit-identical",
    )


# ---------------------------------------------------------------------------
# 5. Spectral toolkit: hand-solved path graph plus agreement of the two
#    smoothness formulations on random graphs.
# ---------------------------------------------------------------------------


def test_criterion_5_spectral_suite():
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    lap = laplacian(w)
    eigvals, _ = symmetric_eig(lap)
    assert_allclose(eigvals, [0.0, 1.0, 3.0], atol=1e-8, rtol=0)

    v = fiedler_vector(lap)
    lam2 = eigvals[1]
    residual = float(np.linalg.norm(lap @ v - lam2 * v))
    assert residual < 1e-8

    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        dense = rng.uniform(0.0, 1.0, size=(n, n))
        keep = rng.uniform(size=(n, n)) < 0.6
        wmat = np.triu(dense * keep, k=1)
        wmat = wmat + wmat.T
        s = rng.normal(size=n)
        lmat = laplacian(wmat)
        quad = smoothness(lmat, s)
        edge_sum = sum(
            wmat[i, j] * (s[i] - s[j]) ** 2 for i in range(n) for j in range(i + 1, n)
        )
        worst = max(worst, abs(quad - edge_sum))
        assert abs(quad - edge_sum) < 1e-9

    const = smoothness(laplacian(w), np.ones(3))
    assert const == 0.0

    _report(
        5,
        True,
        f"path eigenvalues within 1e-8; fiedler residual {residual:.2e} < 1e-8; "
        f"smoothness forms agree, worst |delta| {worst:.2e} < 1e-9; constant signal exactly 0",
    )


# ---------------------------------------------------------------------------
# 6. Analysis protocol: concentration hand examples, probe self-consistency,
#    and the coin-flip band for probes fit on pure noise.
# ---------------------------------------------------------------------------


def test_criterion_6_analysis_protocol():
    uniform = loss_concentration(np.ones(10))
    point = loss_concentration(np.array([5.0] + [0.0] * 9))
    four = loss_concentration(np.array([4.0, 3.0, 2.0, 1.0]))
    assert uniform == 90.0
    assert point == 10.0
    assert four == 75.0

    train_ds = gen_gaussian_mixture(n=120, classes=2, dim=3, separation=4.0, seed=0)
    eval_ds = gen_gaussian_mixture(n=80, classes=2, dim=3, separation=4.0, seed=1)
    net = build_blocknet((1, 1), (6, 6), 3, 2, seed=5)
    self_consistency = list(consistency_curve(net, net, train_ds, eval_ds).values())
    assert all(value == 1.0 for value in self_consistency)

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

    _report(
        6,
        True,
        f"concentration 90.0/10.0/75.0 exact; self-consistency 1.0 on all blocks; "
        f"noise-probe agreement {agreement:.4f} in [0.45, 0.55]",
    )


# ---------------------------------------------------------------------------
# 7. Variant plumbing: one sweep row per value for k, p, and mask, and the
#    dense p=1/mask=all variant reproduces the base loss bit for bit.
# ---------------------------------------------------------------------------


def _sweep_rows(csv_path) -> list[str]:
    lines = csv_path.read_text().strip().splitlines()
    return lines[1:]


def test_criterion_7_variant_sweeps(tmp_path):
    cfg = parse_config(
        {
            "version": 1,
            "dataset": {
                "name": "two_arcs",
                "n": 2000,
                "noise": 0.15,
                "seed": 0,
                "test_fraction": 0.75,
            },
            "teacher": {"depths": [1, 1, 1], "widths": [16, 16, 16]},
            "student": {"depths": [1, 1, 1], "widths": [8, 8, 8]},
            "loss": "gkd",
            "lambda_kd": 0.5,
            "batch_size": 128,
            "seeds": [1],
        }
    )
    ckpt = run_train_teacher(cfg, tmp_path / "teacher")

    k_csv = run_sweep(cfg, tmp_path / "k", "k", ["127", "64", "5"], teacher_path=ckpt)
    p_csv = run_sweep(cfg, tmp_path / "p", "p", ["1", "2", "3"], teacher_path=ckpt)
    m_csv = run_sweep(
        cfg,
        tmp_path / "mask",
        "mask_mode",
        ["all", "inter_class", "intra_class"],
        teacher_path=ckpt,
    )
    rows_k, rows_p, rows_m = _sweep_rows(k_csv), _sweep_rows(p_csv), _sweep_rows(m_csv)
    assert len(rows_k) == 3 and len(rows_p) == 3 and len(rows_m) == 3
    for rows, expected in (
        (rows_k, ["127", "64", "5"]),
        (rows_p, ["1", "2", "3"]),
        (rows_m, ["all", "inter_class", "intra_class"]),
    ):
        assert [r.split(",")[1] for r in rows] == expected

    rng = np.random.default_rng(70)
    n, d, k = 10, 4, 4
    labels = np.asarray(rng.integers(0, 2, size=n))
    s_reps = [rng.normal(size=(n, d)) for _ in range(2)]
    t_reps = [rng.normal(size=(n, d)) for _ in range(2)]
    base = gkd_loss(
        [build_similarity_graph(r, k=k) for r in s_reps],
        [build_similarity_graph(r, k=k) for r in t_reps],
    ).data.item()
    variant = gkd_loss(
        [build_similarity_graph(r, k=k, p=1, mask_mode="all", labels=labels) for r in s_reps],
        [build_similarity_graph(r, k=k, p=1, mask_mode="all", labels=labels) for r in t_reps],
    ).data.item()
    assert variant == base

    _report(
        7,
        True,
        "k/p/mask sweeps emit one row per value; p=1 + mask=all loss equals the base bit-exactly",
    )


# ---------------------------------------------------------------------------
# 8. Determinism: the same config and seed reproduce every output byte.
# ---------------------------------------------------------------------------


def test_criterion_8_rerun_determinism(tmp_path):
    cfg = parse_config(
        {
            "version": 1,
            "dataset": {
                "name": "gaussian_mixture",
                "n": 240,
                "classes": 2,
                "dim": 3,
                "separation": 5.0,
                "seed": 4,
                "test_fraction": 0.25,
            },
            "teacher": {"depths": [1, 1], "widths": [16, 16]},
            "student": {"depths": [1, 1], "widths": [6, 6]},
            "loss": "gkd",
            "lambda_kd": 0.5,
            "schedule": {
                "base_lr": 0.1,
                "decay_factor": 0.2,
                "milestones": [2],
                "total_epochs": 3,
            },
            "batch_size": 32,
            "seeds": [1],
        }
    )
    ckpt_a = run_train_teacher(cfg, tmp_path / "teacher_a")
    ckpt_b = run_train_teacher(cfg, tmp_path / "teacher_b")
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

    run_distill(cfg, tmp_path / "run_a", teacher_path=ckpt_a)
    run_distill(cfg, tmp_path / "run_b", teacher_path=ckpt_a)

    pairs = [
        ("seed1/metrics.csv", "metrics"),
        ("seed1/student.ckpt", "checkpoint"),
    ]
    for rel, _label in pairs:
        bytes_a = (tmp_path / "run_a" / rel).read_bytes()
        bytes_b = (tmp_path / "run_b" / rel).read_bytes()
        assert bytes_a == bytes_b, f"{rel} differs across identical reruns"

    _report(
        8,
        True,
        "teacher checkpoint, metrics.csv, and student checkpoint bytes identical across reruns",
    )
