"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (pytest -s shows them) and enforces the
stated tolerance; the timed criteria also enforce their runtime budgets.
"""

import itertools
import json
import time

import numpy as np
from lovasz_abstain import (
    AbstainReport,
    Label,
    LinkConfig,
    TrainConfig,
    bep_ova_incompatibility,
    check_condition1,
    clip,
    counterexample_asymmetric,
    counterexample_symmetric,
    enumerate_reports,
    envelope,
    hinge_subgradient,
    lovasz_extension,
    make_jaccard,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    metrics,
    random_collection,
    random_polymatroid,
    synth_data,
    tau_sweep,
    train,
    uniform,
    verify_block_domination,
    verify_tightness,
)
from lovasz_abstain.bench import link_reports
from lovasz_abstain.links import envelope_members_gap, envelope_members_oracle
from lovasz_abstain.lovasz import hinge_rows
from lovasz_abstain.multiclass import (
    BlockCodec,
    ClassCosts,
    ClassLabel,
    MulticlassReport,
    encode_bep,
    lift_polymatroid,
    multiclass_target,
    trimmed_link,
)
from lovasz_abstain.oracle import argmin_ids, calibration_sweep, grid_distributions
from lovasz_abstain.targets import abstain_loss_table, report_index, target_abstain
from lovasz_abstain.oracle import surrogate_loss_table


def report(num, slug, ok):
    print(f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({slug}) failed"


def builtin_suite(k):
    return [
        make_zero_one(k),
        make_modular(np.linspace(0.5, 2.0, k)),
        make_sqrt_card(k),
        make_jaccard(k),
    ]


def test_01_embedding_identity():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for k in (1, 2, 3, 4):
        collections = builtin_suite(k)
        collections += [random_collection(k, rng, symmetric=(i % 2 == 0)) for i in range(25)]
        for fc in collections:
            gap = np.abs(surrogate_loss_table(fc) - abstain_loss_table(fc)).max()
            worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    report(1, "embedding-identity", worst <= 1e-12 and elapsed < 10.0)


def test_02_extension_correctness():
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    ok = True
    for k in (1, 2, 3, 4, 5):
        fns = [make_zero_one(k), make_sqrt_card(k), random_polymatroid(k, rng)]
        for f in fns:
            for s in range(1 << k):
                x = np.array([(s >> i) & 1 for i in range(k)], dtype=float)
                ok &= abs(lovasz_extension(f, x) - f.eval(s)) <= 1e-9
        # sorting form against the exhaustive max over orderings
        f = random_polymatroid(k, rng)
        perms = list(itertools.permutations(range(k)))
        points = [rng.uniform(0, 1.5, k) for _ in range(8)]
        points += [np.array([(s >> i) & 1 for i in range(k)], float) for s in range(1 << k)]
        for x in points:
            best = -np.inf
            for pi in perms:
                mask, prev, total = 0, 0.0, 0.0
                for i in pi:
                    mask |= 1 << i
                    total += x[i] * (f.values[mask] - prev)
                    prev = f.values[mask]
                best = max(best, total)
            ok &= abs(lovasz_extension(f, x) - best) <= 1e-9
    f = random_polymatroid(4, rng)
    for _ in range(10_000):
        x, xp = rng.uniform(0, 2, 4), rng.uniform(0, 2, 4)
        lam = rng.uniform()
        lhs = lovasz_extension(f, lam * x + (1 - lam) * xp)
        rhs = lam * lovasz_extension(f, x) + (1 - lam) * lovasz_extension(f, xp)
        ok &= lhs <= rhs + 1e-9
    elapsed = time.monotonic() - t0
    report(2, "extension-correctness", ok and elapsed < 30.0)


def test_03_clip_domination():
    rng = np.random.default_rng(3)
    ok = True
    checked = 0
    while checked < 10_000:
        k = int(rng.integers(1, 5))
        fc = random_collection(k, rng, symmetric=bool(rng.integers(0, 2)))
        us = rng.uniform(-3, 3, (250, k))
        y = int(rng.integers(0, 1 << k))
        raw = hinge_rows(fc, us, y)
        clipped = hinge_rows(fc, clip(us), y)
        ok &= bool(np.all(clipped <= raw + 1e-12))
        checked += len(us)
    report(3, "clip-domination", ok)


def test_04_envelope_oracle_equivalence():
    rng = np.random.default_rng(4)
    t0 = time.monotonic()
    ok = True
    for k in (1, 2, 3):
        corners = np.array(list(itertools.product([-1, 0, 1], repeat=k)), dtype=float)
        for eps in (1 / (2 * k), 1 / (4 * k)):
            us = np.vstack([rng.uniform(-1.5, 1.5, (10_000, k)), corners])
            gap_route = envelope_members_gap(us, eps)
            face_route = envelope_members_oracle(us, eps)
            ok &= bool((gap_route == face_route).all())
    elapsed = time.monotonic() - t0
    report(4, "envelope-oracle-equivalence", ok and elapsed < 60.0)


def test_05_nonemptiness_boundary():
    rng = np.random.default_rng(5)
    ok = True
    for k in (2, 3, 4):
        us = rng.uniform(-2, 2, (100_000, k))
        ok &= bool(envelope_members_gap(us, 1 / (2 * k)).any(axis=1).all())
        witness = (2 * np.arange(1, k + 1) - 1) / (2 * k)
        ok &= not envelope(witness, LinkConfig(epsilon=1 / (2 * k) + 0.01))
    report(5, "nonemptiness-boundary", ok)


def test_06_calibration_sweep():
    t0 = time.monotonic()
    ok = True
    plans = [
        (2, 8, [make_zero_one(2), make_sqrt_card(2), make_jaccard(2)]),
        (3, 4, [make_sqrt_card(3), make_jaccard(3)]),
    ]
    for k, m, collections in plans:
        for i, fc in enumerate(collections):
            rng = np.random.default_rng(600 + 10 * k + i)
            rep = calibration_sweep(fc, grid_m=m, taus=(0.0, 0.5, 1.0), n_perturb=20, rng=rng)
            ok &= rep.passed
    elapsed = time.monotonic() - t0
    report(6, "calibration-sweep", ok and elapsed < 300.0)


def test_07_symmetric_inconsistency():
    ok = True
    res = counterexample_symmetric(make_zero_one(3))
    ok &= not res.consistent_case
    ok &= abs(res.epsilon - 3 / 14) <= 1e-12
    ok &= res.v is not None and res.v.n_abstain() > 0
    res_sqrt = counterexample_symmetric(make_sqrt_card(3))
    ok &= not res_sqrt.consistent_case and res_sqrt.v.n_abstain() > 0
    ok &= counterexample_symmetric(make_modular([1.0, 2.0, 0.5])).consistent_case
    report(7, "symmetric-inconsistency", ok)


def test_08_asymmetric_inconsistency():
    jac = make_jaccard(3)
    ok = check_condition1(jac).passed
    table = abstain_loss_table(jac)
    ridx = report_index(3)
    ids = argmin_ids(table @ uniform(3))
    ok &= ids <= {ridx[(0, 0b111)], ridx[(0b111, 0)]}
    res = counterexample_asymmetric(jac)
    ok &= res.mode in ("direct", "flipped", "sequence")
    ok &= str(res.v_opt) == "000"
    if res.mode == "sequence":
        ok &= res.details["ray_gaps"][-1] < 1e-2 and res.bad_sign_bits is not None
    report(8, "asymmetric-inconsistency", ok)


def test_09_tightness():
    ok = True
    for k in (2, 3):
        rep = verify_tightness(make_sqrt_card(k), grid_m=8)
        ok &= rep.passed
    report(9, "tightness", ok)


def test_10_multiclass():
    ok = True
    cases = [
        (ClassCosts.from_setfn(make_sqrt_card(2)), BlockCodec(2), 2),
        (ClassCosts.from_setfn(make_sqrt_card(1)), BlockCodec(4), 1),
        (ClassCosts.from_setfn(make_sqrt_card(2)), BlockCodec(4), 2),
    ]
    for g, codec, k in cases:
        ok &= verify_block_domination(g, codec, k).passed

    # end-to-end trimmed-link calibration at C=4, k=1
    rng = np.random.default_rng(10)
    C, k = 4, 1
    codec = BlockCodec(C)
    g = ClassCosts.from_setfn(make_sqrt_card(k))
    lifted = lift_polymatroid(g, codec, k)
    n = codec.d * k
    eps = 1 / (2 * n)
    reports = enumerate_reports(n, "V")
    labels = [ClassLabel(C, (c,)) for c in range(1, C + 1)]
    mc_reports = [MulticlassReport(C, (c,)) for c in range(0, C + 1)]
    violations = 0
    for p4 in grid_distributions(2, 8):
        bit_vals = np.array(
            [sum(p4[c] * target_abstain(lifted, v, encode_bep(y, codec))
                 for c, y in enumerate(labels)) for v in reports]
        )
        mc_vals = np.array(
            [sum(p4[c] * multiclass_target(g, v, y) for c, y in enumerate(labels))
             for v in mc_reports]
        )
        mc_opt = argmin_ids(mc_vals)
        for vid in argmin_ids(bit_vals):
            vec = reports[vid].vector()
            for _ in range(20):
                u = vec + rng.uniform(-0.99 * eps, 0.99 * eps, n)
                for tau in (0.0, 0.5, 1.0):
                    out = trimmed_link(u, LinkConfig(epsilon=eps, tau=tau), codec)
                    oid = next(i for i, m in enumerate(mc_reports) if m.entries == out.entries)
                    if oid not in mc_opt:
                        violations += 1
    ok &= violations == 0

    inc = bep_ova_incompatibility(make_zero_one(1))
    ok &= inc.incompatible and "no submodular f exists" in inc.message
    report(10, "multiclass", ok)


def test_11_metrics():
    rec = metrics([(AbstainReport.from_string("+-0"), Label.from_string("+++"))])
    ok = (
        rec.accuracy == 0.5
        and rec.recall == 0.5
        and rec.precision == 1.0
        and rec.iou == 0.5
        and abs(rec.rejection_rate - 1 / 3) <= 1e-15
    )
    rng = np.random.default_rng(11)
    sets_checked = 0
    while sets_checked < 1000:
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 8))
        pairs = []
        has_abstain = False
        for _ in range(n):
            v = rng.integers(-1, 2, k)
            y = rng.choice([-1, 1], k)
            has_abstain |= bool(np.any(v == 0))
            pairs.append((AbstainReport.from_vector(v), Label.from_signs(y)))
        if not has_abstain:
            continue
        rec = metrics(pairs)
        ok &= abs(rec.rejection_rate_pos + rec.rejection_rate_neg - 1.0) <= 1e-12
        sets_checked += 1
    report(11, "metrics", ok)


def test_12_trainer():
    cfg = TrainConfig(k=4, feature_dim=8, n_samples=500, epochs=200, seed=0, noise=0.0)
    fc = make_modular(np.ones(4))
    data = synth_data(cfg)
    res = train(cfg, fc, data)
    ok = res.train_trace[-1] < 1e-2

    # link-level rejection monotonicity over the test split, all tau pairs
    taus = [0.0, 0.25, 0.5, 0.75, 1.0]
    from lovasz_abstain.bench import split_indices

    _, _, te = split_indices(cfg.n_samples, cfg.seed)
    prev = None
    for tau in taus:
        reports = link_reports(res.best_weights, data.X[te], tau, cfg.epsilon)
        n_abs = np.array([v.n_abstain() for v in reports])
        if prev is not None:
            ok &= bool(np.all(n_abs >= prev))
        prev = n_abs
    rows = tau_sweep(res, data, taus)
    ok &= len(rows) == len(taus)

    res2 = train(cfg, fc, synth_data(cfg))
    rows2 = tau_sweep(res2, synth_data(cfg), taus)
    ok &= json.dumps(res.to_dict()) == json.dumps(res2.to_dict())
    ok &= json.dumps(rows) == json.dumps(rows2)
    report(12, "trainer", ok)


def test_13_subgradients():
    rng = np.random.default_rng(13)
    ok = True
    h, tol = 1e-6, 1e-4
    for make in (make_zero_one, lambda k: make_modular(np.linspace(0.5, 2, k)),
                 make_sqrt_card, make_jaccard):
        checked = 0
        while checked < 1000:
            k = int(rng.integers(1, 5))
            fc = make(k)
            u = rng.uniform(-1.5, 1.5, k)
            y = int(rng.integers(0, 1 << k))
            margins = np.abs(1.0 - u * Label(k, y).signs())
            if np.min(margins) < 1e-3:
                continue
            if k > 1 and np.min(np.diff(np.sort(margins))) < 1e-3:
                continue
            g = hinge_subgradient(fc, u, y)
            from lovasz_abstain import hinge

            fd = np.zeros(k)
            for i in range(k):
                up, um = u.copy(), u.copy()
                up[i] += h
                um[i] -= h
                fd[i] = (hinge(fc, up, y) - hinge(fc, um, y)) / (2 * h)
            ok &= bool(np.allclose(g, fd, atol=tol))
            checked += 1
    report(13, "subgradients", ok)
