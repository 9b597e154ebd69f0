import numpy as np
import pytest

from lovasz_abstain import (
    AbstainReport,
    Label,
    PolymatroidCollection,
    check_condition1,
    counterexample_asymmetric,
    counterexample_symmetric,
    enumerate_reports,
    flip,
    grid_distributions,
    make_jaccard,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    mean_value,
    mix,
    point_mass,
    uniform,
    validate_polymatroid,
    verify_embedding,
    verify_representative,
    verify_tightness,
)
from lovasz_abstain import _tol, oracle
from lovasz_abstain.oracle import argmin_ids, calibration_sweep, surrogate_loss_table
from lovasz_abstain.setfn import SetFunction
from lovasz_abstain.targets import _report_masks, abstain_loss_table, plain_loss_table, report_index

from conftest import symmetric_builtins


def label_mult_bits(a: int, b: int, k: int) -> int:
    """Bitmask of the coordinatewise product of two +-1 labels: an
    independent route for checking the distribution flip."""
    sa = Label(k, a).signs()
    sb = Label(k, b).signs()
    return Label.from_signs(sa * sb).bits


def test_distribution_constructors():
    assert uniform(2).tolist() == [0.25] * 4
    assert point_mass(0b10, 2).tolist() == [0, 0, 1, 0]
    p = uniform(2)
    d = point_mass(0b01, 2)
    assert np.allclose(mix(d, d, 0.3), d)
    assert np.allclose(mix(p, d, 0.0), p)
    with pytest.raises(ValueError):
        mix(p, d, 1.5)


@pytest.mark.parametrize("call, message", [
    (lambda: point_mass(-1, 2), "y_bits has a bitmask -1 outside [0, 4) for k=2"),
    (lambda: point_mass(4, 2), "y_bits has a bitmask 4 outside [0, 4) for k=2"),
    (lambda: point_mass(9, 2), "y_bits has a bitmask 9 outside [0, 4) for k=2"),
    (lambda: point_mass(True, 2), "y_bits must be integer bitmasks, got dtype bool"),
    (lambda: flip(uniform(2), 9, 2), "r_bits has a bitmask 9 outside [0, 4) for k=2"),
    (lambda: flip(uniform(2), -1, 2), "r_bits has a bitmask -1 outside [0, 4) for k=2"),
    (lambda: flip(uniform(3), 1, 2), "p has shape (8,), expected (4,)"),
    (lambda: flip(uniform(2)[None], 1, 2), "p has shape (1, 4), expected (4,)"),
    (lambda: uniform(0), "k must be an integer in [1, 62], got k=0"),
], ids=["negative-label", "label-2^k", "label-9", "bool-label", "flip-9", "flip-negative", "long-p", "2d-p",
        "uniform-k0"])
def test_distribution_bitmasks_are_checked(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_flip(rng):
    k = 3
    p = rng.dirichlet(np.ones(1 << k))
    for r in range(1 << k):
        assert np.allclose(flip(uniform(k), r, k), uniform(k))
        assert np.allclose(flip(flip(p, r, k), r, k), p)
        for y in range(1 << k):
            q = flip(point_mass(y, k), r, k)
            assert q[label_mult_bits(y, r, k)] == 1.0


def test_grid_distributions():
    g1 = list(grid_distributions(1, 2))
    assert [p.tolist() for p in g1] == [[0, 1], [0.5, 0.5], [1, 0]] or len(g1) == 3
    assert len(list(grid_distributions(1, 4))) == 5
    assert len(list(grid_distributions(2, 2))) == 10
    for p in grid_distributions(2, 4):
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)
    a = [p.tolist() for p in grid_distributions(2, 3)]
    assert a == [p.tolist() for p in grid_distributions(2, 3)]


def test_verify_embedding_builtins():
    assert verify_embedding(make_zero_one(2)).passed
    assert verify_embedding(make_jaccard(2)).passed
    assert verify_embedding(make_modular([1.0, 2.0])).passed


def test_modular_labels_alone_representative():
    """For a modular table, some +-1 report is always optimal."""
    fc = make_modular([1.0, 0.5])
    label_reports = enumerate_reports(2, "Y")
    assert verify_representative(fc, label_reports, grid_m=8).passed


def test_verify_representative():
    zo = make_zero_one(2)
    assert verify_representative(zo, enumerate_reports(2, "V"), grid_m=8).passed
    assert verify_representative(zo, enumerate_reports(2, "V0"), grid_m=8).passed
    rep = verify_representative(zo, enumerate_reports(2, "Y"), grid_m=8)
    assert not rep.passed
    # the witness is a distribution where only abstaining is optimal
    p = np.array(rep.witness["p"])
    table = abstain_loss_table(zo)
    ids = argmin_ids(table @ p)
    label_ids = {report_index(2)[(v.pos, v.zeros)] for v in enumerate_reports(2, "Y")}
    assert not (ids & label_ids)


def test_verify_representative_rejects_reports_of_another_k():
    """Candidates of another k used to be read as other reports (or to index out of range)."""
    with pytest.raises(ValueError, match=r"^reports\[0\] has k=2, but fc has k=3$"):
        verify_representative(make_sqrt_card(3), enumerate_reports(2, "V0"))
    with pytest.raises(ValueError, match=r"^reports\[0\] has k=3, but fc has k=2$"):
        verify_representative(make_sqrt_card(2), enumerate_reports(3, "V0"))


@pytest.mark.parametrize("k", [3, 4])
def test_verify_embedding_rejects_a_non_finite_table(k):
    """A NaN cell makes every comparison False, so it has to be refused up
    front: SetFunction refuses the table before verify_embedding can read it."""
    values = make_zero_one(k).values.copy()
    values[0b011] = np.nan
    with pytest.raises(ValueError, match=r"^non-finite value nan at S=0x3$"):
        SetFunction.from_values(k, values)


def test_verify_embedding_reports_a_pointwise_mismatch(monkeypatch):
    """One target cell moved by 0.5 fails the pointwise phase, which counts
    every (report, label) cell and names the cell as its witness."""
    sqrt3 = make_sqrt_card(3)
    table = abstain_loss_table(sqrt3).copy()
    i, y = report_index(3)[(0b001, 0b010)], 0b101
    table[i, y] += 0.5
    monkeypatch.setattr(oracle, "abstain_loss_table", lambda fc: table)
    rep = verify_embedding(sqrt3)
    assert (rep.passed, rep.cases) == (False, 27 * 8)
    assert rep.witness == {"v": "+0-", "y": 5, "hinge": surrogate_loss_table(sqrt3)[i, y], "target": table[i, y]}
    assert rep.witness["target"] - rep.witness["hinge"] == pytest.approx(0.5)


def test_tightness_witness_is_a_row_of_the_batch():
    pos, zeros = _report_masks(3)
    batch = oracle._tightness_witnesses(3, pos, zeros)
    for i in range(len(pos)):
        assert np.array_equal(oracle.tightness_witness(AbstainReport(3, int(pos[i]), int(zeros[i]))), batch[i])
    # +0-: half the mass on each label that is + at coordinate 0 and - at coordinate 2
    assert oracle.tightness_witness(AbstainReport.from_string("+0-")).tolist() == [0, 0.5, 0, 0.5, 0, 0, 0, 0]


def test_verify_tightness_sqrt():
    for k in (2, 3):
        assert verify_tightness(make_sqrt_card(k), grid_m=8 if k == 2 else 4).passed


def test_verify_tightness_rejects_non_strict():
    with pytest.raises(ValueError):
        verify_tightness(make_zero_one(3))
    with pytest.raises(ValueError):
        verify_tightness(make_modular([1.0, 1.0, 1.0]))


def test_a_strict_optimum_is_the_whole_optimal_set():
    """The counterexamples test a strict optimum by its MARGIN alone, which
    implies argmin_ids == {i} only while MARGIN >= ARGMIN_TOL."""
    assert _tol.MARGIN >= _tol.ARGMIN_TOL
    rng = np.random.default_rng(0)
    for _ in range(200):
        vals = 1.0 + rng.choice([0.0, 0.5e-9, 1e-9, 1.5e-9, 3e-9, 1.0], size=6)
        for i in range(6):
            if oracle._uniquely_optimal(vals, i):
                assert argmin_ids(vals) == {i}


def test_counterexample_symmetric_zero_one():
    res = counterexample_symmetric(make_zero_one(3))
    assert not res.consistent_case
    # mean value 7/8 by direct enumeration, then the closed form
    assert res.epsilon == pytest.approx(0.5 * (1 - 1 / (2 * 7 / 8)), abs=1e-12)
    assert res.epsilon == pytest.approx(3 / 14, abs=1e-12)
    assert res.v.n_abstain() >= 1
    assert res.y_bits == 0b111
    # flipping the bumped label across the abstention set keeps v in place
    assert res.y_prime_bits == res.v.pos


def test_counterexample_symmetric_sqrt():
    res = counterexample_symmetric(make_sqrt_card(3))
    fbar = mean_value(make_sqrt_card(3))
    assert res.epsilon == pytest.approx(0.5 * (1 - np.sqrt(3) / (2 * fbar)), abs=1e-12)
    assert not res.consistent_case


def test_counterexample_symmetric_modular():
    assert counterexample_symmetric(make_modular([1, 2, 3])).consistent_case


def test_counterexample_symmetric_discards_null_coordinates():
    # a null first coordinate, nontrivial elsewhere
    base = make_sqrt_card(2)
    vals = np.zeros(8)
    for s in range(8):
        vals[s] = base.values[(s >> 1) & 0b11]
    f = SetFunction.from_values(3, vals)
    res = counterexample_symmetric(f)
    assert res.kept_coords == [1, 2]
    assert not res.consistent_case


def test_counterexample_asymmetric_jaccard():
    res = counterexample_asymmetric(make_jaccard(3))
    assert res.mode in ("direct", "flipped", "sequence")
    assert str(res.v_opt) == "000"
    if res.mode == "sequence":
        # the ray gaps shrink linearly toward the optimum
        gaps = res.details["ray_gaps"]
        assert gaps[-1] < 1e-3 and gaps[0] > 0


@pytest.mark.parametrize("fc", [make_zero_one(3), make_sqrt_card(3)], ids=["zero_one", "sqrt_card"])
def test_counterexample_asymmetric_direct_mode(fc):
    """The sign of the zero report, the all-plus label, is already plain-suboptimal at the witness."""
    res = counterexample_asymmetric(fc)
    assert (res.mode, res.epsilon, str(res.v_opt), res.linked_bits, res.bad_sign_bits) == ("direct", 0.125, "000", 7, None)
    plain = argmin_ids(plain_loss_table(fc) @ res.p_witness)
    assert 7 not in plain and sorted(plain) == res.details["plain_argmin"]
    assert argmin_ids(abstain_loss_table(fc) @ res.p_witness) == {report_index(3)[(0, 7)]}


# Integer tables at k = 3, one per label, from a linear program over the 64 table values: polymatroids
# that pass the complementary-error condition, and at the first bump (eps = 1/8 toward the all-minus
# label) every +-1 report has the same plain loss, so the certificate needs its second bump.
FLIPPED_TABLES = [
    [0, 7742, 8624, 14581, 14581, 14581, 14581, 14581],
    [0, 16590, 16590, 16590, 7742, 16590, 16590, 16590],
    [0, 18480, 18480, 18480, 8368, 18480, 18480, 18480],
    [0, 31245, 31245, 31245, 31245, 31245, 31245, 31245],
    [0, 27328, 26702, 31245, 31245, 31245, 31245, 31245],
    [0, 18480, 10020, 18480, 18480, 18480, 18480, 18480],
    [0, 8386, 16590, 16590, 16590, 16590, 16590, 16590],
    [0, 14581, 14581, 14581, 14581, 14581, 14581, 14581],
]


def test_counterexample_asymmetric_flipped_mode():
    fc = PolymatroidCollection.from_tables(3, range(8), FLIPPED_TABLES)
    assert all(validate_polymatroid(SetFunction(3, row)).valid for row in fc.values)
    assert check_condition1(fc).passed
    p_eps = mix(uniform(3), point_mass(0, 3), 0.125)
    assert argmin_ids(plain_loss_table(fc) @ p_eps) == set(range(8))  # every +-1 report ties
    res = counterexample_asymmetric(fc)
    assert (res.mode, res.epsilon, str(res.v_opt), res.linked_bits) == ("flipped", 0.125, "000", 7)
    assert res.details == {"epsilon_prime": 0.125}
    assert np.array_equal(res.p_witness, mix(p_eps, point_mass(0, 3), 0.125))
    assert argmin_ids(abstain_loss_table(fc) @ res.p_witness) == {report_index(3)[(0, 7)]}
    assert 7 not in argmin_ids(plain_loss_table(fc) @ res.p_witness)


def test_counterexample_asymmetric_rejects_bad_collections():
    with pytest.raises(ValueError):
        counterexample_asymmetric(make_modular([1, 1, 1]))  # fails the condition
    with pytest.raises(ValueError):
        counterexample_asymmetric(make_jaccard(2))  # needs k >= 3


def test_uniform_distribution_lower_bound():
    """Expected abstain loss at the uniform distribution is at least f([k])."""
    for k in (2, 3, 4):
        for name, f in symmetric_builtins(k).items():
            table = abstain_loss_table(f)
            vals = table @ uniform(k)
            assert vals.min() >= f.full() - 1e-12, name


def test_label_average_identity():
    """On +-1 reports the uniform expected abstain loss is exactly twice the mean."""
    for k in (2, 3):
        for name, f in symmetric_builtins(k).items():
            table = abstain_loss_table(f)
            vals = table @ uniform(k)
            ridx = report_index(k)
            for y in range(1 << k):
                assert vals[ridx[(y, 0)]] == pytest.approx(2 * mean_value(f), abs=1e-12)


def test_jaccard_uniform_argmin_contained():
    """At the uniform distribution only all-abstain and all-plus can be optimal."""
    jac = make_jaccard(3)
    table = abstain_loss_table(jac)
    ids = argmin_ids(table @ uniform(3))
    ridx = report_index(3)
    assert ids <= {ridx[(0, 0b111)], ridx[(0b111, 0)]}


def test_property_symmetry(rng):
    """For a shared table the optimal set transforms by sign flips."""
    k = 2
    f = make_sqrt_card(k)
    table = surrogate_loss_table(f)
    ridx = report_index(k)
    reports = enumerate_reports(k, "V")
    for p in list(grid_distributions(k, 4))[::3]:
        base = argmin_ids(table @ p)
        for r in range(1 << k):
            flipped = argmin_ids(table @ flip(p, r, k))
            r_signs = Label(k, r).signs()
            moved = set()
            for i in base:
                vec = reports[i].vector() * r_signs
                v = AbstainReport.from_vector(vec.astype(int))
                moved.add(ridx[(v.pos, v.zeros)])
            assert flipped == moved


def test_calibration_sweep_small(rng):
    rep = calibration_sweep(make_sqrt_card(2), grid_m=4, n_perturb=4, rng=rng)
    assert rep.passed
    rep = calibration_sweep(make_jaccard(2), grid_m=4, n_perturb=4, rng=rng)
    assert rep.passed


def test_calibration_sweep_reports_the_first_mislinked_case(monkeypatch):
    """Mislink one point: the second perturbation at tau = 0.5 of the fourth
    (distribution, optimal report) pair, where p = (0, 0, 1/2, 1/2) is
    optimized by -+, ++ and 0+, and the pair's report is ++."""
    n_perturb, taus, eps = 4, (0.0, 0.5, 1.0), 1 / 4
    draws = np.random.default_rng(7)
    deltas = [draws.uniform(-0.99 * eps, 0.99 * eps, size=(n_perturb, 2)) for _ in range(4)]
    link_rows = oracle.link_rows

    def mislink(us, eps, tau):  # each block's one call, over a (1, T) tau grid
        pos, zeros = link_rows(us, eps, tau)
        hit = (us == 1.0 + deltas[3][1]).all(axis=1)[:, None] & (tau == 0.5)
        pos[hit], zeros[hit] = 0, 0  # the report --
        return pos, zeros

    monkeypatch.setattr(oracle, "link_rows", mislink)
    rep = calibration_sweep(make_sqrt_card(2), grid_m=4, taus=taus, n_perturb=n_perturb,
                            rng=np.random.default_rng(7))
    assert rep.passed is False
    assert rep.cases == 3 * n_perturb * len(taus) + 5
    assert rep.witness == {"p": [0.0, 0.0, 0.5, 0.5], "v": "++", "u": (1.0 + deltas[3][1]).tolist(),
                           "tau": 0.5, "linked": "--"}


def test_verification_reports_deterministic():
    a = verify_representative(make_zero_one(2), enumerate_reports(2, "Y"), grid_m=8)
    b = verify_representative(make_zero_one(2), enumerate_reports(2, "Y"), grid_m=8)
    assert a.to_dict() == b.to_dict()


def test_known_argmin_at_uniform_zero_one():
    """At the uniform distribution the nonempty indicator uniquely prefers
    abstaining everywhere (computed by hand: 1 vs 1.5 for labels)."""
    zo = make_zero_one(2)
    ids = argmin_ids(surrogate_loss_table(zo) @ uniform(2))
    assert ids == {report_index(2)[(0, 0b11)]}


def test_surrogate_table_mismatch_is_detectable():
    """The two loss routes really are independent: crossing collections
    produces disagreements, so the identity check cannot pass vacuously."""
    surr = surrogate_loss_table(make_zero_one(2))
    disc = abstain_loss_table(make_sqrt_card(2))
    assert np.abs(surr - disc).max() > 0.1
