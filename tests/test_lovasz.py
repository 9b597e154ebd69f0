import itertools

import numpy as np
import pytest

from lovasz_abstain import (
    Label,
    clip,
    expected_hinge,
    hinge,
    hinge_subgradient,
    lovasz_extension,
    make_modular,
    make_sqrt_card,
    make_zero_one,
    random_collection,
    random_polymatroid,
)
from lovasz_abstain.lovasz import extension_batch, hinge_rows
from lovasz_abstain.oracle import point_mass, uniform

from conftest import builtin_collections


def max_over_permutations(f, x):
    """Extension by maximizing the chain sum over every ordering: the oracle
    the sorting form is checked against."""
    best = -np.inf
    for pi in itertools.permutations(range(f.k)):
        mask, prev, total = 0, f.values[0], 0.0
        for i in pi:
            mask |= 1 << i
            total += x[i] * (f.values[mask] - prev)
            prev = f.values[mask]
        best = max(best, total)
    return best


def test_extension_hand_example():
    assert lovasz_extension(make_zero_one(2), [0.5, 0.3]) == pytest.approx(0.5)


def test_extension_agrees_on_indicators():
    for k in (1, 2, 3, 4, 5):
        f = make_sqrt_card(k)
        for s in range(1 << k):
            x = np.array([(s >> i) & 1 for i in range(k)], dtype=float)
            assert lovasz_extension(f, x) == pytest.approx(f.eval(s), abs=1e-12)


def test_extension_modular_linear(rng):
    w = rng.uniform(0, 3, 4)
    f = make_modular(w)
    for _ in range(20):
        x = rng.uniform(0, 2, 4)
        assert lovasz_extension(f, x) == pytest.approx(float(w @ x), abs=1e-9)


def test_extension_equals_max_form(rng):
    for k in (2, 3, 4, 5):
        f = random_polymatroid(k, rng)
        for _ in range(10):
            x = rng.uniform(0, 1.5, k)
            assert lovasz_extension(f, x) == pytest.approx(max_over_permutations(f, x), abs=1e-9)


def test_extension_rejects_negative():
    with pytest.raises(ValueError):
        lovasz_extension(make_zero_one(2), [-0.1, 0.5])


def test_extension_convexity(rng):
    for k in (2, 3, 5):
        f = random_polymatroid(k, rng)
        for _ in range(200):
            x, xp = rng.uniform(0, 2, k), rng.uniform(0, 2, k)
            lam = rng.uniform()
            lhs = lovasz_extension(f, lam * x + (1 - lam) * xp)
            rhs = lam * lovasz_extension(f, x) + (1 - lam) * lovasz_extension(f, xp)
            assert lhs <= rhs + 1e-9


def test_extension_batch_matches_scalar(rng):
    f = random_polymatroid(3, rng)
    xs = rng.uniform(0, 2, (50, 3))
    batch = extension_batch(f, xs)
    for row, val in zip(xs, batch):
        assert val == pytest.approx(lovasz_extension(f, row), abs=1e-12)


def test_clip():
    assert clip([2.5, -0.4]).tolist() == [1.0, -0.4]
    assert clip([-3.0, -1.0]).tolist() == [-1.0, -1.0]
    assert clip([0.2, 0.9]).tolist() == [0.2, 0.9]
    with pytest.raises(ValueError, match="^u has a non-finite entry$"):
        clip([np.nan])


def test_hinge_examples():
    assert hinge(make_zero_one(2), [0.0, 0.0], Label.from_string("++")) == pytest.approx(1.0)
    assert hinge(make_zero_one(2), [0.0, 0.0], Label.from_string("-+")) == pytest.approx(1.0)
    y = Label.from_string("+-+")
    assert hinge(make_sqrt_card(3), y.signs(), y) == 0.0
    assert hinge(make_modular([2, 3]), [-1.0, 1.0], Label.from_string("++")) == pytest.approx(4.0)


def test_a_label_given_as_signs_is_its_label():
    f, u = make_sqrt_card(3), [0.4, -0.1, 0.7]
    assert hinge(f, u, [1, -1, 1]) == hinge(f, u, Label.from_signs([1, -1, 1])) == hinge(f, u, 0b101)
    assert hinge(f, u, np.array([-1, -1, 1])) == hinge(f, u, Label.from_string("--+"))


def test_clip_domination(rng):
    for k in (2, 3):
        for _ in range(5):
            fc = random_collection(k, rng)
            for _ in range(50):
                u = rng.uniform(-3, 3, k)
                for y in range(1 << k):
                    assert hinge(fc, clip(u), y) <= hinge(fc, u, y) + 1e-12


def test_restriction_identity(rng):
    """Inside the cube the positive part never binds."""
    for k in (2, 3):
        fc = random_collection(k, rng)
        for _ in range(30):
            u = rng.uniform(-1, 1, k)
            for y in range(1 << k):
                signs = Label(k, y).signs()
                direct = lovasz_extension(fc.for_label(y), 1.0 - u * signs)
                assert hinge(fc, u, y) == pytest.approx(direct, abs=1e-12)


def test_hinge_label_symmetry(rng):
    """For a shared table, relabeling u and y by the same sign flip is free."""
    f = random_polymatroid(3, rng)
    for _ in range(30):
        u = rng.uniform(-2, 2, 3)
        for y in range(8):
            for yp in range(8):
                signs = Label(3, yp).signs()
                flipped_y = Label.from_signs(Label(3, y).signs() * signs)
                assert hinge(f, u * signs, flipped_y) == pytest.approx(
                    hinge(f, u, y), abs=1e-12
                )


def test_affine_on_ordered_simplices(rng):
    """The hinge is affine on each signed ordered simplex, for every label."""
    k = 3
    fc = random_collection(k, rng)
    for _ in range(10):
        pi = rng.permutation(k)
        y_bits = int(rng.integers(0, 1 << k))
        signs = Label(k, y_bits).signs()
        verts = [np.zeros(k)]
        ind = np.zeros(k)
        for i in pi:
            ind = ind.copy()
            ind[i] = 1.0
            verts.append(ind * signs)
        for _ in range(10):
            lam = rng.dirichlet(np.ones(len(verts)))
            point = sum(l * vv for l, vv in zip(lam, verts))
            for y in range(1 << k):
                lhs = hinge(fc, point, y)
                rhs = sum(l * hinge(fc, vv, y) for l, vv in zip(lam, verts))
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_subgradient_hand_example():
    g = hinge_subgradient(make_zero_one(2), [0.5, 0.1], Label.from_string("++"))
    assert g.tolist() == [0.0, -1.0]


def test_subgradient_flat_region():
    g = hinge_subgradient(make_sqrt_card(2), [2.0, 3.0], Label.from_string("++"))
    assert g.tolist() == [0.0, 0.0]


def test_subgradient_modular_interior(rng):
    w = np.array([2.0, 0.5, 1.0])
    f = make_modular(w)
    for y in range(8):
        signs = Label(3, y).signs()
        u = -0.5 * signs  # every hinge active
        g = hinge_subgradient(f, u, y)
        assert np.allclose(g, -signs * w)


def central_difference(fc, u, y, h=1e-6):
    k = len(u)
    g = np.zeros(k)
    for i in range(k):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (hinge(fc, up, y) - hinge(fc, um, y)) / (2 * h)
    return g


def test_subgradient_matches_finite_differences(rng):
    for k in (2, 3, 4):
        for name, fc in builtin_collections(k).items():
            checked = 0
            while checked < 40:
                u = rng.uniform(-1.5, 1.5, k)
                for y in range(1 << k):
                    margins = np.abs(1.0 - u * Label(k, y).signs())
                    if np.min(margins) < 1e-3 or np.min(np.diff(np.sort(margins))) < 1e-3:
                        continue
                    g = hinge_subgradient(fc, u, y)
                    fd = central_difference(fc, u, y)
                    assert np.allclose(g, fd, atol=1e-4), (name, k, u, y)
                    checked += 1


def test_expected_hinge():
    f = make_zero_one(1)
    assert expected_hinge(f, [0.0], uniform(1)) == pytest.approx(1.0)
    fc = builtin_collections(2)["jaccard"]
    y = 0b01
    assert expected_hinge(fc, [0.3, -0.2], point_mass(y, 2)) == pytest.approx(
        hinge(fc, [0.3, -0.2], y)
    )
    assert expected_hinge(fc, 10 * Label(2, y).signs(), point_mass(y, 2)) == 0.0
    with pytest.raises(ValueError):
        expected_hinge(f, [0.0], np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        expected_hinge(f, [0.0], np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="^p has a non-finite entry$"):
        expected_hinge(make_zero_one(2), [0, 0], [np.nan] * 4)


def test_hinge_batch_matches_scalar(rng):
    fc = random_collection(2, rng)
    us = rng.uniform(-2, 2, (40, 2))
    for y in range(4):
        batch = hinge_rows(fc, us, y)
        for u, val in zip(us, batch):
            assert val == pytest.approx(hinge(fc, u, y), abs=1e-12)


def test_hinge_rejects_wrong_length_u():
    f = make_sqrt_card(4)
    with pytest.raises(ValueError, match="u has shape"):
        hinge_subgradient(f, [0.5], 3)
    with pytest.raises(ValueError, match="u has shape"):
        hinge(f, [0.5], 3)
    with pytest.raises(ValueError, match="us has shape"):
        hinge_rows(f, np.zeros((5, 3)), 3)


def test_hinge_rejects_non_finite_u():
    f = make_sqrt_card(4)
    with pytest.raises(ValueError, match="u has a non-finite entry"):
        hinge_subgradient(f, [np.nan, 0, 0, 0], 3)
    with pytest.raises(ValueError, match="u has a non-finite entry"):
        hinge(f, [0, np.inf, 0, 0], 3)
    us = np.zeros((5, 4))
    us[2, 1] = -np.inf
    with pytest.raises(ValueError, match="us has a non-finite entry"):
        hinge_rows(f, us, 3)
