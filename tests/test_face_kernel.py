"""The sign-pruned face kernel against the per-face distance loop.

``faces_within(x, t)`` evaluates the unsigned chains on the sign rows of each
point and never computes a face whose sign disagrees with a coordinate of
size >= t. The reference ``ref_face_distances`` (in conftest) computes the
distance of every face. The kernel must give the reference's verdict
``d < t`` at every threshold where a verdict can change: each distinct
reference distance and its float neighbours, the envelope bounds eps - GAP_TOL
and t <= 0. Points cover report corners, exact 0 and -0.0, ties, coordinates
at exactly +-t, clipped coordinates (|x_i| > 1 before clipping) and all-tiny
rows, which expand into 2^k sign rows. The array-built face tables are pinned
to the record loop ``ref_chain_faces`` (in conftest), and the oracle routes
must run without building a face record.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ref_chain_faces, ref_face_distances
from lovasz_abstain import links, make_sqrt_card, oracle
from lovasz_abstain.links import (
    GAP_TOL,
    LinkConfig,
    _chain_plan,
    _face_member_matrix,
    _member_words,
    chain_faces,
    clip,
    envelope_members_gap,
    envelope_members_oracle,
    envelope_oracle,
    faces_within,
)


def _bounds(k):
    return [eps - GAP_TOL for eps in (0.05, 1.0 / 8, 1.0 / (2 * k))]


def _assert_verdicts_match(x, thresholds=()):
    """faces_within(x, t) == ref < t at every given threshold, every distinct
    reference distance and its neighbours, the envelope bounds and t <= 0."""
    ref = ref_face_distances(x)
    d = np.unique(ref)
    ts = np.concatenate([thresholds, d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf),
                         _bounds(x.shape[1]), [0.0, -0.0, -0.5]])
    for t in np.unique(ts):
        got = faces_within(x, t)
        assert got.shape == (len(x), len(chain_faces(x.shape[1])))
        assert np.array_equal(got, ref < t), t


SPECIAL = [-1.5, -1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5]
coord = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def point_rows(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    return np.array(draw(st.lists(st.lists(coord, min_size=k, max_size=k), min_size=n, max_size=n)))


def _corners(k):
    return np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * k)).reshape(k, -1).T


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_face_distances_match_loop_at_report_corners(k):
    x = _corners(k)
    _assert_verdicts_match(np.vstack([x, np.where(x == 0.0, -0.0, x)]))


@settings(max_examples=60, deadline=None)
@given(point_rows())
@example(np.array([[0.5, 0.5, -0.5, 0.5]]))
@example(np.array([[-0.0, 0.0, 1.5, -1.5]]))
@example(np.array([[0.25, -0.25, 0.25]]))
def test_face_distances_match_loop(u):
    _assert_verdicts_match(clip(u))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_faces_within_at_coordinates_of_size_t(k):
    """Coordinates at exactly +-t are big (one sign row), those just below and
    +-0 tiny (two); an all-tiny row expands into 2^k sign rows."""
    rng = np.random.default_rng(k)
    for t in _bounds(k):
        below = np.nextafter(t, 0.0)
        values = np.array([-1.0, -t, -below, -t / 2, -0.0, 0.0, t / 2, below, t, 1.0])
        x = rng.choice(values, (40, k))
        tiny = rng.choice([-below, -t / 2, -0.0, 0.0, t / 2, below], (4, k))
        _assert_verdicts_match(np.vstack([x, tiny, np.full((1, k), t), np.full((1, k), -0.0)]), [t])


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000])
def test_envelope_members_oracle_matches_gap_route_across_row_blocks(n):
    rng = np.random.default_rng(n)
    us = np.vstack([_corners(4), rng.uniform(-1.5, 1.5, (n, 4))])[:n]
    for eps in (0.05, 1.0 / 8):
        got = envelope_members_oracle(us, eps)
        assert got.shape == (n, 81)
        assert np.array_equal(got, envelope_members_gap(us, eps))


@pytest.mark.parametrize("width", [1, 3, 9, 27, 63, 64, 65, 81, 130])
def test_member_words_hold_column_r_at_bit_r_mod_64_of_word_r_div_64(width):
    rng = np.random.default_rng(width)
    members = rng.random((7, width)) < 0.5
    words = _member_words(members)
    assert words.dtype == np.uint64 and words.shape == (7, -(-width // 64))
    for r in range(width):
        assert np.array_equal((words[:, r // 64] >> np.uint64(r % 64)) & np.uint64(1), members[:, r])
    if width % 64:
        assert not (words[:, -1] >> np.uint64(width % 64)).any()  # the padding bits stay 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_envelope_members_oracle_intersects_the_qualifying_faces(k):
    """Each point keeps the reports that every face within eps - GAP_TOL holds,
    and every report when no face qualifies (eps <= GAP_TOL), as the dense
    verdicts-times-missing-members product does."""
    rng = np.random.default_rng(k)
    us = np.vstack([_corners(k), rng.uniform(-1.5, 1.5, (150, k)), rng.integers(-9, 10, (100, k)) / 8.0])
    missing = ~_face_member_matrix(k)
    for eps in (GAP_TOL / 2, GAP_TOL, 2 * GAP_TOL, 0.05, 1.0 / 8, 1.0 / (2 * k)):
        qualified = faces_within(clip(us), eps - GAP_TOL)
        want = (qualified.astype(np.int64) @ missing.astype(np.int64)) == 0
        assert np.array_equal(envelope_members_oracle(us, eps), want)
    assert envelope_members_oracle(us, GAP_TOL / 2).all()


def ref_chain_plan(faces, k):
    """_chain_plan's outputs read off the face records one chain at a time."""
    position = {(f.supports, f.sigma): i for i, f in enumerate(faces)}
    chains = list(dict.fromkeys(f.supports for f in faces))
    index = {c: i for i, c in enumerate(chains)}
    levels = [([], [], []) for _ in range(k)]
    for i, c in enumerate(chains):
        if len(c) > 1:
            ids, parents, blocks = levels[len(c) - 2]
            ids.append(i)
            parents.append(index[c[:-1]])
            blocks.append(c[-1] & ~c[-2])
    levels = tuple(tuple(np.array(col, dtype=np.intp) for col in level) for level in levels)
    prefix = np.array([c[0] for c in chains])
    union = np.array([c[-1] & ~c[0] for c in chains])
    suffix = ((1 << k) - 1) & ~np.array([c[-1] for c in chains])
    face_of = np.array([[position[(c, b & c[-1])] for b in range(1 << k)] for c in chains])
    return levels, prefix, union, suffix, face_of


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_face_tables_match_the_record_loop(k):
    """Face order, member ids, the member matrix and every chain-plan output
    equal those read off the per-face records, dtypes included."""
    ref = ref_chain_faces(k)
    faces = chain_faces(k)
    assert len(faces) == len(ref) == (5, 33, 293, 3393)[k - 1]
    assert [(f.supports, f.sigma) for f in faces] == [(f.supports, f.sigma) for f in ref]
    for f, r in zip(faces, ref):
        _assert_same_array(f.member_ids, r.member_ids)
    want = np.zeros((len(ref), 3**k), dtype=bool)
    for i, r in enumerate(ref):
        want[i, r.member_ids] = True
    _assert_same_array(_face_member_matrix(k), want)
    got_levels, *got_rows = _chain_plan(k)
    want_levels, *want_rows = ref_chain_plan(ref, k)
    assert len(got_levels) == len(want_levels) == k
    for got, want in zip(got_levels, want_levels):
        for g, w in zip(got, want, strict=True):
            _assert_same_array(g, w)
    for g, w in zip(got_rows, want_rows, strict=True):
        _assert_same_array(g, w)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_oracle_routes_build_no_face_record(k, monkeypatch):
    """From cold caches, the face-intersection routes read only the face tables."""
    for cached in (links._face_tables, links._chain_plan, links._face_member_matrix, links.chain_faces):
        cached.cache_clear()

    def refuse(self, *args):
        raise AssertionError("a face record was built")

    monkeypatch.setattr(links._Face, "__init__", refuse)
    rng = np.random.default_rng(k)
    us = np.vstack([_corners(k), rng.uniform(-1.5, 1.5, (70, k))])
    eps = 1.0 / (2 * k)
    assert np.array_equal(envelope_members_oracle(us, eps), envelope_members_gap(us, eps))
    assert envelope_oracle(us[-1], LinkConfig(epsilon=eps))
    assert oracle.thickened_envelope_grid(make_sqrt_card(k), us[-1], eps, grid_m=2)
    with pytest.raises(AssertionError, match="face record"):
        chain_faces(k)
