import itertools

import numpy as np
import pytest

from lovasz_abstain import (
    AbstainReport,
    LinkConfig,
    envelope,
    envelope_oracle,
    make_sqrt_card,
    make_zero_one,
    naive_threshold_link,
    threshold_abstain_link,
    trim_single_abstain,
)
from lovasz_abstain.links import (
    chain_faces,
    envelope_detailed,
    envelope_members_gap,
    envelope_members_oracle,
    link_rows,
)


def test_envelope_detailed_witnesses():
    cfg = LinkConfig(epsilon=0.25)
    details = envelope_detailed([0.9, 0.1], cfg)
    assert [d["report"] for d in details] == ["+0"]
    assert details[0]["i"] == 1 and details[0]["pi"] == [1, 2] and details[0]["y"] == "++"
from lovasz_abstain.oracle import naive_link_inconsistency, thickened_envelope_grid
from lovasz_abstain.targets import enumerate_reports, report_index


def reports_of(s):
    return {str(v) for v in s}


def test_naive_threshold_link():
    assert str(naive_threshold_link([0.6, 0.1], 0.5)) == "+0"
    assert str(naive_threshold_link([0.0, 0.0], 0.5)) == "00"
    assert str(naive_threshold_link([-0.5, 0.5], 0.5)) == "-+"
    with pytest.raises(ValueError):
        naive_threshold_link([0.1], 0.0)


def test_envelope_hand_examples():
    cfg = LinkConfig(epsilon=0.25)
    assert reports_of(envelope([0.9, 0.1], cfg)) == {"+0"}
    for k in (2, 3):
        cfg_k = LinkConfig(epsilon=1 / (2 * k))
        assert reports_of(envelope(np.ones(k), cfg_k)) == {"+" * k}
        assert reports_of(envelope(np.zeros(k), cfg_k)) == {"0" * k}


def test_envelope_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        LinkConfig(tau=1.5)


def test_envelope_matches_oracle(rng):
    for k in (1, 2, 3):
        corners = np.array(list(itertools.product([-1, 0, 1], repeat=k)), dtype=float)
        for eps in (1 / (2 * k), 1 / (4 * k)):
            cfg = LinkConfig(epsilon=eps)
            us = np.vstack([rng.uniform(-1.5, 1.5, (120, k)), corners])
            for u in us:
                assert envelope(u, cfg) == envelope_oracle(u, cfg)


def test_envelope_batch_routes_agree(rng):
    for k in (2, 3):
        eps = 1 / (2 * k)
        us = rng.uniform(-1.2, 1.2, (500, k))
        assert (envelope_members_gap(us, eps) == envelope_members_oracle(us, eps)).all()


def test_nonemptiness_boundary(rng):
    for k in (2, 3, 4):
        us = rng.uniform(-2, 2, (2000, k))
        assert envelope_members_gap(us, 1 / (2 * k)).any(axis=1).all()
        witness = (2 * np.arange(1, k + 1) - 1) / (2 * k)
        bad_eps = 1 / (2 * k) + 0.01
        assert not envelope(witness, LinkConfig(epsilon=bad_eps))
        with pytest.raises(ValueError):
            threshold_abstain_link(witness, LinkConfig(epsilon=bad_eps))


def test_link_hand_examples():
    cfg = LinkConfig(epsilon=0.25, tau=0.5)
    assert str(threshold_abstain_link([0.9, 0.1], cfg)) == "+0"
    u = np.array([0.8, 0.2, -0.5])  # all gaps >= 2 eps at eps = 1/8
    eps = 1 / 8
    # gap midpoints: 0.9625, 0.65, 0.35, 0.0375
    assert str(threshold_abstain_link(u, LinkConfig(epsilon=eps, tau=0.0))) == "++-"
    assert str(threshold_abstain_link(u, LinkConfig(epsilon=eps, tau=1.0))) == "000"
    # tau = 0.5 ties between midpoints 0.65 and 0.35; the rule commits more
    assert str(threshold_abstain_link(u, LinkConfig(epsilon=eps, tau=0.5))) == "+0-"


def test_link_zero_coordinate_stays_abstained():
    # tau = 0 drives toward committing everywhere, but an exact zero has no sign
    cfg = LinkConfig(epsilon=0.25, tau=0.0)
    out = threshold_abstain_link([0.9, 0.0], cfg)
    assert str(out) == "+0"


def test_link_membership_in_envelope(rng):
    for k in (1, 2, 3, 4):
        cfg_eps = 1 / (2 * k)
        for trial in range(300):
            u = rng.uniform(-1.3, 1.3, k)
            if trial % 3 == 0:  # exercise exact zeros too
                u[rng.integers(0, k)] = 0.0
            zero_mask = sum(1 << i for i, x in enumerate(u) if x == 0.0)
            env = envelope(u, LinkConfig(epsilon=cfg_eps))
            for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
                out = threshold_abstain_link(u, LinkConfig(epsilon=cfg_eps, tau=tau))
                if not zero_mask:
                    assert out in env
                    continue
                # may differ from a member only by abstaining on exact zeros
                ok = False
                for v in env:
                    extra = out.zeros & ~v.zeros
                    if extra & ~zero_mask or (v.zeros & ~out.zeros):
                        continue
                    if AbstainReport(k, v.pos & ~extra, v.zeros | extra) == out:
                        ok = True
                        break
                assert ok


def test_monotone_abstention(rng):
    for k in (2, 3, 4):
        cfg_eps = 1 / (2 * k)
        for _ in range(200):
            u = rng.uniform(-1.2, 1.2, k)
            abstentions = [
                threshold_abstain_link(u, LinkConfig(epsilon=cfg_eps, tau=t)).n_abstain()
                for t in np.linspace(0, 1, 21)
            ]
            assert all(a <= b for a, b in zip(abstentions, abstentions[1:]))


def test_trim_single_abstain():
    v = AbstainReport.from_string("+0")
    assert str(trim_single_abstain(v, [0.9, -0.1])) == "+-"
    assert str(trim_single_abstain(v, [0.9, 0.0])) == "++"  # tie rule: 0 -> +1
    two = AbstainReport.from_string("00")
    assert trim_single_abstain(two, [0.9, -0.1]) is two
    y = AbstainReport.from_string("+-")
    assert trim_single_abstain(y, [0.9, -0.1]) is y


def test_envelope_signed_permutation_equivariance(rng):
    """Permuting and sign-flipping the input transforms the envelope the same way."""
    k = 3
    cfg = LinkConfig(epsilon=1 / 6)
    for _ in range(100):
        u = rng.uniform(-1.2, 1.2, k)
        pi = rng.permutation(k)
        y = rng.choice([-1.0, 1.0], k)
        transformed = (u * y)[pi]
        lhs = envelope(transformed, cfg)
        rhs = set()
        for v in envelope(u, cfg):
            vec = (v.vector() * y)[pi]
            rhs.add(AbstainReport.from_vector(vec.astype(int)))
        assert lhs == rhs


def test_chain_faces_are_signed_chains():
    for k in (1, 2, 3):
        full = (1 << k) - 1
        reports = enumerate_reports(k, "V")
        for f in chain_faces(k):
            for a, b in zip(f.supports, f.supports[1:]):
                assert a & b == a and a != b  # strictly nested
            assert f.sigma & ~f.supports[-1] == 0
            members = [reports[i] for i in f.member_ids]
            assert sorted(full & ~v.zeros for v in members) == sorted(f.supports)  # one per support
            for v in members:  # committed coordinates take their signs from sigma
                assert v.pos == full & ~v.zeros & f.sigma


def test_containment_in_per_loss_envelope(rng):
    """The shared envelope never offers a report a specific loss would forbid."""
    k = 2
    eps = 1 / (2 * k)
    reports = enumerate_reports(k, "V")
    ridx = report_index(k)
    for fc in (make_zero_one(k), make_sqrt_card(k)):
        for _ in range(40):
            u = rng.uniform(-1.2, 1.2, k)
            shared = {ridx[(v.pos, v.zeros)] for v in envelope(u, LinkConfig(epsilon=eps))}
            per_loss = thickened_envelope_grid(fc, u, eps, grid_m=8)
            assert shared <= per_loss


def test_naive_link_inconsistency_witness():
    wit = naive_link_inconsistency(make_zero_one(2), c=0.5, grid_m=8)
    assert wit.bad_report.n_abstain() == 1
    assert wit.gaps[-1] < 1e-4
    ridx = report_index(2)
    assert ridx[(wit.bad_report.pos, wit.bad_report.zeros)] not in wit.optimal_ids


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: threshold_abstain_link([np.nan, 0.2, 0.3], LinkConfig()), "u"),
        (lambda: threshold_abstain_link([np.inf, 0.2, 0.3], LinkConfig()), "u"),
        (lambda: threshold_abstain_link([], LinkConfig()), "u"),
        (lambda: threshold_abstain_link([[0.9, 0.1]], LinkConfig()), "u"),
        (lambda: envelope_members_gap([[0.9, 0.1], [np.nan, 0.1]], 0.25), "us"),
        (lambda: envelope_members_gap([0.9, 0.1], 0.25).any(axis=1), "us"),
        (lambda: trim_single_abstain(AbstainReport.from_string("+0"), [0.9, 0.1, 0.3]), "u"),
        (lambda: envelope_members_oracle([[np.nan, 0.0, 0.0]], 0.1), "us"),
        (lambda: envelope_members_oracle([0.9, 0.1], 0.25), "us"),
        (lambda: envelope_oracle([np.nan, 0.0, 0.0], LinkConfig()), "u"),
        (lambda: envelope_oracle([[0.9, 0.1]], LinkConfig()), "u"),
        (lambda: naive_threshold_link([np.nan, 0.5], 0.3), "u"),
    ],
    ids=["nan", "inf", "empty", "two-axes", "members-nan-row", "nonempty-one-axis", "trim-length",
         "oracle-members-nan-row", "oracle-members-one-axis", "oracle-nan", "oracle-two-axes", "naive-nan"],
)
def test_link_entry_points_reject_bad_points(call, name):
    with pytest.raises(ValueError, match=rf"^{name} has"):
        call()


@pytest.mark.parametrize("route", [envelope_members_gap, envelope_members_oracle], ids=["gap", "oracle"])
@pytest.mark.parametrize("eps", [-0.1, 0.0, np.nan, np.inf])
def test_batch_envelope_routes_reject_a_bad_eps(route, eps):
    """At eps = -0.1 the two routes once disagreed on two zero points (8 vs 54 members)."""
    with pytest.raises(ValueError, match=rf"^eps must lie in \(0, inf\), got {eps}$"):
        route(np.zeros((2, 3)), eps)


@pytest.mark.parametrize("eps", [-1.0, 0.0, np.nan, np.inf])
def test_link_config_and_link_rows_reject_a_bad_eps(eps):
    """LinkConfig(epsilon=inf) and link_rows at eps = inf or -1.0 once linked [0.5, 0.2] to '++'."""
    with pytest.raises(ValueError, match=rf"^epsilon must lie in \(0, inf\), got {eps}$"):
        LinkConfig(epsilon=eps)
    with pytest.raises(ValueError, match=rf"^eps must lie in \(0, inf\), got {eps}$"):
        link_rows(np.array([[0.5, 0.2]]), eps, 0.5)


@pytest.mark.parametrize("call", [lambda: envelope_members_oracle(np.zeros((2, 5)), 0.1),
                                  lambda: envelope_oracle(np.zeros(5), LinkConfig())], ids=["members", "one-point"])
def test_face_route_names_its_cap(call):
    """At k = 5 both routes once failed in the face-table builder with "face
    enumeration capped at k <= 4", which named neither us nor u."""
    with pytest.raises(ValueError, match=r"^face route of us? capped at k <= 4, got k=5$"):
        call()


@pytest.mark.parametrize(
    "tau, message",
    [(np.full((1, 1, 2), 0.5), r"^tau has shape \(1, 1, 2\)"),
     (np.full((2, 4), 0.5), r"^tau has shape \(2, 4\)"),
     (np.full((0, 4), 0.5), r"^tau has shape \(0, 4\)"),
     (np.full(2, 0.5), r"^tau has shape \(2,\)"),
     (np.array([[0.5, 1.5]]), r"^tau must lie in \[0, 1\]"),
     (np.array([[0.5, np.nan]]), r"^tau must lie in \[0, 1\]")],
    ids=["three-axes", "two-rows-of-three", "no-rows", "two-of-three", "grid-above-1", "grid-nan"],
)
def test_link_rows_rejects_a_bad_tau(tau, message):
    """Any 2-D tau once died in numpy broadcasting."""
    with pytest.raises(ValueError, match=message):
        link_rows(np.array([[0.5, 0.2], [0.9, 0.0], [-0.3, 0.6]]), 0.25, tau)


@pytest.mark.parametrize(
    "u, epsilon, message",
    [([np.nan, 0.0], 0.1, "^u has a non-finite entry"),
     ([0.5, 0.2, 0.1], 0.1, r"^u has shape \(3,\), expected \(2,\)"),
     ([[0.5, 0.2]], 0.1, r"^u has shape \(1, 2\), expected \(2,\)"),
     ([0.5, 0.2], -1.0, r"^epsilon must lie in \(0, inf\), got -1.0$"),
     ([0.5, 0.2], 0.0, r"^epsilon must lie in \(0, inf\), got 0.0$"),
     ([0.5, 0.2], np.inf, r"^epsilon must lie in \(0, inf\), got inf$")],
    ids=["nan-u", "long-u", "two-axes-u", "negative-epsilon", "zero-epsilon", "infinite-epsilon"],
)
def test_thickened_envelope_grid_rejects_a_bad_point_or_epsilon(u, epsilon, message):
    """u = [nan, 0] and epsilon = -1.0 once returned all 9 reports at k = 2."""
    with pytest.raises(ValueError, match=message):
        thickened_envelope_grid(make_sqrt_card(2), u, epsilon)
