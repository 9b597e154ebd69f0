"""Working memory of the verification sweeps.

Past their tables and one grid block, verify_embedding, calibration_sweep and
multiclass.verify_block_domination work in steps of oracle._SWEEP_CELLS
float64 cells (2 MiB): lattice sub-blocks, chunks of linked points, and rows
of the lifted loss table. The budget tests trace one call's peak against a
bound written before the call: the step plus the call's own inputs and
outputs. The chunk tests shrink the step, or grow it past every block as the
sweeps ran before they were chunked, and require every verdict, case count,
witness and detail to stay as it is.
"""

import tracemalloc

import numpy as np
import pytest

from lovasz_abstain import links, make_jaccard, make_sqrt_card, make_zero_one, multiclass, oracle
from lovasz_abstain.multiclass import BlockCodec, ClassCosts
from lovasz_abstain.oracle import calibration_sweep, verify_embedding
from lovasz_abstain.targets import AbstainReport, abstain_loss_table

from conftest import builtin_collections

FLOAT = 8
STEP = FLOAT * oracle._SWEEP_CELLS  # bytes of one step's float64 array


def traced_peak(call) -> int:
    """Traced peak bytes of call(), run once before tracing to fill the lazy caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_block(k: int, *tables) -> int:
    """Bytes of one grid block's distributions and its value rows against each table."""
    return oracle._GRID_ROWS * ((1 << k) + sum(t.shape[0] for t in tables)) * FLOAT


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


def test_embedding_grid_phase_holds_one_lattice_product():
    fc = make_sqrt_card(3)
    disc = abstain_loss_table(fc)
    # the block being checked and the one before it, each with its rows
    # against the surrogate and the discrete table (27 reports each)
    bound = STEP + 2 * grid_block(3, disc, disc)
    assert traced_peak(lambda: verify_embedding(fc, 8)) < bound


def test_calibration_holds_one_block_of_perturbations_and_one_link_chunk():
    fc, k, n_perturb = make_jaccard(4), 4, 20
    table = abstain_loss_table(fc)
    pairs = max(oracle._argmin_mask(P @ table.T).sum() for P in oracle._grid_blocks(k, 4))
    draw = pairs * n_perturb * k * FLOAT  # one block's perturbed points, drawn whole as before
    bound = STEP + 2 * draw + grid_block(k, table)  # the draw and its sum with the report vectors
    assert traced_peak(lambda: calibration_sweep(fc, grid_m=4, n_perturb=n_perturb)) < bound


def test_block_domination_holds_its_table_and_one_step():
    g, codec, k = ClassCosts.from_setfn(make_sqrt_card(4)), BlockCodec(4), 4
    n = codec.d * k
    table = 3**n * codec.C**k * FLOAT  # the lifted loss table, labels in class-label order
    # a step: the fill's two float lookups and its uint16 outcome masks, or
    # the comparison's two row gathers
    bound = table + 4 * STEP
    assert traced_peak(lambda: multiclass.verify_block_domination(g, codec, k)) < bound


# ---------------------------------------------------------------------------
# Chunk boundaries: results do not depend on the step
# ---------------------------------------------------------------------------

# 16 lattice points, 128 linked points and 256 rows at C^k = 64 per step; and
# a step past every block, one product, link call and table per block.
CELLS = [1 << 14, 1 << 40]


def with_cells(monkeypatch, cells: int) -> None:
    monkeypatch.setattr(oracle, "_SWEEP_CELLS", cells)
    monkeypatch.setattr(multiclass, "_SWEEP_CELLS", cells)


def embedding_runs() -> dict:
    return {(k, name, m): verify_embedding(fc, m).to_dict()
            for k in (2, 3) for name, fc in builtin_collections(k).items() for m in (5, 8)}


def test_embedding_details_match_the_one_product_sweep(monkeypatch):
    """At k = 3 the 729 lattice points take three 256-point products per grid
    block, and the worst shortfall is the one-product value bit for bit. A
    16-point product rounds differently in the last bit (see
    oracle._SWEEP_CELLS), so there only the shortfall is held to a tolerance."""
    got = embedding_runs()
    with_cells(monkeypatch, 1 << 40)
    assert got == embedding_runs()
    with_cells(monkeypatch, 1 << 14)
    small = embedding_runs()
    shortfall = {key: rep["details"].pop("worst_lattice_shortfall") for key, rep in small.items()}
    assert shortfall == pytest.approx({key: rep["details"].pop("worst_lattice_shortfall")
                                       for key, rep in got.items()}, rel=0, abs=1e-15)
    assert small == got


@pytest.mark.parametrize("cells", CELLS)
def test_embedding_lattice_failure_does_not_depend_on_the_step(monkeypatch, cells):
    """A lattice point past the first sub-blocks beats the reports mid-grid."""
    fc = make_zero_one(3)
    disc = np.full((27, 8), 2.0)
    disc[0] = 1.0

    def lattice_values(fc, lat):
        vals = np.full((len(lat), 1 << fc.k), 2.0)
        vals[700, 1] = 1.0 - 1e-8
        return vals

    monkeypatch.setattr(oracle, "surrogate_loss_table", lambda fc: disc)
    monkeypatch.setattr(oracle, "abstain_loss_table", lambda fc: disc)
    monkeypatch.setattr(oracle, "_hinge_table", lattice_values)
    want = verify_embedding(fc, 8).to_dict()
    with_cells(monkeypatch, cells)
    got = verify_embedding(fc, 8).to_dict()
    assert not got["passed"] and got["witness"]["lattice_beats_reports"]
    assert got == want


def misfiring_link(monkeypatch, nth: int) -> None:
    """Patch the sweep's link_rows to send the nth point it links, counted over
    every call, to the all-abstain report at its last tau."""
    real, seen = links.link_rows, [0]

    def link_rows(us, eps, tau):
        pos, zeros = real(us, eps, tau)
        first, seen[0] = seen[0], seen[0] + len(us)
        if first <= nth < seen[0]:
            pos[nth - first, -1], zeros[nth - first, -1] = 0, (1 << us.shape[1]) - 1
        return pos, zeros

    monkeypatch.setattr(oracle, "link_rows", link_rows)


def calibration_runs(monkeypatch, nths) -> list[dict]:
    """calibration_sweep on the benchmark's two sweeps, then on Jaccard with a
    link that misfires at each point index of nths."""
    runs = [calibration_sweep(fc, grid_m=4, n_perturb=20, rng=np.random.default_rng([0, i])).to_dict()
            for i, fc in enumerate((make_sqrt_card(3), make_jaccard(3)))]
    for nth in nths:
        with monkeypatch.context() as patch:
            misfiring_link(patch, nth)
            runs.append(calibration_sweep(make_jaccard(3), grid_m=4, n_perturb=20,
                                          rng=np.random.default_rng([0, 1])).to_dict())
    return runs


@pytest.mark.parametrize("cells", CELLS)
def test_calibration_cases_and_witnesses_do_not_depend_on_the_step(monkeypatch, cells):
    nths = [5, 127, 128, 2047, 2048, 5000]  # inside and at the edges of 128- and 2,048-point chunks
    want = calibration_runs(monkeypatch, nths)
    with_cells(monkeypatch, cells)
    got = calibration_runs(monkeypatch, nths)
    assert [(r["passed"], r["cases"]) for r in got[:2]] == [(True, 26_040), (True, 34_080)]
    assert all(not r["passed"] and r["witness"]["linked"] == "000" for r in got[2:])
    assert [r["cases"] for r in got[2:]] == [3 * nth + 3 for nth in nths]
    assert got == want


def test_calibration_failure_draws_the_failing_step_only(monkeypatch):
    """Jaccard at k = 4, m = 4: the first grid block holds 1,568 optimal pairs,
    31,360 perturbed points. A misfire in the first step stops the sweep with
    the rng advanced by that step's 102 pairs of uniforms, not the block's."""
    fc, k, n_perturb = make_jaccard(4), 4, 20
    first_block = next(oracle._grid_blocks(k, 4))
    assert oracle._argmin_mask(first_block @ abstain_loss_table(fc).T).sum() == 1_568
    misfiring_link(monkeypatch, 5)
    rng = np.random.default_rng(3)
    report = calibration_sweep(fc, grid_m=4, n_perturb=n_perturb, rng=rng)
    assert not report.passed and report.cases == 3 * 5 + 3
    step = oracle._SWEEP_CELLS // oracle._LINK_CELLS // n_perturb * n_perturb
    assert step == 2_040
    want = np.random.default_rng(3)
    want.uniform(size=(step, k))
    assert rng.bit_generator.state == want.bit_generator.state


def domination_runs(monkeypatch) -> list[dict]:
    """Block domination on passing lifts, then on a C = 4, k = 3 lift with one
    loss raised deep in the table so that a late pair fails."""
    runs = [multiclass.verify_block_domination(g, BlockCodec(C), k).to_dict()
            for g, C, k in ((ClassCosts.from_setfn(make_sqrt_card(3)), 4, 3),
                            (ClassCosts(2, weights_by_class=np.arange(1.0, 9.0)), 8, 2))]
    real, v = multiclass._abstain_losses, AbstainReport.from_string("+-0000")

    def raised(fc, pos, zeros, y):
        losses = real(fc, pos, zeros, y)
        losses[np.ix_((pos == v.pos) & (zeros == v.zeros), y == 0b101101)] += 1.0
        return losses

    with monkeypatch.context() as patch:
        patch.setattr(multiclass, "_abstain_losses", raised)
        runs.append(multiclass.verify_block_domination(ClassCosts.from_setfn(make_sqrt_card(3)), BlockCodec(4),
                                                       3).to_dict())
    return runs


@pytest.mark.parametrize("cells", CELLS)
def test_block_domination_cases_and_witness_do_not_depend_on_the_step(monkeypatch, cells):
    want = domination_runs(monkeypatch)
    with_cells(monkeypatch, cells)
    got = domination_runs(monkeypatch)
    assert [(r["passed"], r["cases"]) for r in got[:2]] == [(True, 62_208), (True, 62_208)]
    assert not got[2]["passed"] and got[2]["cases"] > 256 * 64  # past the first 256-row step
    assert got == want
