"""Every collection survives its JSON file bit for bit, in spec or table form.

Constructors the loader can call again in exactly the same way record a spec
and are written as that spec; everything else is written as tables, in the
same bytes as the table-only writer this module keeps a copy of. A table-form
Jaccard file written by that writer still loads to make_jaccard's values.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovasz_abstain import make_jaccard, make_modular, make_sqrt_card, make_zero_one
from lovasz_abstain.multiclass import BlockCodec, ClassCosts, lift_polymatroid, onehot_lift, ova_jaccard_costs
from lovasz_abstain.serialize import (
    collection_from_obj,
    collection_to_obj,
    load_collection,
    setfn_from_obj,
    setfn_to_obj,
)
from lovasz_abstain.setfn import (
    PolymatroidCollection,
    SetFunction,
    as_collection,
    random_collection,
    random_polymatroid,
)

JACCARD5_TABLES = Path(__file__).parent / "data" / "jaccard5_tables.json"


def table_collection_to_obj(fc):
    """The collection writer from before specs: tables for every label, or one if symmetric."""
    labels = [0] if fc.symmetric else fc.labels()
    return {"k": fc.k, "symmetric": fc.symmetric,
            "per_label": {str(y): {"k": fc.k, "kind": "table", "values": fc.for_label(y).values.tolist()}
                          for y in labels}}


def concave_card(k, exponent):
    return setfn_from_obj({"kind": "concave_card", "k": k, "exponent": exponent})


def spec_cases():
    """(id, collection or set function, the spec it should write)."""
    for w in ([1, 1], [0.3, 1.0, 0.0, 2.5], [0.1, 1e-300, 7.25, 1 / 3, 2.0]):
        yield f"modular{len(w)}", make_modular(w), {"k": len(w), "kind": "modular", "weights": [float(x) for x in w]}
    for k in (1, 3, 6):
        yield f"zero-one{k}", make_zero_one(k), {"k": k, "kind": "zero_one"}
    for k, e in ((1, 0.5), (4, 0.5), (7, 1 / 3), (9, 1.0)):
        yield f"concave-card{k}-{e:.3f}", concave_card(k, e), {"k": k, "kind": "concave_card", "exponent": e}
    for k in range(1, 11):
        yield f"jaccard{k}", make_jaccard(k), {"kind": "jaccard", "k": k}


def table_cases():
    """(id, collection or set function) for constructors that record no spec."""
    yield "sqrt-card5", make_sqrt_card(5)
    yield "random3", random_collection(3, np.random.default_rng(5))
    yield "random-symmetric4", random_collection(4, np.random.default_rng(6), symmetric=True)
    rng = np.random.default_rng(9)
    tables = np.array([random_polymatroid(3, rng).values for _ in range(3)])
    yield "from-tables-partial3", PolymatroidCollection.from_tables(3, [6, 0, 3], tables)
    yield "lift-shared", lift_polymatroid(ClassCosts.from_setfn(make_sqrt_card(2)), BlockCodec(4), 2)
    yield "lift-weights", lift_polymatroid(ClassCosts(2, weights_by_class=[1.0, 2.0, 0.5, 3.0]), BlockCodec(4), 2)
    yield "onehot-partial", onehot_lift(ova_jaccard_costs(3, 2), 3, 2)


SPEC_CASES = list(spec_cases())
TABLE_CASES = list(table_cases())


def reloaded(fc):
    return collection_from_obj(json.loads(json.dumps(collection_to_obj(fc))))


def assert_same_collection(got, want):
    assert got.k == want.k
    assert np.array_equal(got.values, want.values) and np.array_equal(got.rows, want.rows)
    assert got.symmetric == want.symmetric and got.labels() == want.labels()


@pytest.mark.parametrize("fc, spec", [(fc, spec) for _, fc, spec in SPEC_CASES],
                         ids=[name for name, _, _ in SPEC_CASES])
def test_spec_built_collections_round_trip_through_their_spec(fc, spec):
    fc = as_collection(fc)
    obj = json.loads(json.dumps(collection_to_obj(fc)))
    if fc.symmetric:
        assert obj == {"k": fc.k, "symmetric": True, "per_label": {"0": spec}}
    else:
        assert obj == spec
    assert_same_collection(reloaded(fc), fc)


@pytest.mark.parametrize("fc", [fc for _, fc in TABLE_CASES], ids=[name for name, _ in TABLE_CASES])
def test_table_built_collections_round_trip_as_tables(fc):
    fc = as_collection(fc)
    assert fc.spec is None
    assert json.dumps(collection_to_obj(fc)) == json.dumps(table_collection_to_obj(fc))
    assert_same_collection(reloaded(fc), fc)


SETFN_CASES = [(name, f) for name, f, *_ in SPEC_CASES + TABLE_CASES if isinstance(f, SetFunction)]


@pytest.mark.parametrize("f", [f for _, f in SETFN_CASES], ids=[name for name, _ in SETFN_CASES])
def test_set_functions_round_trip(f):
    back = setfn_from_obj(json.loads(json.dumps(setfn_to_obj(f))))
    assert np.array_equal(back.values, f.values)
    assert json.dumps(setfn_to_obj(back)) == json.dumps(setfn_to_obj(f))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False, allow_subnormal=True), min_size=1, max_size=8),
       st.integers(1, 10), st.floats(1e-3, 1.0))
def test_modular_and_concave_specs_round_trip_bit_for_bit(w, k, exponent):
    for fc in (as_collection(make_modular(w)), as_collection(concave_card(k, exponent))):
        assert_same_collection(reloaded(fc), fc)


def test_table_form_jaccard_files_still_load():
    """The k = 5 file is what the table-only writer wrote for make_jaccard(5)."""
    text = JACCARD5_TABLES.read_text()
    fc = load_collection(JACCARD5_TABLES)
    assert_same_collection(fc, make_jaccard(5))
    assert fc.spec is None and json.dumps(collection_to_obj(fc)) == text

