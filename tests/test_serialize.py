import json

import numpy as np
import pytest

from lovasz_abstain import make_jaccard, make_modular, make_sqrt_card, make_zero_one
from lovasz_abstain.serialize import (
    collection_from_obj,
    collection_to_obj,
    load_collection,
    load_setfn,
    save_collection,
    save_setfn,
    setfn_from_obj,
    setfn_to_obj,
)


def test_setfn_round_trip(tmp_path):
    f = make_sqrt_card(3)
    path = tmp_path / "f.json"
    save_setfn(f, path)
    g = load_setfn(path)
    assert g.k == 3 and np.allclose(g.values, f.values)


def test_setfn_kinds():
    assert np.allclose(setfn_from_obj({"kind": "modular", "weights": [1, 2]}).values,
                       make_modular([1, 2]).values)
    assert np.allclose(setfn_from_obj({"kind": "zero_one", "k": 2}).values,
                       make_zero_one(2).values)
    cc = setfn_from_obj({"kind": "concave_card", "k": 3, "exponent": 0.5})
    assert np.allclose(cc.values, make_sqrt_card(3).values)
    with pytest.raises(ValueError):
        setfn_from_obj({"kind": "concave_card", "k": 3, "exponent": 2.0})
    with pytest.raises(ValueError):
        setfn_from_obj({"kind": "jaccard", "k": 3})
    with pytest.raises(ValueError):
        setfn_from_obj({"kind": "mystery", "k": 3})


def test_collection_round_trip(tmp_path):
    jac = make_jaccard(2)
    path = tmp_path / "jac.json"
    save_collection(jac, path)
    back = load_collection(path)
    for y in range(4):
        assert np.allclose(back.for_label(y).values, jac.for_label(y).values)


def test_collection_shorthands():
    fc = collection_from_obj({"kind": "jaccard", "k": 2})
    assert not fc.symmetric
    bare = collection_from_obj({"kind": "zero_one", "k": 2})
    assert bare.symmetric
    sym = collection_from_obj(collection_to_obj(bare))
    assert sym.symmetric and np.allclose(sym.for_label(3).values, make_zero_one(2).values)
    with pytest.raises(ValueError):
        collection_from_obj({"k": 2, "symmetric": True, "per_label": {
            "0": setfn_to_obj(make_zero_one(2)), "1": setfn_to_obj(make_zero_one(2))}})


def test_collection_json_is_plain(tmp_path):
    path = tmp_path / "c.json"
    save_collection(make_sqrt_card(2), path)
    obj = json.loads(path.read_text())
    assert set(obj) == {"k", "symmetric", "per_label"}


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_table_entries_are_rejected(bad):
    """JSON NaN/Infinity in a table names the subset, and in a collection the label too."""
    table = f'{{"k": 2, "kind": "table", "values": [0, 1, 1, {bad}]}}'
    word = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[bad]
    with pytest.raises(ValueError, match=f"^non-finite value {word} at S=0x3$"):
        setfn_from_obj(json.loads(table))
    coll = f'{{"k": 2, "symmetric": false, "per_label": {{"0": {table}, "2": {table}}}}}'
    with pytest.raises(ValueError, match=f"^label 0: non-finite value {word} at S=0x3$"):
        collection_from_obj(json.loads(coll))
    with pytest.raises(ValueError, match=f"^label 0: non-finite value {word} at S=0x3$"):
        collection_from_obj(json.loads(f'{{"k": 2, "symmetric": true, "per_label": {{"0": {table}}}}}'))
