"""JSON formats for set functions and collections.

Set function objects: {"k", "kind": "table"|"modular"|"zero_one"|"concave_card",
"values"|"weights"|"exponent"}. Collections: {"k", "symmetric", "per_label":
{"<label bitmask>": <set function object>}}, or {"kind": "jaccard", "k"} for
the label-indexed Jaccard family, which loads for 1 <= k <= 62 as a
collection read from its rule (no table is built; its dense views stop at
k = 12). A bare set function object also loads as a symmetric collection.

Writers emit the spec a set function or collection carries, and tables only
when it carries none. make_modular, make_zero_one and make_jaccard record a
spec, as does this loader for the non-table kinds; a symmetric collection
keeps its {"k", "symmetric", "per_label": {"0": ...}} shape with the spec
inside. Table files still load, and the table and spec forms of a family load
to bit-identical values. Tables load into one value matrix; a label key
outside [0, 2^k), a NaN or infinite entry (SetFunction refuses it) or an
object missing a field it needs is a ValueError naming the label, the subset or
the field; JSON that is not an object where one is expected is one showing it.
"""

from __future__ import annotations

import json
import reprlib
from pathlib import Path

from ._args import real
from .setfn import (
    PolymatroidCollection,
    SetFunction,
    _checked_k,
    as_collection,
    make_concave_card,
    make_jaccard,
    make_modular,
    make_zero_one,
)


def _field(obj: dict, name: str, what: str):
    """obj[name], or a ValueError naming the kind of object and the missing field."""
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f"{what} object has no {name!r} field") from None


def _object(obj, what: str) -> dict:
    """obj itself when it is a JSON object, else a ValueError that shows it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {reprlib.repr(obj)}")
    return obj


def setfn_to_obj(f: SetFunction) -> dict:
    if f.spec is not None:
        return dict(f.spec)
    return {"k": f.k, "kind": "table", "values": f.values.tolist()}


def setfn_from_obj(obj: dict) -> SetFunction:
    kind = _object(obj, "a set function").get("kind", "table")
    if kind == "table":
        values = _field(obj, "values", kind)  # read first: it names "values" when k is missing too
        return SetFunction.from_values(_field(obj, "k", kind), values)
    if kind == "modular":
        return make_modular(_field(obj, "weights", kind))
    if kind == "zero_one":
        return make_zero_one(_field(obj, "k", kind))
    if kind == "concave_card":
        k = _checked_k(_field(obj, "k", kind))
        exponent = float(real(obj.get("exponent", 0.5), "exponent", "(0, 1]"))
        f = make_concave_card(k, lambda c: float(c) ** exponent)
        return SetFunction(k, f.values, {"k": k, "kind": "concave_card", "exponent": exponent})
    if kind == "jaccard":
        raise ValueError("the jaccard family is label-indexed; load it as a collection")
    raise ValueError(f"unknown set function kind {kind!r}")


def collection_to_obj(fc) -> dict:
    fc = as_collection(fc)
    if fc.spec is None:
        labels = [0] if fc.symmetric else fc.labels()
        per_label = {str(y): setfn_to_obj(fc.for_label(y)) for y in labels}
    elif fc.symmetric:  # a set function's spec, kept in the symmetric shape
        per_label = {"0": dict(fc.spec)}
    else:
        return dict(fc.spec)
    return {"k": fc.k, "symmetric": fc.symmetric, "per_label": per_label}


def collection_from_obj(obj: dict) -> PolymatroidCollection:
    if _object(obj, "a collection").get("kind") == "jaccard":
        return make_jaccard(_field(obj, "k", "jaccard"))
    if "per_label" not in obj:  # a bare set function doubles as a symmetric collection
        return PolymatroidCollection.from_setfn(setfn_from_obj(obj))
    k = _checked_k(_field(obj, "k", "collection"))
    per = {}
    for key, sub in _object(obj["per_label"], "per_label").items():
        try:
            per[int(key)] = setfn_from_obj(sub)
        except ValueError as exc:  # name the label whose table is bad
            raise ValueError(f"label {key}: {exc}") from None
    fc = PolymatroidCollection.from_per_label(k, per)  # checks every label key and table size
    if obj.get("symmetric", False):
        if len(per) != 1:
            raise ValueError("a symmetric collection must carry exactly one table")
        return PolymatroidCollection.from_setfn(next(iter(per.values())))
    return fc


def load_setfn(path) -> SetFunction:
    return setfn_from_obj(json.loads(Path(path).read_text()))


def load_collection(path) -> PolymatroidCollection:
    return collection_from_obj(json.loads(Path(path).read_text()))


def save_setfn(f: SetFunction, path) -> None:
    Path(path).write_text(json.dumps(setfn_to_obj(f)))


def save_collection(fc: PolymatroidCollection, path) -> None:
    Path(path).write_text(json.dumps(collection_to_obj(fc)))
