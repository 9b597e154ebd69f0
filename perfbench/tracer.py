"""Layer spans recorded from outside the package, by wrapping its functions.

Every public module-level function of each layer module is replaced by a
wrapper that records a span (stage, parent, start, end) while tracing is on.
Names that other modules bound at import (``bench.hinge_subgradient``,
``oracle.threshold_abstain_link``, ...) are rebound to the same wrappers, so
calls that cross layers are seen too. The wrapper's own bookkeeping is timed
apart from the call, so it is charged to no layer: a layer's self time is the
time of its spans minus the time covered by their child spans, bookkeeping
included. The bookkeeping shows up only in the tracing overhead.

Spans of the current pass are kept in flat arrays; ``end_pass`` folds them
into per-pass layer figures and per-stage totals and clears the arrays, so
memory stays bounded however long a run is.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array

import numpy as np

PACKAGE = "lovasz_abstain"
LAYERS = ("setfn", "lovasz", "targets", "links", "oracle", "multiclass", "bench", "serialize", "cli")

# One-line numpy helpers that other layers call inside their hot loops. A span
# around them would cost more than the work it measures; their time is charged
# to the calling span instead.
UNTRACED = frozenset({
    "setfn.as_collection", "setfn.popcounts", "setfn.label_signs_table",
    "lovasz.clip", "lovasz.descending_order", "links.sign_star",
})

# Private names traced anyway: the method whose output gives setfn.table_bytes,
# and the trainer's per-sample subgradient loop.
EXTRA = (("setfn", "PolymatroidCollection.table_matrix"), ("bench", "_mean_subgradient"))

# Functions whose calls process points; rows are counted on entry to the layer
# only, so a nested call inside the same layer is not counted twice.
ROW_STAGES = frozenset({
    "lovasz.lovasz_extension", "lovasz.extension_batch", "lovasz.hinge", "lovasz.hinge_batch",
    "lovasz.hinge_subgradient", "lovasz.expected_hinge",
    "links.envelope", "links.envelope_detailed", "links.threshold_abstain_link",
    "links.naive_threshold_link", "links.envelope_oracle", "links.face_distances",
    "links.envelope_members_gap", "links.envelope_members_oracle", "links.envelope_nonempty_batch",
})

# Generators get no span (it would end before the first item); their items
# are counted under these names.
GENERATOR_COUNTS = {"oracle.grid_distributions": "oracle.distributions"}

# lru caches of the links layer whose cache_info() gives links.cache_hit_ratio.
CACHES = ("chain_faces", "_report_id_table", "_face_member_matrix")


def _rows(args) -> int:
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
    return 1


class Tracer:
    def __init__(self):
        self.on = False
        self.stages: list[str] = []
        self.stage_layer: list[int] = []
        self.ids = array("i")
        self.parents = array("i")
        self.cstart = array("d")
        self.start = array("d")
        self.end = array("d")
        self.cend = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.passes: list[dict[str, float]] = []
        self.stage_seconds: dict[int, float] = {}
        self.stage_self: dict[int, float] = {}
        self.stage_calls: dict[int, int] = {}
        self._cache_base: list[tuple[int, int]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind every name bound to one."""
        mods = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        self.links = mods["links"]
        self.lovasz = mods["lovasz"]
        replaced = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                stage = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and stage not in UNTRACED):
                    replaced[obj] = self._wrap(obj, stage, layer)
        for layer, dotted in EXTRA:
            owner, _, attr = dotted.rpartition(".")
            target = getattr(mods[layer], owner) if owner else mods[layer]
            fn = getattr(target, attr)
            wrapper = self._wrap(fn, f"{layer}.{dotted}", layer)
            if owner:
                setattr(target, attr, wrapper)
            else:
                replaced[fn] = wrapper
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(mod, attr, replaced[obj])

    def _wrap(self, fn, stage: str, layer: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, GENERATOR_COUNTS[stage])
        stage_id = len(self.stages)
        self.stages.append(stage)
        self.stage_layer.append(LAYERS.index(layer))
        counter = self._counter(stage, layer)
        tracer = self
        ids, parents, stack = self.ids, self.parents, self.stack
        cstart, start, end, cend = self.cstart, self.start, self.end, self.cend
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            c0 = clock()
            idx = len(ids)
            parent = stack[-1]
            ids.append(stage_id)
            parents.append(parent)
            cstart.append(c0)
            start.append(0.0)
            end.append(0.0)
            cend.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                cend[idx] = t1
            if counter is not None:
                counter(idx, parent, args, result)
            cend[idx] = clock()
            return result

        return wrapper

    def _wrap_generator(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.on:
                    tracer.add(key, 1)
                yield item

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _layer_of_span(self, idx: int) -> int:
        return self.stage_layer[self.ids[idx]] if idx >= 0 else -1

    def _counter(self, stage: str, layer: str):
        """The per-call counter of a stage, or None; runs outside the span."""
        layer_idx = LAYERS.index(layer)
        add = self.add
        parts = []
        if stage in ROW_STAGES:
            key = f"{layer}.rows"

            def rows(idx, parent, args, result):
                if self._layer_of_span(parent) != layer_idx:
                    add(key, _rows(args))
            parts.append(rows)
        if stage == "lovasz.hinge_subgradient":
            def active(idx, parent, args, result):
                u = np.asarray(args[1], dtype=float)
                yv = self.lovasz._label_vec(args[2], len(u))
                add("lovasz.active", int(np.count_nonzero(1.0 - u * yv > 0.0)))
                add("lovasz.coords", len(u))
            parts.append(active)
        if stage == "links.face_distances":
            def faces(idx, parent, args, result):
                add("links.face_rows", result.size)
            parts.append(faces)
        if stage == "setfn.PolymatroidCollection.table_matrix":
            def table(idx, parent, args, result):
                add("setfn.table_bytes", result.nbytes if result.flags.owndata else 0)
            parts.append(table)
        if stage in ("targets.abstain_loss_table", "targets.plain_loss_table"):
            def cells(idx, parent, args, result):
                add("targets.table_cells", result.size)
            parts.append(cells)
        if layer in ("oracle", "multiclass"):
            key = f"{layer}.cases"

            def cases(idx, parent, args, result):
                if hasattr(result, "cases") and hasattr(result, "passed"):
                    add(key, result.cases)
            parts.append(cases)
        if stage == "bench.metrics":
            def pairs(idx, parent, args, result):
                if hasattr(args[0], "__len__"):
                    add("bench.metric_pairs", len(args[0]))
            parts.append(pairs)
        if stage == "bench.train":
            lovasz_idx = LAYERS.index("lovasz")

            def per_epoch(idx, parent, args, result):
                inner = np.frombuffer(self.ids, dtype=np.int32)[idx + 1:]
                layers = np.asarray(self.stage_layer, dtype=np.int32)[inner]
                add("bench.lovasz_calls", int(np.count_nonzero(layers == lovasz_idx)))
                add("bench.epochs", args[0].epochs)
            parts.append(per_epoch)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]

        def all_parts(idx, parent, args, result):
            for part in parts:
                part(idx, parent, args, result)
        return all_parts

    # -- passes -------------------------------------------------------------

    def _cache_totals(self) -> list[tuple[int, int]]:
        out = []
        for name in CACHES:
            info = getattr(self.links, name).cache_info()
            out.append((info.hits, info.misses))
        return out

    def begin_pass(self) -> None:
        self.counts = {}
        self._cache_base = self._cache_totals()
        self.on = True

    def end_pass(self, extra: dict[str, float]) -> None:
        """Fold the pass's spans into its per-layer figures and clear them."""
        self.on = False
        n = len(self.ids)
        ids = np.frombuffer(self.ids, dtype=np.int32, count=n).copy()
        parents = np.frombuffer(self.parents, dtype=np.int32, count=n).copy()
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        cover = np.frombuffer(self.cend, count=n) - np.frombuffer(self.cstart, count=n)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=cover[nested], minlength=n)
        self_t = dur - child
        for arr in (self.ids, self.parents, self.cstart, self.start, self.end, self.cend):
            del arr[:]
        n_stages = len(self.stages)
        for sid, sec, own, calls in zip(
            range(n_stages),
            np.bincount(ids, weights=dur, minlength=n_stages),
            np.bincount(ids, weights=self_t, minlength=n_stages),
            np.bincount(ids, minlength=n_stages),
        ):
            if calls:
                self.stage_seconds[sid] = self.stage_seconds.get(sid, 0.0) + float(sec)
                self.stage_self[sid] = self.stage_self.get(sid, 0.0) + float(own)
                self.stage_calls[sid] = self.stage_calls.get(sid, 0) + int(calls)
        span_layer = np.asarray(self.stage_layer, dtype=np.int64)[ids]
        layer_self = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))
        layer_calls = np.bincount(span_layer, minlength=len(LAYERS))
        c = self.counts
        row = {}
        for i, layer in enumerate(LAYERS):
            row[f"{layer}.calls"] = float(layer_calls[i])
            row[f"{layer}.self_s"] = float(layer_self[i])
        row["lovasz.rows"] = c.get("lovasz.rows", 0.0)
        row["lovasz.active_frac"] = c.get("lovasz.active", 0.0) / c["lovasz.coords"] if c.get("lovasz.coords") else 0.0
        row["bench.lovasz_calls_per_epoch"] = c.get("bench.lovasz_calls", 0.0) / c["bench.epochs"] if c.get("bench.epochs") else 0.0
        row["setfn.table_bytes"] = c.get("setfn.table_bytes", 0.0)
        row["links.rows"] = c.get("links.rows", 0.0)
        row["links.face_rows"] = c.get("links.face_rows", 0.0)
        hits = misses = 0
        for (h0, m0), (h1, m1) in zip(self._cache_base, self._cache_totals()):
            hits += h1 - h0
            misses += m1 - m0
        row["links.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for key in ("bench.metric_pairs", "targets.table_cells", "oracle.cases",
                    "oracle.distributions", "multiclass.cases"):
            row[key] = c.get(key, 0.0)
        row.update(extra)
        self.passes.append(row)

    def write_jsonl(self, path) -> None:
        """One line per traced stage (totals over all traced passes), then one
        per layer (self time and calls in total, its metrics as per-pass
        medians), in the {stage, seconds, n, counters} shape."""
        with open(path, "w") as fh:
            for sid in sorted(self.stage_calls, key=lambda s: -self.stage_self[s]):
                fh.write(json.dumps({
                    "stage": self.stages[sid],
                    "seconds": self.stage_seconds[sid],
                    "n": self.stage_calls[sid],
                    "counters": {"self_s": self.stage_self[sid],
                                 "layer": LAYERS[self.stage_layer[sid]]},
                }) + "\n")
            for layer in LAYERS:
                fh.write(json.dumps({
                    "stage": f"layer:{layer}",
                    "seconds": sum(p[f"{layer}.self_s"] for p in self.passes),
                    "n": int(sum(p[f"{layer}.calls"] for p in self.passes)),
                    "counters": {k: statistics.median(p[k] for p in self.passes)
                                 for k in self.passes[0] if k.startswith(layer + ".")},
                }) + "\n")
