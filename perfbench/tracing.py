"""Span tracing by wrapping the library's public functions and methods.

Nothing under ``src/`` is edited: :func:`install` swaps each traced
function for a wrapper in every ``adabloom`` module namespace that holds
it (the modules import each other with ``from .x import y``, so each
binding has to be replaced) and swaps traced methods on their classes.
:func:`uninstall` puts the originals back.

Each span records a name, a start and an end (``perf_counter_ns``), the
index of its parent span and a tag. The tag is a cell id (a sweep cell,
one method at one budget), a batch id or a pass id, so spans that serve
one unit of work can be grouped. Spans stay in memory until
:meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import zlib
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

WIDE_K = 64  # k above this takes the outer-product path in bits.py


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tags: list[str | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.tag: str | None = None
        self.enabled = True
        self._stack: list[int] = []
        self._group_keys: set = set()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tags.append(self.tag)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """A benchmark-level span; ``tag`` applies to it and everything under it."""
        saved = self.tag
        if tag is not None:
            self.tag = tag
        idx = self.open(name) if self.enabled else -1
        try:
            yield
        finally:
            if idx >= 0:
                self.close(idx)
            self.tag = saved

    def note_group_call(self, thresholds, scores: np.ndarray) -> None:
        scores = np.ascontiguousarray(scores)
        key = (tuple(thresholds), scores.dtype.str, scores.size, zlib.crc32(scores))
        if key in self._group_keys:
            self.counters["scores.group.redundant"] += 1
        else:
            self._group_keys.add(key)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds, self seconds."""
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.ends[idx] - self.starts[idx]
            row["count"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[idx]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.names, "start_ns": self.starts, "end_ns": self.ends,
                       "parent": self.parents, "tag": self.tags}, fh)


# Counters taken at each boundary: (tracer, args, kwargs, result) -> None.

def _count_hash(tr, args, kwargs, result):
    tr.counters["bits.hash.items"] += len(result[0])


def _k_of(args, kwargs) -> int:
    return int(kwargs["k"] if "k" in kwargs else args[3])


def _count_insert(tr, args, kwargs, result):
    k = _k_of(args, kwargs)
    tr.counters["bits.insert.probes"] += len(args[1]) * k
    tr.counters["bits.insert.wide_calls"] += k > WIDE_K


def _count_probe(tr, args, kwargs, result):
    k = _k_of(args, kwargs)
    tr.counters["bits.probe.items"] += len(args[1])
    tr.counters["bits.probe.wide_calls"] += k > WIDE_K
    tr.counters["bits.probe.k_max"] = max(tr.counters["bits.probe.k_max"], k)


def _count_scalar(tr, args, kwargs, result):
    tr.counters["bits.scalar.calls"] += 1


def _count_csv(tr, args, kwargs, result):
    tr.counters["scores.csv_load.rows"] += len(result)


def _count_group(tr, args, kwargs, result):
    tr.counters["scores.group.items"] += len(result)
    tr.note_group_call(args[0].thresholds, args[1])


def _count_query(layer):
    def count(tr, args, kwargs, result):
        tr.counters[f"{layer}.query.items"] += len(result)
    return count


def _count_tune(name):
    def count(tr, args, kwargs, result):
        tr.counters[f"tuning.{name}.candidates"] += len(result.candidates)
        tr.counters["tuning.skipped"] += sum(
            1 for c in result.candidates if c["status"].startswith("skipped"))
    return count


def _count_cells(tr, args, kwargs, result):
    tr.counters["bench.cells"] += len(result)


def _count_dump(tr, args, kwargs, result):
    tr.counters["serialize.bytes"] += len(result)


def _cell_tag(method):
    """Sweep cells are the tuner calls (and the standard build) made by run_sweep."""
    def tag(args, kwargs):
        bits = kwargs.get("bitmap_bits", args[1] if len(args) > 1 else "?")
        return f"cell:{method}@{bits}"
    return tag


def _targets(ab):
    """(owner, attribute, span name, counter, cell tagger) for every traced call."""
    return [
        (ab.bits.HashFamily, "base_pairs", "bits.hash", _count_hash, None),
        (ab.bits.BitVector, "set_hashed", "bits.insert", _count_insert, None),
        (ab.bits.BitVector, "test_hashed", "bits.probe", _count_probe, None),
        (ab.bits.HashFamily, "indices", "bits.scalar", None, None),
        (ab.bits.BitVector, "test_bits", "bits.scalar", _count_scalar, None),
        (ab.scores, "gen_synthetic", "scores.gen", None, None),
        (ab.scores, "load_scored_csv", "scores.csv_load", _count_csv, None),
        (ab.scores, "partition_by_ratio", "scores.partition", None, None),
        (ab.scores.ScorePartition, "group_indices", "scores.group", _count_group, None),
        (ab.standard, "build_standard", "standard.build", None, _cell_tag("standard")),
        (ab.learned, "build_lbf", "learned.build_lbf", None, None),
        (ab.learned, "build_sandwiched", "learned.build_sandwiched", None, None),
        (ab.adaptive, "build_ada", "adaptive.build", None, None),
        (ab.disjoint, "build_disjoint", "disjoint.build", None, None),
        (ab.standard.StandardBloom, "contains_batch", "standard.query",
         _count_query("standard"), None),
        (ab.learned.LearnedBloom, "contains_batch", "learned.query",
         _count_query("learned"), None),
        (ab.learned.SandwichedBloom, "contains_batch", "learned.query",
         _count_query("learned"), None),
        (ab.adaptive.AdaptiveBloom, "contains_batch", "adaptive.query",
         _count_query("adaptive"), None),
        (ab.disjoint.DisjointBloom, "contains_batch", "disjoint.query",
         _count_query("disjoint"), None),
        (ab.tuning, "tune_lbf", "tuning.tune_lbf", _count_tune("tune_lbf"), _cell_tag("lbf")),
        (ab.tuning, "tune_sandwiched", "tuning.tune_sandwiched",
         _count_tune("tune_sandwiched"), _cell_tag("sandwich")),
        (ab.tuning, "tune_ada", "tuning.tune_ada", _count_tune("tune_ada"), _cell_tag("ada")),
        (ab.tuning, "tune_disjoint", "tuning.tune_disjoint", _count_tune("tune_disjoint"),
         _cell_tag("disjoint")),
        (ab.bench, "run_sweep", "bench.sweep", _count_cells, None),
        (ab.serialize, "dump_filter", "serialize.dump", _count_dump, None),
        (ab.serialize, "loads_filter", "serialize.load", None, None),
    ]


def _wrap(tracer: Tracer, fn, name: str, count, cell_tag):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if cell_tag is not None and tracer.parent_name() == "bench.sweep":
            # the tag stays set after the tuner returns, so run_sweep's
            # measurement of this cell's filter carries the same cell id
            tracer.tag = cell_tag(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, ab) -> list[tuple[object, str, object]]:
    """Wrap every traced call; returns the patch list for :func:`uninstall`."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "adabloom" or name.startswith("adabloom."))]
    patches = []
    for owner, attr, name, count, cell_tag in _targets(ab):
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, original, name, count, cell_tag)
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    spans = tracer.summary()
    c = tracer.counters

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("count", 0)

    m: dict[str, tuple[float, str]] = {}
    m["bits.hash.items"] = (c["bits.hash.items"], "count")
    m["bits.hash.s"] = (total("bits.hash"), "s")
    m["bits.hash.ns_per_item"] = (_ratio(total("bits.hash"), c["bits.hash.items"], 1e9), "ns")
    m["bits.insert.probes"] = (c["bits.insert.probes"], "count")
    m["bits.insert.s"] = (total("bits.insert"), "s")
    m["bits.insert.ns_per_probe"] = (
        _ratio(total("bits.insert"), c["bits.insert.probes"], 1e9), "ns")
    m["bits.insert.wide_calls"] = (c["bits.insert.wide_calls"], "count")
    m["bits.probe.items"] = (c["bits.probe.items"], "count")
    m["bits.probe.s"] = (total("bits.probe"), "s")
    m["bits.probe.ns_per_item"] = (_ratio(total("bits.probe"), c["bits.probe.items"], 1e9), "ns")
    m["bits.probe.wide_calls"] = (c["bits.probe.wide_calls"], "count")
    m["bits.probe.k_max"] = (c["bits.probe.k_max"], "count")
    m["bits.scalar.calls"] = (c["bits.scalar.calls"], "count")
    m["bits.scalar.s"] = (total("bits.scalar"), "s")
    m["scores.gen.s"] = (total("scores.gen"), "s")
    m["scores.csv_load.rows"] = (c["scores.csv_load.rows"], "count")
    m["scores.csv_load.s"] = (total("scores.csv_load"), "s")
    m["scores.partition.calls"] = (calls("scores.partition"), "count")
    m["scores.partition.s"] = (total("scores.partition"), "s")
    m["scores.group.calls"] = (calls("scores.group"), "count")
    m["scores.group.items"] = (c["scores.group.items"], "count")
    m["scores.group.s"] = (total("scores.group"), "s")
    m["scores.group.redundant_share"] = (
        _ratio(c["scores.group.redundant"], calls("scores.group")), "fraction")
    for layer in ("standard.build", "learned.build_lbf", "learned.build_sandwiched",
                  "adaptive.build", "disjoint.build"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.s"] = (total(layer), "s")
    for module in ("standard", "learned", "adaptive", "disjoint"):
        m[f"{module}.query.items"] = (c[f"{module}.query.items"], "count")
        m[f"{module}.query.s"] = (self_s(f"{module}.query"), "s")
    candidates = 0.0
    for fn in ("tune_lbf", "tune_sandwiched", "tune_ada", "tune_disjoint"):
        m[f"tuning.{fn}.s"] = (total(f"tuning.{fn}"), "s")
        m[f"tuning.{fn}.candidates"] = (c[f"tuning.{fn}.candidates"], "count")
        candidates += c[f"tuning.{fn}.candidates"]
    m["tuning.skipped_share"] = (_ratio(c["tuning.skipped"], candidates), "fraction")
    m["bench.cells"] = (c["bench.cells"], "count")
    m["bench.sweep.self_s"] = (self_s("bench.sweep"), "s")
    m["serialize.dump.s"] = (total("serialize.dump"), "s")
    m["serialize.load.s"] = (total("serialize.load"), "s")
    m["serialize.bytes"] = (c["serialize.bytes"], "bytes")
    m["trace.spans"] = (len(tracer.names), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
