"""The benchmark's three workloads: sweep, build and query.

Each workload has a set-up (timed several times by the runner), a pass
(repeated by the runner), untimed checks after each pass, and a summary
with its false positive rates and a results fingerprint. A pass is made of
units (a sweep cell, one filter build, one query batch), each timed on the
shared :class:`clock.Clock`, which scales it to the reference speed.
Every input is generated from the workload seed. All calls go through
the ``adabloom`` package namespace, so the tracer's wrappers see them.

Failures are counted, never raised: an exception, a non-``ok*`` sweep
cell, a false negative, a scalar/batch disagreement or a loaded filter
answering differently from the saved one each add one failed operation.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
import traceback

import numpy as np

import adabloom as ab

METHODS = ("standard", "lbf", "sandwich", "ada", "disjoint")

# Fixed build parameters of the build and query workloads (no tuning).
TAU = 0.5
ADA_KMAX, ADA_C = 8, 2.0  # k_min = 0, so g = 9
DISJOINT_G, DISJOINT_C = 8, 2.0

# Sizes per workload; "smoke" keeps the same shapes at a size that runs in
# seconds. Budgets keep the same bits per key in both. The build and query
# datasets hold many non-keys because the fixed-parameter ada and disjoint
# filters accept their top score group outright: their FPR is mostly that
# group's non-key share, cut from the dataset's non-keys, and few non-keys
# make that cut (and the FPR) vary from seed to seed.
SIZES = {
    "full": {
        "sweep": {"keys": 50_000, "nonkeys": 50_000, "budgets": (150_000, 300_000)},
        "build": {"keys": 100_000, "nonkeys": 200_000, "bits_per_key": 10, "fresh": 400_000},
        "query": {"keys": 50_000, "nonkeys": 200_000, "budget": 300_000, "batch": 10_000,
                  "batches": 32, "scalar": 2_000},
    },
    "smoke": {
        "sweep": {"keys": 2_000, "nonkeys": 2_000, "budgets": (6_000, 12_000)},
        "build": {"keys": 4_000, "nonkeys": 2_000, "bits_per_key": 10, "fresh": 8_000},
        "query": {"keys": 2_000, "nonkeys": 2_000, "budget": 12_000, "batch": 1_000,
                  "batches": 3, "scalar": 200},
    },
}


def build_fixed(method: str, dataset, bitmap_bits: int, seed: int):
    """One filter at the fixed parameters above."""
    if method == "standard":
        k = ab.optimal_k(bitmap_bits, dataset.n)
        return ab.build_standard([it.id for it in dataset.keys], bitmap_bits, k, seed)
    if method == "lbf":
        return ab.build_lbf(dataset, bitmap_bits, TAU, seed)
    if method == "sandwich":
        return ab.build_sandwiched(dataset, bitmap_bits, TAU, seed)
    if method == "ada":
        partition = ab.partition_by_ratio(dataset, ADA_KMAX + 1, ADA_C)
        params = ab.AdaptiveParams.from_ratio(partition, ADA_KMAX, 0, ADA_C)
        return ab.build_ada(dataset, bitmap_bits, params, seed)
    if method == "disjoint":
        return ab.build_disjoint(dataset, bitmap_bits, DISJOINT_G, DISJOINT_C, seed)
    raise ValueError(f"unknown method {method!r}")


def answer_batch(filt, a: np.ndarray, b: np.ndarray, scores: np.ndarray) -> np.ndarray:
    if isinstance(filt, ab.StandardBloom):
        return filt.contains_batch(a, b)
    return filt.contains_batch(a, b, scores)


def answer_one(filt, item: str, score: float) -> bool:
    if isinstance(filt, ab.StandardBloom):
        return filt.contains(item)
    return filt.contains(item, score)


def fresh_nonmembers(seed: int, count: int, start: int = 0) -> tuple[list[str], np.ndarray]:
    """Ids outside every dataset ("q" prefix) with Beta(1,3) scores."""
    rng = np.random.default_rng((seed, 0xF4E5, start))
    ids = [f"q{i:07d}" for i in range(start, start + count)]
    return ids, rng.beta(1.0, 3.0, size=count)


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def error(self, what: str, count: int = 1) -> None:
        """Record an exception raised by the operation being attempted."""
        self.attempted += count
        traceback.print_exc()
        self.fail(f"{what}: {sys.exc_info()[1]!r}", count)


def _geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Sweep:
    """The paper's experiment: tuned run_sweep over all five methods at two budgets."""

    trace_passes = 1

    def __init__(self, sizes: dict, seed: int, tally: Tally, clock, out_dir: str):
        self.sz, self.seed, self.tally, self.clock = sizes, seed, tally, clock
        self.rows = []
        self.csv_digests: list[str] = []

    def setup(self) -> None:
        self.dataset = ab.gen_synthetic(self.sz["keys"], self.sz["nonkeys"], seed=self.seed)
        self.dataset.key_pairs(self.seed)
        self.dataset.nonkey_pairs(self.seed)

    def prepare(self) -> None:
        pass

    def run_pass(self, index: int) -> None:
        """One run_sweep call per cell, in run_sweep's own (method, budget) order.

        Cells are independent, so the rows equal those of one call over
        every method and budget; a cell is short enough for the clock's
        speed calibration around it to hold.
        """
        self.rows = []
        for method in sorted(METHODS):
            for budget in sorted(self.sz["budgets"]):
                try:
                    with self.clock.unit(f"{method}@{budget}"):
                        self.rows += ab.run_sweep(self.dataset, [budget], [method], [self.seed])
                except Exception:
                    self.tally.error(f"run_sweep {method}@{budget}")

    def check_pass(self, index: int) -> None:
        for row in self.rows:
            self.tally.check(row.status.startswith("ok") and row.fnr == 0.0,
                             f"sweep cell {row.method}@{row.total_bits}: status={row.status!r} "
                             f"fnr={row.fnr!r}")
        digest = hashlib.sha256(ab.bench.rows_to_csv(self.rows).encode("utf-8")).hexdigest()
        self.tally.check(not self.csv_digests or digest == self.csv_digests[0],
                         "sweep rows differ between passes of one run")
        self.csv_digests.append(digest)

    def tail(self) -> None:
        pass

    def summary(self, pass_times: list[float]) -> dict:
        fpr = {}
        for method in METHODS:
            values = [row.empirical_fpr for row in self.rows if row.method == method]
            fpr[method] = _geomean(values)
        return {
            "fpr": fpr,
            "fpr_kind": "in-sample (run_sweep), geometric mean over budgets",
            "fingerprint": self.csv_digests[0] if self.csv_digests else None,
            "fingerprint_of": "sha256 of rows_to_csv(run_sweep(...)) with timing off",
            "named": {"sweep_s": (float(np.median(pass_times)), "s", "lower")},
        }


class Build:
    """The write path: CSV load, then five fixed-parameter builds, dumps and loads."""

    trace_passes = 1

    def __init__(self, sizes: dict, seed: int, tally: Tally, clock, out_dir: str):
        self.sz, self.seed, self.tally, self.clock = sizes, seed, tally, clock
        self.csv_path = os.path.join(out_dir, f"build-seed{seed}.csv")
        self.dumps: dict[str, bytes] = {}
        self.pool_answers: dict[str, np.ndarray] = {}

    def setup(self) -> None:
        dataset = ab.gen_synthetic(self.sz["keys"], self.sz["nonkeys"], seed=self.seed)
        ab.save_scored_csv(dataset, self.csv_path)
        del dataset
        self.loaded = ab.load_scored_csv(self.csv_path)

    def prepare(self) -> None:
        os.remove(self.csv_path)
        self.bitmap_bits = self.sz["bits_per_key"] * self.loaded.n
        self.key_pairs = self.loaded.key_pairs(self.seed)
        ids, self.pool_scores = fresh_nonmembers(self.seed, self.sz["fresh"])
        self.pool_pairs = ab.HashFamily(self.seed).base_pairs(ids)

    def run_pass(self, index: int) -> None:
        self.built = {}
        for method in METHODS:
            try:
                with self.clock.unit(method):
                    # a fresh dataset per build pays for hashing, as a
                    # separate `adabloom build` process would
                    dataset = ab.ScoredDataset(self.loaded.items)
                    filt = build_fixed(method, dataset, self.bitmap_bits, self.seed)
                    data = ab.dump_filter(filt)
            except Exception:
                self.tally.error(f"build {method}")
                continue
            try:
                self.built[method] = (filt, data, ab.loads_filter(data))
            except Exception:
                self.tally.error(f"load {method}")

    def check_pass(self, index: int) -> None:
        key_scores = self.loaded.key_scores
        for method, (filt, data, loaded) in self.built.items():
            keys_saved = answer_batch(filt, *self.key_pairs, key_scores)
            keys_loaded = answer_batch(loaded, *self.key_pairs, key_scores)
            pool_saved = answer_batch(filt, *self.pool_pairs, self.pool_scores)
            pool_loaded = answer_batch(loaded, *self.pool_pairs, self.pool_scores)
            self.tally.check(bool(keys_saved.all()), f"{method}: false negative (built)")
            self.tally.check(bool(keys_loaded.all()), f"{method}: false negative (loaded)")
            self.tally.check(np.array_equal(pool_saved, pool_loaded),
                             f"{method}: loaded filter answers differently from saved")
            first = self.dumps.setdefault(method, data)
            self.tally.check(data == first, f"{method}: dump differs between passes")
            self.pool_answers.setdefault(method, pool_loaded)

    def tail(self) -> None:
        pass

    def summary(self, pass_times: list[float]) -> dict:
        digest = hashlib.sha256()
        for method in METHODS:
            digest.update(self.dumps.get(method, b""))
        times = [ref for name, _, ref in self.clock.samples if name in METHODS]
        per_filter = float(np.median(times)) if times else math.inf
        return {
            "fpr": {m: float(self.pool_answers[m].mean()) if m in self.pool_answers else 0.0
                    for m in METHODS},
            "fpr_kind": f"held-out, {self.sz['fresh']} fresh non-members, fixed parameters",
            "fingerprint": digest.hexdigest() if self.dumps else None,
            "fingerprint_of": "sha256 of the five dump_filter outputs",
            "named": {"build_keys_per_s": (self.loaded.n / per_filter, "1/s", "higher")},
        }


class Query:
    """The read path: raw (id, score) batches and scalar calls against loaded filters."""

    def __init__(self, sizes: dict, seed: int, tally: Tally, clock, out_dir: str):
        self.sz, self.seed, self.tally, self.clock = sizes, seed, tally, clock
        self.trace_passes = sizes["batches"]
        self.latencies_us: list[float] = []

    def setup(self) -> None:
        self.dataset = ab.gen_synthetic(self.sz["keys"], self.sz["nonkeys"], seed=self.seed)
        self.saved = {m: build_fixed(m, self.dataset, self.sz["budget"], self.seed)
                      for m in METHODS}
        self.filters = {m: ab.loads_filter(ab.dump_filter(f)) for m, f in self.saved.items()}

    def prepare(self) -> None:
        """Make the query pool and the reference answers; check every filter."""
        sz, seed = self.sz, self.seed
        rng = np.random.default_rng((seed, 0x9E37))
        keys = self.dataset.keys
        n_keys = sz["batch"] // 4
        self.pool = []
        for b in range(sz["batches"]):
            fresh_ids, fresh_scores = fresh_nonmembers(seed, sz["batch"] - n_keys,
                                                       start=b * sz["batch"])
            picks = rng.choice(len(keys), size=n_keys, replace=False)
            ids = [keys[i].id for i in picks] + fresh_ids
            scores = np.concatenate([[keys[i].score for i in picks], fresh_scores])
            is_key = np.arange(len(ids)) < n_keys
            order = rng.permutation(len(ids))
            self.pool.append(([ids[i] for i in order], scores[order], is_key[order]))

        key_pairs = self.dataset.key_pairs(seed)
        family = ab.HashFamily(seed)
        pool_pairs = [family.base_pairs(ids) for ids, _, _ in self.pool]
        self.reference = []
        self.false_pos = dict.fromkeys(METHODS, 0)
        self.fresh_total = 0
        for (ids, scores, is_key), (a, b) in zip(self.pool, pool_pairs):
            ref = {m: answer_batch(f, a, b, scores) for m, f in self.filters.items()}
            self.reference.append(ref)
            self.fresh_total += int((~is_key).sum())
            for m in METHODS:
                self.false_pos[m] += int(ref[m][~is_key].sum())
        for m in METHODS:
            saved, loaded = self.saved[m], self.filters[m]
            for label, filt in (("built", saved), ("loaded", loaded)):
                hits = answer_batch(filt, *key_pairs, self.dataset.key_scores)
                self.tally.check(bool(hits.all()), f"{m}: false negative ({label})")
            same = all(np.array_equal(answer_batch(saved, a, b, scores), ref[m])
                       for (_, scores, _), (a, b), ref in zip(self.pool, pool_pairs,
                                                               self.reference))
            self.tally.check(same, f"{m}: loaded filter answers differently from saved")

    def run_pass(self, index: int) -> None:
        ids, scores, _ = self.pool[index % len(self.pool)]
        try:
            with self.clock.unit("batch"):
                a, b = ab.HashFamily(self.seed).base_pairs(ids)
                self.answers = {m: answer_batch(f, a, b, scores)
                                for m, f in self.filters.items()}
        except Exception:
            self.answers = None
            self.tally.error(f"query batch {index}", len(METHODS))

    def check_pass(self, index: int) -> None:
        if self.answers is None:
            return
        _, _, is_key = self.pool[index % len(self.pool)]
        ref = self.reference[index % len(self.pool)]
        for m in METHODS:
            out = self.answers[m]
            self.tally.check(bool(out[is_key].all()) and np.array_equal(out, ref[m]),
                             f"{m}: batch {index} answer wrong")

    def tail(self) -> None:
        """Scalar contains on the head of the pool, one timed call at a time.

        Calls are too short to calibrate one by one; the clock's speed
        factor for the whole run of calls scales them to reference time.
        """
        ids, scores, _ = self.pool[0]
        count = min(self.sz["scalar"], len(ids))
        ref = self.reference[0]
        clock = time.perf_counter_ns
        latencies_ns, hits = [], {}
        with self.clock.unit("scalar"):
            for m, filt in self.filters.items():
                for i in range(count):
                    item, score = ids[i], float(scores[i])
                    try:
                        t0 = clock()
                        hits[m, i] = answer_one(filt, item, score)
                        latencies_ns.append(clock() - t0)
                    except Exception:
                        self.tally.error(f"{m}: scalar contains")
        _, wall, scaled = self.clock.samples[-1]
        self.latencies_us += [ns / 1e3 * scaled / wall for ns in latencies_ns]
        for (m, i), hit in hits.items():
            self.tally.check(hit == bool(ref[m][i]),
                             f"{m}: scalar contains disagrees with batch on {ids[i]!r}")

    def summary(self, pass_times: list[float]) -> dict:
        lat_us = np.asarray(self.latencies_us)
        named = {
            "query_batch_items_per_s": (self.sz["batch"] / float(np.median(pass_times)),
                                        "1/s", "higher"),
            "query_scalar_us_p50": (float(np.percentile(lat_us, 50)) if lat_us.size else 0.0,
                                    "us", "lower"),
            "query_scalar_us_p99": (float(np.percentile(lat_us, 99)) if lat_us.size else 0.0,
                                    "us", "lower"),
            "query_scalar_samples": (int(lat_us.size), "count", "info"),
        }
        digest = hashlib.sha256()
        for ref in self.reference:
            for m in METHODS:
                digest.update(np.packbits(ref[m]).tobytes())
        return {
            "fpr": {m: self.false_pos[m] / self.fresh_total for m in METHODS},
            "fpr_kind": f"held-out, {self.fresh_total} fresh non-members in the query pool",
            "fingerprint": digest.hexdigest(),
            "fingerprint_of": "sha256 of the loaded filters' answers over the query pool",
            "named": named,
        }


WORKLOADS = {"sweep": Sweep, "build": Build, "query": Query}
