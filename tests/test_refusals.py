"""Every argument check in the library, called once with a bad argument.

One row per refusal: the call, the exception type it must raise (exactly,
not a subclass) and a fragment of its message.
"""

import re
import signal
from unittest import mock

import numpy as np
import pytest

from adabloom.adaptive import (
    AdaptiveParams,
    build_ada,
    expected_fpr_ada,
    fpr_upper_bound,
    kmax_from_lbf,
)
from adabloom.bench import parse_budget, run_sweep
from adabloom.bits import BitVector, HashFamily
from adabloom.disjoint import (
    InfeasibleBudgetError,
    allocate_disjoint,
    build_disjoint,
    build_disjoint_from_partition,
)
from adabloom.learned import (
    LearnedBloom,
    SandwichedBloom,
    build_lbf,
    build_sandwiched,
    sandwich_allocate,
)
from adabloom.scores import (
    DatasetError,
    InsufficientDataError,
    ScoredDataset,
    ScoredItem,
    ScorePartition,
    gen_synthetic,
    load_scored_csv,
    partition_below_threshold,
    partition_by_ratio,
)
from adabloom.serialize import dump_filter
from adabloom.standard import (
    MAX_K,
    StandardBloom,
    alpha_load,
    build_standard,
    expected_fpr_standard,
    optimal_k,
)
from adabloom.tuning import _measure, build, check_grids, default_tau_grid, tune, tune_lbf

NAN, INF = float("nan"), float("inf")
DS = gen_synthetic(60, 60, seed=3)
KEYS_ONLY = ScoredDataset([ScoredItem("k0", 0.5, True)])
TWO = ScorePartition((0.0, 0.5, 1.0), (3, 3), (3, 3))
KEYLESS = ScorePartition((0.0, 0.3, 0.6, 1.0), (0, 0, 5), (2, 2, 2))
PAIR = HashFamily(1).base_pairs(["x", "y"])


def _stage(r):
    return StandardBloom(BitVector(r), 1, HashFamily(1))


def _csv(text):
    def load(tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return load_scored_csv(path)
    return load


# (id, call with tmp_path, exception type, message fragment)
REFUSALS = [
    # adaptive
    ("ada-params-negative-k", lambda _: AdaptiveParams(TWO, (1, -1)), ValueError,
     "hash counts must be >= 0, got (1, -1)"),
    ("ada-params-c-1", lambda _: AdaptiveParams(TWO, (1, 0), 1.0), ValueError,
     "ratio c must be > 1, got 1.0"),
    ("ada-params-c-nan", lambda _: AdaptiveParams(TWO, (1, 0), NAN), ValueError,
     "ratio c must be finite, got nan"),
    ("ada-params-c-inf", lambda _: AdaptiveParams(TWO, (1, 0), INF), ValueError,
     "ratio c must be finite, got inf"),
    ("from-ratio-kmax-below-kmin", lambda _: AdaptiveParams.from_ratio(TWO, 0, 1), ValueError,
     "need k_max >= k_min >= 0, got (0, 1)"),
    ("expected-fpr-ada-lengths", lambda _: expected_fpr_ada((1.0,), (1, 0), 0.5), ValueError,
     "group count mismatch: 1 probabilities vs 2 hash counts"),
    ("expected-fpr-ada-alpha", lambda _: expected_fpr_ada((1.0,), (1,), 1.5), ValueError,
     "alpha must be in [0, 1], got 1.5"),
    ("expected-fpr-ada-alpha-nan", lambda _: expected_fpr_ada((1.0,), (1,), NAN), ValueError,
     "alpha must be in [0, 1], got nan"),
    ("eq3-g-0", lambda _: fpr_upper_bound(2.0, 0.5, 0, 3), ValueError,
     "group count g must be >= 1, got 0"),
    ("eq3-c-nan", lambda _: fpr_upper_bound(NAN, 0.5, 3, 3), ValueError,
     "ratio c must be finite, got nan"),
    ("eq3-c-inf", lambda _: fpr_upper_bound(INF, 0.5, 3, 3), ValueError,
     "ratio c must be finite, got inf"),
    ("kmax-from-lbf-g-1", lambda _: kmax_from_lbf(3, 1), ValueError,
     "group count g must be >= 2, got 1"),
    ("kmax-from-lbf-k-0", lambda _: kmax_from_lbf(0, 2), ValueError, "k_lbf must be >= 1, got 0"),
    # disjoint
    ("allocate-negative-bits", lambda _: allocate_disjoint(-1, (3, 3), 2.0, 2), ValueError,
     "bitmap_bits must be >= 0, got -1"),
    ("allocate-c-1", lambda _: allocate_disjoint(100, (3, 3), 1.0, 2), ValueError,
     "ratio c must be > 1, got 1.0"),
    ("allocate-c-nan", lambda _: allocate_disjoint(100, (3, 3), NAN, 2), ValueError,
     "ratio c must be finite, got nan"),
    ("allocate-c-inf", lambda _: allocate_disjoint(100, (3, 3), INF, 2), ValueError,
     "ratio c must be finite, got inf"),
    ("allocate-g-0", lambda _: allocate_disjoint(100, (), 2.0, 0), ValueError,
     "group count g must be >= 1, got 0"),
    ("allocate-negative-key-count", lambda _: allocate_disjoint(100, (3, -1), 2.0, 2),
     ValueError, "key counts must be >= 0, got [3, -1]"),
    ("allocate-keyless-over-budget", lambda _: allocate_disjoint(1, (0, 0, 5), 2.0, 3),
     InfeasibleBudgetError, "budget 1 cannot cover 2 keyless groups"),
    ("disjoint-keyless-over-budget",
     lambda _: build_disjoint_from_partition(DS, 1, KEYLESS, 2.0, 0), InfeasibleBudgetError,
     "budget 1 cannot cover 2 keyless groups"),
    ("disjoint-partition-c-half", lambda _: build_disjoint_from_partition(DS, 100, TWO, 0.5, 0),
     ValueError, "ratio c must be > 1, got 0.5"),
    ("disjoint-partition-c-1", lambda _: build_disjoint_from_partition(DS, 100, TWO, 1.0, 0),
     ValueError, "ratio c must be > 1, got 1.0"),
    ("disjoint-partition-c-nan", lambda _: build_disjoint_from_partition(DS, 100, TWO, NAN, 0),
     ValueError, "ratio c must be finite, got nan"),
    # learned
    ("sandwich-allocate-negative", lambda _: sandwich_allocate(0.1, 0.2, -1), ValueError,
     "budget must be finite and >= 0, got -1"),
    ("sandwich-allocate-nan", lambda _: sandwich_allocate(0.1, 0.2, NAN), ValueError,
     "budget must be finite and >= 0, got nan"),
    ("sandwich-allocate-inf", lambda _: sandwich_allocate(0.1, 0.2, INF), ValueError,
     "budget must be finite and >= 0, got inf"),
    ("lbf-negative-bits", lambda _: build_lbf(DS, -1, 0.5, 0), ValueError,
     "bitmap_bits must be >= 0, got -1"),
    ("sandwich-negative-bits", lambda _: build_sandwiched(DS, -1, 0.5, 0), ValueError,
     "bitmap_bits must be >= 0, got -1"),
    ("sandwich-bitmap-not-the-sum",
     lambda _: SandwichedBloom(0.5, None, _stage(64), 65, 0, 64), ValueError,
     "bitmap_bits 65 is not b1_bits 0 + b2_bits 64"),
    ("sandwich-initial-without-b1",
     lambda _: SandwichedBloom(0.5, _stage(8), _stage(64), 64, 0, 64), ValueError,
     "initial filter of 8 bits (0: none), need b1_bits = 0"),
    ("sandwich-b1-without-initial",
     lambda _: SandwichedBloom(0.5, None, _stage(64), 72, 8, 64), ValueError,
     "initial filter of 0 bits (0: none), need b1_bits = 8"),
    ("lbf-backup-smaller-than-the-budget", lambda _: LearnedBloom(0.5, _stage(64), 10**9),
     ValueError, "backup of 64 bits, need max(1, b2_bits) = 1000000000"),
    # scores
    ("csv-empty-file", _csv(""), DatasetError, "empty file, expected header id,score,label"),
    ("gen-float-n", lambda _: gen_synthetic(2.5, 3), ValueError,
     "n and m must be integers, got 2.5 and 3"),
    ("gen-str-m", lambda _: gen_synthetic(3, "3"), ValueError,
     "n and m must be integers, got 3 and '3'"),
    ("csv-empty-id", _csv("id,score,label\n,0.5,key\n"), DatasetError,
     "line 2: id must be non-empty and comma-free"),
    ("csv-comma-id", _csv('id,score,label\n"a,b",0.5,key\n'), DatasetError,
     "line 2: id must be non-empty and comma-free"),
    ("columns-lengths", lambda _: ScoredDataset.from_columns(["a", "b"], [0.5], [True, False]),
     ValueError, "columns of 2 ids, (1,) scores and (2,) labels do not make rows"),
    ("columns-2d", lambda _: ScoredDataset.from_columns(["a"], [[0.5]], [True]), ValueError,
     "columns of 1 ids, (1, 1) scores and (1,) labels do not make rows"),
    ("partition-counts-length", lambda _: ScorePartition((0.0, 1.0), (1, 2), (1,)), ValueError,
     "per-group counts must have one entry per group"),
    ("partition-by-ratio-g-fraction", lambda _: partition_by_ratio(DS, 2.5, 2.0), ValueError,
     "g must be an integer >= 1, got 2.5"),
    ("partition-by-ratio-c-nan", lambda _: partition_by_ratio(DS, 3, NAN), ValueError,
     "ratio c must be finite, got nan"),
    ("partition-by-ratio-c-inf", lambda _: partition_by_ratio(DS, 3, INF), ValueError,
     "ratio c must be finite, got inf"),
    ("below-threshold-g-1", lambda _: partition_below_threshold(DS, 0.5, 1, 2.0), ValueError,
     "need g >= 2 to pin a top threshold, got 1"),
    ("below-threshold-g-fraction", lambda _: partition_below_threshold(DS, 0.5, 2.5, 2.0),
     ValueError, "g must be an integer >= 2, got 2.5"),
    ("below-threshold-tau-1", lambda _: partition_below_threshold(DS, 1.0, 3, 2.0), ValueError,
     "tau must be in (0, 1), got 1.0"),
    ("below-threshold-tau-nan", lambda _: partition_below_threshold(DS, NAN, 3, 2.0), ValueError,
     "tau must be in (0, 1), got nan"),
    ("below-threshold-c-half", lambda _: partition_below_threshold(DS, 0.5, 4, 0.5), ValueError,
     "ratio c must be > 1, got 0.5"),
    ("below-threshold-c-nan", lambda _: partition_below_threshold(DS, 0.5, 4, NAN), ValueError,
     "ratio c must be finite, got nan"),
    ("below-threshold-c-inf", lambda _: partition_below_threshold(DS, 0.5, 3, INF), ValueError,
     "ratio c must be finite, got inf"),
    ("below-threshold-too-few", lambda _: partition_below_threshold(DS, 1e-9, 3, 2.0),
     InsufficientDataError, "need at least 2 non-keys below tau=1e-09, have 0"),
    # standard
    ("alpha-load-r-0", lambda _: alpha_load(0, (1,), (1,)), ValueError,
     "filter size r must be >= 1, got 0"),
    ("expected-fpr-standard-negative", lambda _: expected_fpr_standard(10, -1, 1), ValueError,
     "n and k must be >= 0"),
    ("optimal-k-negative", lambda _: optimal_k(-1, 1), ValueError, "r and n must be >= 0"),
    ("standard-batch-b-longer",
     lambda _: build_standard(["x"], 64, 2, 1).contains_batch(PAIR[0][:1], PAIR[1]), ValueError,
     "batch arrays differ in length: base_a 1, base_b 2"),
    ("standard-batch-one-score",
     lambda _: build_standard(["x"], 64, 2, 1).contains_batch(*PAIR, np.array([0.1])),
     ValueError, "batch arrays differ in length: base_a 2, base_b 2, scores 1"),
    ("gated-batch-one-score",
     lambda _: build_lbf(DS, 2000, 0.5, 1).contains_batch(*DS.key_pairs(1), np.array([0.1])),
     ValueError, "batch arrays differ in length: base_a 60, base_b 60, scores 1"),
    ("gated-batch-a-shorter",
     lambda _: build_lbf(DS, 2000, 0.5, 1).contains_batch(
         DS.key_pairs(1)[0][:59], DS.key_pairs(1)[1], DS.key_scores), ValueError,
     "batch arrays differ in length: base_a 59, base_b 60, scores 60"),
    ("gated-batch-scores-longer",
     lambda _: build_lbf(DS, 2000, 0.5, 1).contains_batch(*PAIR, DS.key_scores), ValueError,
     "batch arrays differ in length: base_a 2, base_b 2, scores 60"),
    ("standard-batch-no-pairs", lambda _: build_standard(["a", "b"], 100, 3, 1).contains_batch(
        None, None), ValueError, "a batch without probe rows needs base_a and base_b"),
    ("gated-batch-no-pairs", lambda _: build_lbf(DS, 2000, 0.5, 1).contains_batch(
        None, None, np.array([0.1, 0.7])), ValueError,
     "a batch without probe rows needs base_a and base_b"),
    ("standard-k-past-bound", lambda _: StandardBloom(BitVector(64), MAX_K + 1, HashFamily(1)),
     ValueError, f"hash count k must be <= {MAX_K}, got {MAX_K + 1}"),
    # tuning and bench
    ("tau-grid-no-nonkeys", lambda _: default_tau_grid(KEYS_ONLY), ValueError,
     "cannot derive a tau grid without non-keys"),
    ("measure-no-nonkeys", lambda _: _measure(None, KEYS_ONLY.by_score()), ValueError,
     "cannot measure FPR without non-keys"),
    ("c-grid-inf", lambda _: check_grids({"c_grid": [2.0, INF]}), ValueError,
     "c must be finite and > 1, got inf"),
    ("c-grid-nan", lambda _: check_grids({"c_grid": [NAN]}, "disjoint"), ValueError,
     "c must be finite and > 1, got nan"),
    ("run-sweep-no-budgets", lambda _: run_sweep(DS, [], ["lbf"], [0]), ValueError,
     "budgets, methods and seeds must be non-empty"),
    ("run-sweep-no-methods", lambda _: run_sweep(DS, [1000], [], [0]), ValueError,
     "budgets, methods and seeds must be non-empty"),
    ("run-sweep-no-seeds", lambda _: run_sweep(DS, [1000], ["lbf"], []), ValueError,
     "budgets, methods and seeds must be non-empty"),
    ("parse-budget-inf", lambda _: parse_budget("infkb"), ValueError,
     "budget must be finite, got 'infkb'"),
    ("parse-budget-nan", lambda _: parse_budget("nanKb"), ValueError,
     "budget must be finite, got 'nankb'"),
    ("parse-budget-overflow", lambda _: parse_budget("1e308kb"), ValueError,
     "budget must be finite, got '1e308kb'"),
    ("parse-budget-negative", lambda _: parse_budget("-500"), ValueError,
     "budget must be >= 0, got '-500'"),
    ("parse-budget-negative-kb", lambda _: parse_budget("-5kb"), ValueError,
     "budget must be >= 0, got '-5kb'"),
    ("run-sweep-budget-below-one-bit", lambda _: run_sweep(DS, [0, 1000, -5], ["lbf"], [0]),
     ValueError, "budgets must be >= 1 bit, got [0, -5]"),
    ("tune-lbf-negative-model-bits", lambda _: tune_lbf(DS, 2000, seed=3, model_bits=-500),
     ValueError, "model_bits must be >= 0, got -500"),
    ("run-sweep-negative-model-bits",
     lambda _: run_sweep(DS, [1000], ["lbf"], [0], model_bits=-500), ValueError,
     "model_bits must be >= 0, got -500"),
    # every filter that stores a model-bit count
    ("lbf-negative-model-bits", lambda _: build_lbf(DS, 1000, 0.5, 0, -500), ValueError,
     "model_bits must be >= 0, got -500"),
    ("sandwich-negative-model-bits", lambda _: build_sandwiched(DS, 1000, 0.5, 0, -500),
     ValueError, "model_bits must be >= 0, got -500"),
    ("ada-negative-model-bits", lambda _: build_ada(
        DS, 1000, AdaptiveParams.from_ratio(partition_by_ratio(DS, 3, 2.0), 2, 0, 2.0), 0, -500),
     ValueError, "model_bits must be >= 0, got -500"),
    ("disjoint-negative-model-bits", lambda _: build_disjoint(DS, 1000, 3, 2.0, 0, -500),
     ValueError, "model_bits must be >= 0, got -500"),
    # bits and serialize
    ("set-hashed-negative-k", lambda _: BitVector(64).set_hashed(*PAIR, -1), ValueError,
     "hash count k must be >= 0, got -1"),
    ("test-hashed-negative-k", lambda _: BitVector(64).test_hashed(*PAIR, -1), ValueError,
     "hash count k must be >= 0, got -1"),
    ("test-hashed-ranges-without-offsets",
     lambda _: BitVector(64).test_hashed(*PAIR, 1, ranges=np.full(2, 64, dtype=np.uint64)),
     ValueError, "per-item ranges and offsets are given together"),
    ("dump-unknown-type", lambda _: dump_filter(object()), TypeError, "cannot serialize object"),
]


@pytest.mark.parametrize("call, exc, fragment", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, exc, fragment, tmp_path):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call(tmp_path)
    assert type(info.value) is exc


# (id, call, message fragment): a bit count, budget or seed that is not an integer.
# The disjoint allocator never returned on one (its remainder never reached 0); the
# others truncated it, or failed later or with another message.
FRACTIONAL = [
    ("allocate-fractional-bits", lambda: allocate_disjoint(3000.5, [100, 200, 50], 2.0, 3),
     "bitmap_bits must be an integer, got 3000.5"),
    ("build-disjoint-fractional-bits", lambda: build("disjoint", DS, 3000.5, g=3, c=2.0),
     "bitmap_bits must be an integer, got 3000.5"),
    ("tune-disjoint-fractional-bits",
     lambda: tune("disjoint", DS, 3000.5, g_grid=[3], c_grid=[2.0]),
     "bitmap_bits must be an integer, got 3000.5"),
    ("bit-vector-fractional-length", lambda: BitVector(64.0),
     "bit vector length must be an integer, got 64.0"),
    ("build-standard-fractional-bits", lambda: build("standard", DS, 3000.5),
     "bit vector length must be an integer, got 3000.5"),
    ("build-ada-fractional-bits", lambda: build("ada", DS, 3000.5, k_max=2, c=2.0),
     "bitmap_bits must be an integer, got 3000.5"),
    ("tune-ada-fractional-bits", lambda: tune("ada", DS, 3000.5, kmax_grid=[2], c_grid=[2.0]),
     "bitmap_bits must be an integer, got 3000.5"),
    ("lbf-fractional-bits", lambda: build_lbf(DS, 3000.5, 0.5, 0),
     "bitmap_bits must be an integer, got 3000.5"),
    ("tune-lbf-fractional-bits", lambda: tune("lbf", DS, 3000.5, tau_grid=[0.5]),
     "bitmap_bits must be an integer, got 3000.5"),
    ("sandwich-fractional-bits", lambda: build_sandwiched(DS, 3000.5, 0.5, 0),
     "bitmap_bits must be an integer, got 3000.5"),
    ("lbf-fractional-model-bits", lambda: build_lbf(DS, 1000, 0.5, 0, 10.5),
     "model_bits must be an integer, got 10.5"),
    ("run-sweep-fractional-budget", lambda: run_sweep(DS, [3000.7], ["lbf"], [0]),
     "budgets must be integers, got [3000.7]"),
    ("run-sweep-fractional-seed", lambda: run_sweep(DS, [3000], ["lbf"], [0, 1.9]),
     "seeds must be integers, got [1.9]"),
]


@pytest.mark.parametrize("call, fragment", [row[1:] for row in FRACTIONAL],
                         ids=[row[0] for row in FRACTIONAL])
def test_a_fractional_count_is_refused(call, fragment):
    def still_running(signum, frame):
        raise TimeoutError("still running after 10 s")
    before = signal.signal(signal.SIGALRM, still_running)
    signal.alarm(10)  # a hang fails this test instead of the whole run
    try:
        with pytest.raises(ValueError, match=re.escape(fragment)) as info:
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    assert type(info.value) is ValueError


def test_numpy_integer_counts_are_taken():
    assert BitVector(np.int64(64)).length_bits == 64
    assert allocate_disjoint(np.int32(300), (3, 3), 2.0, 2) == [300, 0]  # the top group gets 0
    assert build_lbf(DS, np.uint16(1000), 0.5, 0, np.int64(10)).model_bits == 10
    rows = run_sweep(DS, [np.int64(3000)], ["lbf"], [np.int8(2)], tau_grid=[0.5])
    assert (rows[0].total_bits, rows[0].seed) == (3000, 2)


ADA = build_ada(DS, 2000, AdaptiveParams.from_ratio(partition_by_ratio(DS, 3, 2.0), 2, 0, 2.0), 1)
STANDARD = build_standard(["x"], 64, 2, 1)
FIVE = HashFamily(1).base_pairs(["a", "b", "c", "d", "e"])
SCORES = np.linspace(0.1, 0.9, 5)
VIEW = DS.by_score()
ROWS = VIEW.probe_rows(keys=False)  # the view's 60 non-keys
LBF = build_lbf(DS, 2000, 0.5, 1)
DISJOINT = build_disjoint(DS, 2000, 3, 2.0, 1)
RISING = np.linspace(0.0, 1.0, 65)  # ascending scores, five more than the rows

# (id, query, message fragment): arrays of the wrong shape or dtype, scores that are
# not real numbers, and batches whose scores and probe rows differ in length (fewer
# scores used to gate every row, and the rows past them went unprobed)
MALFORMED = [
    ("ada-batch-2d-scores", lambda: ADA.contains_batch(*FIVE, SCORES[:, None]),
     "scores must be a 1-D array of real numbers, got shape (5, 1), dtype float64"),
    ("ada-batch-string-scores", lambda: ADA.contains_batch(*FIVE, ["0.5"] * 5),
     "scores must be a 1-D array of real numbers, got shape (5,), dtype <U3"),
    ("ada-batch-int64-bases",
     lambda: ADA.contains_batch(*(x.astype(np.int64) for x in FIVE), SCORES),
     "base_a must be a 1-D uint64 array, got shape (5,), dtype int64"),
    ("ada-batch-list-base-b", lambda: ADA.contains_batch(FIVE[0], FIVE[1].tolist(), SCORES),
     "base_b must be a 1-D uint64 array, got list"),
    ("standard-batch-2d-bases",
     lambda: STANDARD.contains_batch(FIVE[0][:, None], FIVE[1][:, None]),
     "base_a must be a 1-D uint64 array, got shape (5, 1), dtype uint64"),
    ("lbf-rows-fewer-scores",
     lambda: LBF.contains_batch(None, None, VIEW.nonkey_scores[:10], rows=ROWS),
     "batch arrays differ in length: scores 10, rows 60"),
    ("lbf-rows-more-scores", lambda: LBF.contains_batch(None, None, RISING, rows=ROWS),
     "batch arrays differ in length: scores 65, rows 60"),
    ("ada-rows-fewer-scores",
     lambda: ADA.contains_batch(None, None, VIEW.nonkey_scores[:10], rows=ROWS),
     "batch arrays differ in length: scores 10, rows 60"),
    ("disjoint-rows-more-scores", lambda: DISJOINT.contains_batch(None, None, RISING, rows=ROWS),
     "batch arrays differ in length: scores 65, rows 60"),
    ("disjoint-index-rows-fewer-scores",
     lambda: DISJOINT.contains_batch(None, None, VIEW.nonkey_scores[:10],
                                     rows=ROWS.select(np.arange(0, 60, 2))),
     "batch arrays differ in length: scores 10, rows 30"),
    ("standard-rows-fewer-scores",
     lambda: STANDARD.contains_batch(None, None, VIEW.nonkey_scores[:10], rows=ROWS),
     "batch arrays differ in length: scores 10, rows 60"),
    ("ada-scalar-string-score", lambda: ADA.contains("a", "0.5"),
     "score must be a real number, got str '0.5'"),
    ("ada-scalar-array-score", lambda: ADA.contains("a", np.array([0.5])),
     "score must be a real number, got ndarray array([0.5])"),
]


@pytest.mark.parametrize("call, fragment", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_a_malformed_query_is_refused_before_any_probe(call, fragment):
    with mock.patch.object(BitVector, "test_hashed") as batch, \
            mock.patch.object(BitVector, "test_bits") as scalar, \
            mock.patch.object(HashFamily, "remix_pairs") as remix, \
            pytest.raises(ValueError, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is ValueError
    assert batch.call_count == scalar.call_count == remix.call_count == 0
