"""Score-adaptive Bloom filters and baselines, with a benchmark harness.

Five approximate-membership structures over scored items: the classic
Bloom filter, the learned (threshold + backup) filter, its sandwiched
generalization, a score-adaptive filter varying hash counts per score
group, and a disjoint variant with independent per-group filters. All
guarantee zero false negatives; the benchmark tooling measures and
compares their false positive rates under matched memory budgets.
"""

from .adaptive import (
    AdaptiveBloom,
    AdaptiveParams,
    alpha_load,
    build_ada,
    expected_fpr_ada,
    fpr_upper_bound,
    kmax_from_lbf,
)
from .bench import SweepRow, run_sweep
from .bits import BitVector, HashFamily
from .disjoint import (
    DisjointBloom,
    DisjointParams,
    InfeasibleBudgetError,
    allocate_disjoint,
    build_disjoint,
    build_disjoint_from_partition,
)
from .learned import (
    LearnedBloom,
    SandwichedBloom,
    build_lbf,
    build_sandwiched,
    sandwich_allocate,
)
from .scores import (
    DatasetError,
    InsufficientDataError,
    ScoredDataset,
    ScoredItem,
    ScorePartition,
    gen_synthetic,
    load_scored_csv,
    min_sample_size,
    partition_below_threshold,
    partition_by_ratio,
    partition_from_thresholds,
    save_scored_csv,
)
from .serialize import dump_filter, load_filter, loads_filter, save_filter
from .standard import (
    OPTIMAL_FPR_BASE,
    GatedBloom,
    StandardBloom,
    build_standard,
    expected_fpr_standard,
    optimal_k,
)
from .tuning import (
    TuneResult,
    tune_ada,
    tune_disjoint,
    tune_lbf,
    tune_sandwiched,
)

__version__ = "0.1.0"
