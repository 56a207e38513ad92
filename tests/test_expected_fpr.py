"""One expected FPR for every gated filter, read off its stage table.

``GatedBloom.expected_fpr`` replaced three per-kind formulas. They are kept
here as references: on every kind, built and loaded, the table's value must
equal them (exactly for ``lbf``, ``sandwich`` and ``ada``; ``disjoint``'s
running sum became an ``fsum``, so within 1e-15 relative).
"""

import math
from pathlib import Path

import pytest

from adabloom.adaptive import AdaptiveBloom, AdaptiveParams, build_ada, expected_fpr_ada
from adabloom.bits import BitVector, HashFamily
from adabloom.disjoint import DisjointBloom, build_disjoint, build_disjoint_from_partition
from adabloom.learned import LearnedBloom, SandwichedBloom, build_lbf, build_sandwiched
from adabloom.scores import (
    ScoredDataset,
    ScoredItem,
    gen_synthetic,
    partition_by_ratio,
    partition_from_thresholds,
)
from adabloom.serialize import dump_filter, loads_filter
from adabloom.standard import GatedBloom, StandardBloom, expected_fpr_standard

V1_FIXTURES = Path(__file__).parent / "data" / "v1"


def sandwich_reference(filt):
    """``SandwichedBloom.expected_fpr`` as it was: the initial filter times the threshold's."""
    if filt.fp_above is None:
        return None
    through = filt.fp_above + (1.0 - filt.fp_above) * filt.backup.expected_fpr()
    return through if filt.initial is None else filt.initial.expected_fpr() * through


def ada_reference(filt):
    """``AdaptiveBloom.expected_fpr`` as it was: the paper's sum_j p_j alpha^K_j."""
    p_hat = filt.params.partition.p_hat
    if p_hat is None:
        return None
    return expected_fpr_ada(p_hat, filt.params.k_per_group, filt.alpha())


def disjoint_reference(filt):
    """``DisjointBloom.expected_fpr`` as it was: a running sum of p_j times group j's FPR."""
    p_hat = filt.params.partition.p_hat
    if p_hat is None:
        return None
    total = 0.0
    for p, r, n, k in zip(p_hat, filt.params.r_per_group,
                          filt.params.partition.n_per_group, filt.params.k_per_group):
        total += p * (1.0 if r == 0 else expected_fpr_standard(r, n, k))
    return total


def assert_matches_reference(filt):
    got = filt.expected_fpr()
    if isinstance(filt, SandwichedBloom):
        assert got == sandwich_reference(filt)
    elif isinstance(filt, AdaptiveBloom):
        assert got == ada_reference(filt)
    else:
        want = disjoint_reference(filt)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    return got


def _builds(ds, seed, bits_per_key):
    r = max(1, int(bits_per_key * ds.n))
    part = partition_by_ratio(ds, 5, 1.8)
    filters = [build_lbf(ds, r, tau, seed) for tau in (0.0, 0.3, 0.6, 0.9, 1.0)]
    filters += [build_sandwiched(ds, r, tau, seed) for tau in (0.0, 0.3, 0.6, 0.9, 1.0)]
    filters += [build_ada(ds, r, AdaptiveParams.from_ratio(part, k_max, k_max - 4, 1.8), seed)
                for k_max in (4, 7, 12)]
    filters += [build_disjoint(ds, r, g, c, seed) for g, c in ((2, 1.5), (5, 2.0), (9, 1.5))]
    return filters


@pytest.mark.parametrize("seed, n, bits_per_key", [
    (0, 400, 1.5), (3, 2000, 4.0), (7, 5000, 15.0), (1507, 3000, 8.0)])
def test_equals_the_per_kind_formulas_built_and_loaded(seed, n, bits_per_key):
    ds = gen_synthetic(n, n, seed=seed)
    for filt in _builds(ds, seed, bits_per_key):
        got = assert_matches_reference(filt)
        assert got is not None and 0.0 <= got <= 1.0
        loaded = loads_filter(dump_filter(filt))
        assert assert_matches_reference(loaded) == got


@pytest.mark.parametrize("path", sorted(V1_FIXTURES.glob("*.adbf")), ids=lambda p: p.stem)
def test_committed_containers_report_the_per_kind_value(path):
    filt = loads_filter(path.read_bytes())
    if isinstance(filt, GatedBloom):
        assert assert_matches_reference(filt) is not None


def test_ada_is_the_papers_sum():
    ds = gen_synthetic(2000, 2000, seed=5)
    part = partition_by_ratio(ds, 6, 2.0)
    filt = build_ada(ds, 12_000, AdaptiveParams.from_ratio(part, 8, 3, 2.0), seed=5)
    want = expected_fpr_ada(part.p_hat, filt.params.k_per_group, filt.alpha())
    assert filt.expected_fpr() == want
    assert loads_filter(dump_filter(filt)).expected_fpr() == want


class TestEdges:
    DS = gen_synthetic(400, 400, seed=3)

    @pytest.mark.parametrize("build", [build_lbf, build_sandwiched])
    def test_tau_zero_passes_everything(self, build):
        # every non-key scores >= 0: the whole share is above tau
        filt = build(self.DS, 3000, 0.0, 3)
        assert filt.fp_above == 1.0 and assert_matches_reference(filt) == 1.0

    @pytest.mark.parametrize("build", [build_lbf, build_sandwiched])
    def test_tau_one_probes_everything_below_one(self, build):
        filt = build(self.DS, 3000, 1.0, 3)
        assert filt.fp_above == 0.0
        assert assert_matches_reference(filt) < 1.0

    def test_ada_with_no_stage(self):
        part = partition_by_ratio(self.DS, 4, 2.0)
        filt = build_ada(self.DS, 3000, AdaptiveParams(part, (0, 0, 0, 0)), 3)
        assert filt.stages == ()
        assert assert_matches_reference(filt) == math.fsum(part.p_hat) == pytest.approx(1.0)

    def test_disjoint_with_one_group(self):
        filt = build_disjoint(self.DS, 0, 1, 2.0, 3)
        assert filt.stages == () and assert_matches_reference(filt) == 1.0

    def test_disjoint_keyless_group(self):
        # no key scores below 0.1: group 0 takes one reject-all bit with k = 1
        keyless = partition_from_thresholds(self.DS, (0.0, 0.1, 0.6, 1.0))
        filt = build_disjoint_from_partition(self.DS, 3000, keyless, 2.0, 3)
        assert (filt.params.r_per_group[0], keyless.n_per_group[0]) == (1, 0)
        assert filt.filters[0].expected_fpr() == 0.0
        assert assert_matches_reference(filt) > 0.0

    def test_no_nonkeys_is_none(self):
        ds = ScoredDataset([ScoredItem(f"k{i}", i / 10, True) for i in range(10)])
        part = partition_from_thresholds(ds, (0.0, 0.5, 1.0))
        filters = [build_lbf(ds, 100, 0.5, 1), build_sandwiched(ds, 100, 0.5, 1),
                   build_ada(ds, 100, AdaptiveParams(part, (2, 1)), 1),
                   build_disjoint_from_partition(ds, 100, part, 2.0, 1)]
        for filt in filters:
            assert filt.shares is None and filt.expected_fpr() is None
            assert loads_filter(dump_filter(filt)).expected_fpr() is None
            assert_matches_reference(filt)


def test_a_hand_built_table():
    # two stages on one shared array over [0, 0.4) and [0.4, 1], and a stage over the
    # whole axis on its own array; the pieces cut [0, 0.4) in two
    shared = BitVector(1000)
    low = StandardBloom(shared, 3, HashFamily(9), 50)
    high = StandardBloom(shared, 1, HashFamily(9), 80)
    whole = StandardBloom(BitVector(500), 2, HashFamily(9, 1), 130)
    filt = GatedBloom([(0.0, math.inf, whole), (0.0, 0.4, low), (0.4, math.inf, high)], 9,
                      shares=((0.0, 0.2, 0.5), (0.2, 0.4, 0.3), (0.4, math.inf, 0.2)))
    load = 1.0 - (1.0 - 1 / 1000) ** (50 * 3 + 80 * 1)  # both stages load the one array
    whole_fpr = (1.0 - (1.0 - 1 / 500) ** (130 * 2)) ** 2
    want = whole_fpr * (0.5 * load ** 3 + 0.3 * load ** 3 + 0.2 * load)
    assert filt.expected_fpr() == pytest.approx(want, rel=1e-12)
    # a table with no shares has no expected FPR
    assert GatedBloom(filt.stages, 9).expected_fpr() is None


@pytest.mark.parametrize("cls", [LearnedBloom, SandwichedBloom, AdaptiveBloom, DisjointBloom])
def test_defined_once_on_the_table(cls):
    assert "expected_fpr" not in vars(cls) and issubclass(cls, GatedBloom)
    assert cls.expected_fpr is GatedBloom.expected_fpr
