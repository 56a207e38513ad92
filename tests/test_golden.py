"""Golden results: hashes of outputs that a speed-up must not move.

The values were recorded from the per-probe ``np.bitwise_or.at`` insert
and the k > 64 outer-product paths that the slab kernels of ``bits.py``
replaced. Saved containers hold bits set by ``set_hashed``, and the sweep
CSV (timing off) is the reproduction's result, so none of these may change
unless a change of results is intended and said so.

The container hashes were recorded from the per-kind filter classes that
the score-gated stage kernel of ``standard.py`` replaced: the same keys
must set the same bits and the v1 container must keep its byte layout.

The dataset pins were recorded from the one-``ScoredItem``-per-row dataset
that the columnar one replaced: a generated dataset, its CSV and its
fingerprint must keep their bytes.
"""

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from adabloom.adaptive import AdaptiveParams, build_ada
from adabloom.bench import METHODS, rows_to_csv, run_sweep
from adabloom.bits import BitVector, HashFamily
from adabloom.disjoint import build_disjoint, build_disjoint_from_partition
from adabloom.learned import build_lbf, build_sandwiched
from adabloom.scores import (
    gen_synthetic,
    load_scored_csv,
    partition_by_ratio,
    partition_from_thresholds,
    save_scored_csv,
)
from adabloom.serialize import dump_filter, loads_filter
from adabloom.standard import build_standard, optimal_k

# sha256 of BitVector(r).to_bytes() after set_hashed(a, b, k) for the
# lane-0 pairs of ids "g0" .. "g{n-1}" under seed 7, keyed by (n, k, r)
SET_HASHED_SHA256 = {
    (1, 0, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    (1, 0, 3001): "70d6aad73b9cfd0facdee81f4aac5bbf30d603300653623c57f7c26e1c376271",
    (1, 0, 16384): "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
    (1, 1, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (1, 1, 3001): "6996f505d691e84c916f2c387788e7149c2df79f8ba7408d5ab5e96144f23d67",
    (1, 1, 16384): "1c27e65ab8da6d95a60ca08a37ed8efceb5ae2ee8350fa3b0217f5614e5294a5",
    (1, 7, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (1, 7, 3001): "d37ee41d3e4d2fe708555562475c16737fef34f3074bb2838d8ca90a5efa7f1b",
    (1, 7, 16384): "eae209e8dfefddcb0e537819cd9bafa3d1f04fd26581b640daa35ee528c71ad4",
    (1, 65, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (1, 65, 3001): "846b6854ff1a1c4a7598668f01b6ca08f5c4b25ef5c51801a7ed63630c6b88d6",
    (1, 65, 16384): "957a08d9a28de50948059dae34cfdf3d3013fa039f7b84aafdbc7328b75c6707",
    (1, 300, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (1, 300, 3001): "a257f81ab3fc5fd42671965787e0bce033ab36c18a6996ed2e18a718a4f4c955",
    (1, 300, 16384): "7a994bd3814bebf4d733023f9d52007e34a1869a77303f9cbc11a19998d48f92",
    (1, 9000, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (1, 9000, 3001): "abb327e3151af7f932e8824966ec027a290f95d9ac9c081ece7623ba8056413d",
    (1, 9000, 16384): "0ff863f8674b55be74e6c543d7e85394c1c726cc8b1ecebbc7f7ba292222f7d8",
    (30, 0, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    (30, 0, 3001): "70d6aad73b9cfd0facdee81f4aac5bbf30d603300653623c57f7c26e1c376271",
    (30, 0, 16384): "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
    (30, 1, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (30, 1, 3001): "c2a0602e54e62adc2476763e8678b46456132653f7158288be49f15affe6c665",
    (30, 1, 16384): "2ab1237c992666e0fbd3c57ab139256c83b6bf6091a78a13c98896b02c8a4b38",
    (30, 7, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (30, 7, 3001): "38d63254fc0b7685a5c064d8af1a7c11ca75ff4247e089834444dcf78d2a79b4",
    (30, 7, 16384): "3fe3e73713bacfc2cd2ab761970f8b827291101fe0711bea142e7e2286cb4330",
    (30, 65, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (30, 65, 3001): "222b568ff57373c8d853f8534f7bedd085b164a1ae2bef84948ca048e8ff0ecf",
    (30, 65, 16384): "13a95d1ef2f154172fc99a729a9d94cf47a104cb807128bcc438fd090696d855",
    (30, 300, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (30, 300, 3001): "bacf19d9fa10adf2cff5e0d35edd8801ad5f7ec9597a140eb46166299d04a48e",
    (30, 300, 16384): "ac909821f07fdbc253d1d21ea79ac4d9e39cdf605cc0b34ac571de2816f7ac56",
    (30, 9000, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (30, 9000, 3001): "abb327e3151af7f932e8824966ec027a290f95d9ac9c081ece7623ba8056413d",
    (30, 9000, 16384): "d0ff1b294b5288d1ae1421eadf5b2d38a8752b76d472ff30bed9028e25b1c5b8",
    (5000, 0, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    (5000, 0, 3001): "70d6aad73b9cfd0facdee81f4aac5bbf30d603300653623c57f7c26e1c376271",
    (5000, 0, 16384): "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
    (5000, 1, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (5000, 1, 3001): "2c73dc6a713f15aeec499a5fc1720ae6db36eb1c72b982531d70c2bf5d8574b9",
    (5000, 1, 16384): "2670ef0bf05d6f5c3c8c430a1a081930b054516fa3a19a8a40aeb0e78a26ad4d",
    (5000, 7, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (5000, 7, 3001): "abb327e3151af7f932e8824966ec027a290f95d9ac9c081ece7623ba8056413d",
    (5000, 7, 16384): "25b8860015a3fd89b2e9789f2b99ccb0d3a32e6de57f69568b796a6b4c1678a2",
    (5000, 65, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (5000, 65, 3001): "abb327e3151af7f932e8824966ec027a290f95d9ac9c081ece7623ba8056413d",
    (5000, 65, 16384): "d0ff1b294b5288d1ae1421eadf5b2d38a8752b76d472ff30bed9028e25b1c5b8",
    (5000, 300, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (5000, 300, 3001): "abb327e3151af7f932e8824966ec027a290f95d9ac9c081ece7623ba8056413d",
    (5000, 300, 16384): "d0ff1b294b5288d1ae1421eadf5b2d38a8752b76d472ff30bed9028e25b1c5b8",
    (5000, 9000, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    (5000, 9000, 3001): "abb327e3151af7f932e8824966ec027a290f95d9ac9c081ece7623ba8056413d",
    (5000, 9000, 16384): "d0ff1b294b5288d1ae1421eadf5b2d38a8752b76d472ff30bed9028e25b1c5b8",
}

# sha256 of rows_to_csv(run_sweep(...)) with timing off
SWEEP_SMALL_SHA256 = "0dd654569260e3420312aa6f4b9da3682483dff38ed57d163245e14a17413805"
SWEEP_QUICK_SHA256 = "7431648c9fae0940e09c92c93ddd2d1318ee1b67656a9212bb4b663fe4a70895"

# gen_synthetic(2000, 2000, seed=3): its fingerprint(), and the sha256 and
# size of its save_scored_csv file
DATASET_FINGERPRINT = "cf36da6d65be978166630e0c77cf580708e3bd71dc9be24fc31aec7be8121dd2"
DATASET_CSV_SHA256 = "4e70219c79f89c1df90640a9be6b8f472ae1c6e41edeb1280130eb125cd81066"
DATASET_CSV_BYTES = 135_311

# the grids of scripts/reproduce_tradeoff.py --quick
QUICK_GRIDS = dict(tau_grid=(0.3, 0.5, 0.7, 0.8, 0.9), kmax_grid=(4, 8, 12),
                   c_grid=(1.6, 2.2, 2.8), g_grid=(4, 8, 12))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", (1, 30, 5000))
def test_set_hashed_golden(n):
    fam = HashFamily(7)
    a, b = fam.remix_pairs(*fam.base_pairs(f"g{i}" for i in range(n)))
    for k, r in itertools.product((0, 1, 7, 65, 300, 9000), (1, 3001, 2**14)):
        bv = BitVector(r)
        bv.set_hashed(a, b, k)
        assert _sha256(bv.to_bytes()) == SET_HASHED_SHA256[(n, k, r)], (n, k, r)


def test_dataset_golden(tmp_path):
    dataset = gen_synthetic(2000, 2000, seed=3)
    assert dataset.fingerprint() == DATASET_FINGERPRINT
    path, again = tmp_path / "ds.csv", tmp_path / "again.csv"
    save_scored_csv(dataset, path)
    data = path.read_bytes()
    assert (_sha256(data), len(data)) == (DATASET_CSV_SHA256, DATASET_CSV_BYTES)
    loaded = load_scored_csv(path)
    assert loaded.fingerprint() == DATASET_FINGERPRINT
    save_scored_csv(loaded, again)
    assert again.read_bytes() == data


def test_sweep_golden_small():
    dataset = gen_synthetic(2000, 2000, seed=7)
    rows = run_sweep(dataset, [6000, 12000], METHODS, seeds=[7])
    assert _sha256(rows_to_csv(rows).encode()) == SWEEP_SMALL_SHA256


def test_sweep_golden_quick(synth_bench):
    # scripts/reproduce_tradeoff.py --quick: 50k/50k, seed 7, 50/200/350/500 Kb
    rows = run_sweep(synth_bench, [50_000, 200_000, 350_000, 500_000], METHODS,
                     seeds=[7], **QUICK_GRIDS)
    assert _sha256(rows_to_csv(rows).encode()) == SWEEP_QUICK_SHA256


# sha256 of dump_filter(filter) for the filters built by container_fixtures,
# whose v1 bytes are committed as V1_FIXTURES / "<name>.adbf"
V1_FIXTURES = Path(__file__).parent / "data" / "v1"
DUMP_SHA256 = {
    "standard": "18fce1b0a174c672155b13862b4a41889789fef15fecbb10f7db4dd00a877c03",
    "lbf": "355889b6b3437cf5a9c7b8340c60c4e9e1f8352bd1ca147f9341287541e1dcfa",
    "sandwich": "8e250f2c4345a67ecb69d366fc6a07ac76095618d231baf3aec3e5d3db6dc644",
    "ada": "2fc70640d0deddd06370594d2312ce9ac63204c1437d82806d2c98d2a01c1ef4",
    "disjoint": "ab0bd495f09f4eb58ff9ece7a683654eb321bc36eea4dae21bda75d15170ac50",
    "lbf_tau0": "d3f525442a02cffab08adf32a60ec0e4feff8c6869bbb3c81795bb29b476ef4d",
    "sandwich_reduced": "ad77342ec7fa3fcc833138ed97252b529f5dc1f55c469c4c961b1bcab4578ffe",
    "ada_flat": "17175d36692b9ea4049ddc76169a33887325c5e8df63741d8657f1eb49a71543",
    "disjoint_keyless": "96cc22528aba5bdc7210932856ab6bb7b5db0d9039efd7e6356d1469fbbd7844",
    "disjoint_g1": "f390361f024fbda52ca835c7c189f114d3ae1cc564d2b47401f07dc6d1a0f91b",
}


@pytest.fixture(scope="module")
def container_fixtures():
    ds = gen_synthetic(400, 400, seed=3)
    part = partition_by_ratio(ds, 4, 2.0)
    # no key scores below 0.1 (the lowest is 0.234), so group 0 holds no key
    keyless = partition_from_thresholds(ds, (0.0, 0.1, 0.6, 1.0))
    filters = {
        "standard": build_standard([it.id for it in ds.keys], 3000, optimal_k(3000, ds.n), 3),
        "lbf": build_lbf(ds, 3000, 0.6, 3),
        "sandwich": build_sandwiched(ds, 3000, 0.6, 3),
        "ada": build_ada(ds, 3000, AdaptiveParams.from_ratio(part, 3, 0, 2.0), 3),
        "disjoint": build_disjoint(ds, 3000, 4, 2.0, 3),
        "lbf_tau0": build_lbf(ds, 3000, 0.0, 3),
        "sandwich_reduced": build_sandwiched(ds, 300, 0.6, 3),
        "ada_flat": build_ada(ds, 3000, AdaptiveParams(part, (2, 2, 2, 2)), 3),
        "disjoint_keyless": build_disjoint_from_partition(ds, 3000, keyless, 2.0, 3),
        "disjoint_g1": build_disjoint(ds, 0, 1, 2.0, 3),
    }
    assert filters["sandwich"].initial is not None
    assert filters["sandwich_reduced"].reduced_to_lbf
    assert keyless.n_per_group[0] == 0
    return ds, filters


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_dump_golden(name, container_fixtures):
    _, filters = container_fixtures
    assert _sha256(dump_filter(filters[name])) == DUMP_SHA256[name]


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_loaded_fixture_answers_like_built(name, container_fixtures):
    ds, filters = container_fixtures
    _assert_answers_like(filters[name], loads_filter(dump_filter(filters[name])), ds)


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_committed_v1_container_loads_and_dumps_back(name, container_fixtures):
    # tests/data/v1 holds the bytes that the v1 writer wrote, one file per pin;
    # a field read back into the wrong place dumps different bytes
    ds, filters = container_fixtures
    data = (V1_FIXTURES / f"{name}.adbf").read_bytes()
    assert _sha256(data) == DUMP_SHA256[name]
    loaded = loads_filter(data)
    assert dump_filter(loaded) == data
    _assert_answers_like(filters[name], loaded, ds)


def _assert_answers_like(built, loaded, ds):
    """``loaded`` answers 567 probes (every third item, 300 fresh ids) as ``built`` does."""
    rng = np.random.default_rng(17)
    ids = [it.id for it in ds.items[::3]] + [f"fresh-{i}" for i in range(300)]
    scores = np.concatenate([[it.score for it in ds.items[::3]], rng.uniform(0, 1, 300)])
    a, b = HashFamily(built.seed).base_pairs(ids)
    answers = built.contains_batch(a, b, scores)
    assert answers.tolist() == loaded.contains_batch(a, b, scores).tolist()
    assert answers.tolist() == [loaded.contains(i, s) for i, s in zip(ids, scores.tolist())]
    assert answers[:len(ds.items[::3])][[it.is_key for it in ds.items[::3]]].all()
