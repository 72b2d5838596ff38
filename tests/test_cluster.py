from __future__ import annotations

import numpy as np
import pytest

from andlib.blocking import Block, build_blocks
from andlib.cluster import (
    ClusterParams,
    DistanceMatrix,
    NameRules,
    cluster_corpus,
    dbscan_cluster,
    distance_matrix,
    hac_cluster,
    names_compatible,
    tune_eps,
)
from andlib.corpus import Partition, build_name_counts, split_blocks
from andlib.errors import ConfigError
from andlib.features import default_schema
from andlib.gbt import HyperParams
from andlib.model import EnsembleClassifier, sample_pairs, train_gbt
from oracles import naive_dbscan, naive_hac, naive_ward


def matrix(d, veto=None, members=None):
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    members = tuple(members or (f"m{i}" for i in range(n)))
    veto = np.zeros((n, n), dtype=bool) if veto is None else np.asarray(veto, dtype=bool)
    return DistanceMatrix(block=Block("k", members), d=d, veto=veto)


def groups(partition: Partition) -> set[frozenset[str]]:
    return set(partition.clusters().values())


def index_groups(partition: Partition, members) -> set[frozenset[int]]:
    pos = {m: i for i, m in enumerate(members)}
    return {
        frozenset(pos[m] for m in cluster)
        for cluster in partition.clusters().values()
    }


def random_distance_matrix(rng, n):
    d = rng.uniform(0, 1, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return d


class TestHacHandTraces:
    def test_eps_zero_all_singletons(self):
        D = matrix([[0, 0.2, 0.3], [0.2, 0, 0.4], [0.3, 0.4, 0]])
        part = hac_cluster(D, "average", eps=0.0)
        assert len(groups(part)) == 3

    def test_eps_one_single_linkage_one_cluster(self):
        rng = np.random.Generator(np.random.PCG64(0))
        d = random_distance_matrix(rng, 6) * 0.9
        part = hac_cluster(matrix(d), "single", eps=1.0)
        assert len(groups(part)) == 1

    def test_three_point_average_trace(self):
        # first merge at 0.1; remaining average distance (0.9+0.9)/2 > eps
        D = matrix([[0, 0.1, 0.9], [0.1, 0, 0.9], [0.9, 0.9, 0]], members="abc")
        part = hac_cluster(D, "average", eps=0.5)
        assert groups(part) == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_singleton_block(self):
        D = matrix([[0.0]], members=["only"])
        part = hac_cluster(D, "average", eps=0.3)
        assert part.assignment == {"only": "0"}

    def test_merge_at_exact_eps_allowed(self):
        D = matrix([[0, 0.5], [0.5, 0]], members="ab")
        part = hac_cluster(D, "average", eps=0.5)
        assert len(groups(part)) == 1

    def test_unknown_linkage(self):
        with pytest.raises(ConfigError):
            hac_cluster(matrix([[0, 1], [1, 0]]), "median", 0.5)


class TestHacOracleEquivalence:
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_random_matrices(self, linkage):
        rng = np.random.Generator(np.random.PCG64(42))
        for _ in range(25):
            n = int(rng.integers(2, 24))
            d = random_distance_matrix(rng, n)
            eps = float(rng.uniform(0, 1))
            D = matrix(d)
            fast = index_groups(hac_cluster(D, linkage, eps), D.block.members)
            slow = naive_hac(d, D.veto, linkage, eps)
            assert fast == slow

    def test_ward_matches_lance_williams_oracle(self):
        rng = np.random.Generator(np.random.PCG64(43))
        for _ in range(25):
            n = int(rng.integers(2, 24))
            d = random_distance_matrix(rng, n)
            eps = float(rng.uniform(0, 1))
            D = matrix(d)
            fast = index_groups(hac_cluster(D, "ward", eps), D.block.members)
            slow = naive_ward(d, D.veto, eps)
            assert fast == slow

    def test_with_vetoes(self):
        rng = np.random.Generator(np.random.PCG64(44))
        for _ in range(10):
            n = int(rng.integers(3, 16))
            d = random_distance_matrix(rng, n)
            veto = rng.uniform(0, 1, (n, n)) < 0.2
            veto = veto | veto.T
            np.fill_diagonal(veto, False)
            d[veto] = 1.0
            D = matrix(d, veto=veto)
            fast = index_groups(hac_cluster(D, "average", 0.9), D.block.members)
            slow = naive_hac(d, veto, "average", 0.9)
            assert fast == slow

    def test_permutation_invariance(self):
        rng = np.random.Generator(np.random.PCG64(45))
        n = 12
        d = random_distance_matrix(rng, n)
        members = [f"m{i}" for i in range(n)]
        base = {
            frozenset(c)
            for c in hac_cluster(matrix(d, members=members), "average", 0.6)
            .clusters()
            .values()
        }
        perm = rng.permutation(n)
        d2 = d[np.ix_(perm, perm)]
        members2 = [members[i] for i in perm]
        permuted = {
            frozenset(c)
            for c in hac_cluster(matrix(d2, members=members2), "average", 0.6)
            .clusters()
            .values()
        }
        assert base == permuted


class TestCoarsening:
    def test_larger_eps_coarsens(self):
        rng = np.random.Generator(np.random.PCG64(46))
        for _ in range(30):
            n = int(rng.integers(2, 24))
            d = random_distance_matrix(rng, n)
            e1, e2 = sorted(rng.uniform(0, 1, size=2))
            D = matrix(d)
            fine = hac_cluster(D, "average", e1).clusters()
            coarse_assign = hac_cluster(D, "average", e2).assignment
            for members in fine.values():
                labels = {coarse_assign[m] for m in members}
                assert len(labels) == 1, "finer cluster split by larger eps"


class TestDbscan:
    def test_min_samples_one_is_connected_components(self):
        d = np.array(
            [
                [0.0, 0.1, 0.9, 0.9],
                [0.1, 0.0, 0.9, 0.9],
                [0.9, 0.9, 0.0, 0.1],
                [0.9, 0.9, 0.1, 0.0],
            ]
        )
        part = dbscan_cluster(matrix(d, members="abcd"), eps=0.2, min_samples=1)
        assert groups(part) == {frozenset({"a", "b"}), frozenset({"c", "d"})}

    def test_all_far_apart_all_singletons(self):
        d = random_distance_matrix(np.random.Generator(np.random.PCG64(1)), 5)
        d = 0.5 + d / 2
        np.fill_diagonal(d, 0.0)
        part = dbscan_cluster(matrix(d), eps=0.3, min_samples=2)
        assert len(groups(part)) == 5

    def test_five_point_fixture_matches_oracle(self):
        d = np.array(
            [
                [0.0, 0.2, 0.25, 0.9, 0.9],
                [0.2, 0.0, 0.2, 0.9, 0.9],
                [0.25, 0.2, 0.0, 0.9, 0.9],
                [0.9, 0.9, 0.9, 0.0, 0.1],
                [0.9, 0.9, 0.9, 0.1, 0.0],
            ]
        )
        for min_samples in (1, 2, 3, 4):
            D = matrix(d)
            fast = index_groups(
                dbscan_cluster(D, eps=0.3, min_samples=min_samples), D.block.members
            )
            assert fast == naive_dbscan(d, 0.3, min_samples)

    def test_random_matrices_match_oracle(self):
        rng = np.random.Generator(np.random.PCG64(47))
        for _ in range(40):
            n = int(rng.integers(2, 20))
            d = random_distance_matrix(rng, n)
            eps = float(rng.uniform(0.1, 0.9))
            ms = int(rng.integers(1, 5))
            D = matrix(d)
            fast = index_groups(dbscan_cluster(D, eps, ms), D.block.members)
            assert fast == naive_dbscan(d, eps, ms)


class TestNamesCompatible:
    @pytest.mark.parametrize(
        "a,b,ok",
        [
            ("john", "john", True),
            ("j", "john", True),
            ("jo", "john", True),
            ("", "john", True),
            ("john", "james", False),
            ("dana", "daniel", False),
        ],
    )
    def test_rule(self, a, b, ok):
        assert names_compatible(a, b) is ok
        assert names_compatible(b, a) is ok


@pytest.fixture(scope="module")
def trained(small_corpus):
    ds = split_blocks(small_corpus, seed=1)
    schema = default_schema()
    counts = build_name_counts(ds)
    pairs = sample_pairs(ds, "train", 5000, 0, counts, schema)
    hp = HyperParams(n_trees=40, max_leaves=12)
    full = train_gbt(pairs.X, pairs.y, hp, schema.monotone_constraints(), 0, schema)
    from andlib.features import mask_nameless

    masked = mask_nameless(pairs.X, schema)
    nameless = train_gbt(masked, pairs.y, hp, schema.monotone_constraints(), 1, schema)
    ens = EnsembleClassifier(full, nameless, schema)
    return ds, ens, counts, schema


class TestDistanceMatrix:
    def test_complement_and_symmetry(self, trained):
        ds, ens, counts, schema = trained
        blocks = [b for b in build_blocks(ds) if len(b.members) >= 3]
        D = distance_matrix(blocks[0], ens, ds, counts, schema)
        n = len(blocks[0].members)
        assert D.d.shape == (n, n)
        assert np.array_equal(D.d, D.d.T)
        assert np.all(np.diag(D.d) == 0.0)
        assert np.all(D.d >= 0.0) and np.all(D.d <= 1.0)
        from andlib.features import featurize_pair

        v = featurize_pair(
            ds.signatures[blocks[0].members[0]],
            ds.signatures[blocks[0].members[1]],
            ds,
            counts,
            schema,
        )
        p = ens.predict_from_features(np.stack([v]))
        assert D.d[0, 1] == pytest.approx(1.0 - p[0], abs=1e-15)

    def test_equals_one_minus_ensemble_of_same_rows_with_vetoes(self, trained):
        ds, ens, counts, schema = trained
        from andlib.blocking import normalize_name
        from andlib.features import featurize_pairs

        vetoed = 0
        for block in build_blocks(ds):
            n = len(block.members)
            if n < 2:
                continue
            sigs = [ds.signatures[m] for m in block.members]
            ii, jj = np.triu_indices(n, k=1)
            X = featurize_pairs(
                [(sigs[i], sigs[j]) for i, j in zip(ii, jj)], ds, counts, schema
            )
            firsts = [normalize_name(s.first, s.middle, s.last).first for s in sigs]
            want = np.zeros((n, n))
            want[ii, jj] = want[jj, ii] = 1.0 - ens.predict_from_features(X)
            want_veto = np.zeros((n, n), dtype=bool)
            for i, j in zip(ii, jj):
                if not names_compatible(firsts[i], firsts[j]):
                    want[i, j] = want[j, i] = 1.0
                    want_veto[i, j] = want_veto[j, i] = True
            D = distance_matrix(block, ens, ds, counts, schema)
            assert np.array_equal(D.d, want)
            assert np.array_equal(D.veto, want_veto)
            vetoed += int(want_veto.sum())
        assert vetoed > 0

    def test_singleton(self, trained):
        ds, ens, counts, schema = trained
        block = Block("solo", (sorted(ds.signatures)[0],))
        D = distance_matrix(block, ens, ds, counts, schema)
        assert D.d.shape == (1, 1) and D.d[0, 0] == 0.0

    def test_incompatible_names_overridden(self, trained):
        ds, ens, counts, schema = trained
        from andlib.blocking import normalize_name

        for block in build_blocks(ds):
            names = [
                normalize_name(
                    ds.signatures[m].first, None, ds.signatures[m].last
                ).first
                for m in block.members
            ]
            D = distance_matrix(block, ens, ds, counts, schema)
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    if names[i] and names[j] and not names_compatible(names[i], names[j]):
                        assert D.d[i, j] == 1.0
                        assert D.veto[i, j]

    def test_rules_disabled(self, trained):
        ds, ens, counts, schema = trained
        for block in build_blocks(ds):
            D = distance_matrix(
                block, ens, ds, counts, schema, rules=NameRules(enabled=False)
            )
            assert not D.veto.any()


class TestTuneEps:
    def test_budget_one_single_probe(self, trained):
        ds, ens, counts, schema = trained
        val_blocks = [
            b for b in build_blocks(ds) if ds.splits.get(b.key) == "val"
        ]
        eps1, f1_a = tune_eps(
            val_blocks, ens, ds, counts, schema, ds.gold, budget=1, seed=5
        )
        eps2, f1_b = tune_eps(
            val_blocks, ens, ds, counts, schema, ds.gold, budget=1, seed=5
        )
        assert eps1 == eps2 and f1_a == f1_b

    def test_all_singleton_gold_drives_eps_down(self, trained):
        ds, ens, counts, schema = trained
        blocks = [b for b in build_blocks(ds) if len(b.members) >= 2]
        block = blocks[0]
        gold = Partition({m: f"solo{i}" for i, m in enumerate(block.members)})
        eps, f1 = tune_eps(
            [block], ens, ds, counts, schema, gold, budget=30, seed=0
        )
        part = hac_cluster(
            distance_matrix(block, ens, ds, counts, schema), "average", eps
        )
        assert f1 == 1.0
        assert len(part.clusters()) == len(block.members)

    def test_beats_unprobed_grid(self, trained):
        ds, ens, counts, schema = trained
        val_blocks = [
            b for b in build_blocks(ds) if ds.splits.get(b.key) == "val"
        ]
        eps, best = tune_eps(
            val_blocks, ens, ds, counts, schema, ds.gold, budget=40, seed=2
        )
        matrices = [
            distance_matrix(b, ens, ds, counts, schema) for b in val_blocks
        ]
        from andlib.metrics import b3

        members = [m for b in val_blocks for m in b.members]
        gold_sub = ds.gold.restrict(members)
        for grid_eps in np.linspace(0.05, 0.95, 10):
            assignment = {}
            for bi, D in enumerate(matrices):
                part = hac_cluster(D, "average", float(grid_eps))
                for sig, local in part.assignment.items():
                    assignment[sig] = f"{bi}:{local}"
            assert best >= b3(Partition(assignment), gold_sub).f1 - 1e-12

    def test_empty_blocks_rejected(self, trained):
        ds, ens, counts, schema = trained
        with pytest.raises(ConfigError):
            tune_eps([], ens, ds, counts, schema, ds.gold, budget=2, seed=0)


class TestClusterCorpus:
    def test_every_signature_assigned_once(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        part = cluster_corpus(ds, ens, params, counts, schema)
        assert set(part.assignment) == set(ds.signatures)

    def test_deterministic(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        a = cluster_corpus(ds, ens, params, counts, schema)
        b = cluster_corpus(ds, ens, params, counts, schema)
        assert a == b

    def test_jobs_do_not_change_result(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        serial = cluster_corpus(ds, ens, params, counts, schema, jobs=1)
        parallel = cluster_corpus(ds, ens, params, counts, schema, jobs=2)
        assert serial == parallel

    def test_eps_zero_gives_singletons(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.0)
        part = cluster_corpus(ds, ens, params, counts, schema)
        assert len(part.clusters()) == len(ds.signatures)

    def test_cluster_ids_globally_unique(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="single", eps=0.9)
        part = cluster_corpus(ds, ens, params, counts, schema)
        blocks = build_blocks(ds)
        owner = {}
        for block in blocks:
            for m in block.members:
                cid = part.assignment[m]
                assert owner.setdefault(cid, block.key) == block.key


class TestClusterParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterParams(eps=1.5)
        with pytest.raises(ConfigError):
            ClusterParams(linkage="bogus")
        with pytest.raises(ConfigError):
            ClusterParams(method="kmeans")
        with pytest.raises(ConfigError):
            ClusterParams(dbscan_min_samples=0)
