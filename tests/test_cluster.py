from __future__ import annotations

import numpy as np
import pytest

from andlib import cluster
from andlib.blocking import Block, build_blocks
from andlib.cluster import (
    ClusterParams,
    DistanceMatrix,
    cluster_corpus,
    dbscan_cluster,
    distance_matrices,
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

    @pytest.mark.parametrize("min_samples", [1, 2])
    def test_vetoed_pair_never_neighbours_even_at_eps_one(self, min_samples):
        # a vetoed pair sits at distance 1.0, which eps = 1.0 used to reach
        vetoed = [[False, True], [True, False]]
        D = matrix([[0, 1], [1, 0]], veto=vetoed, members="ab")
        part = cluster.cluster_block(
            D, ClusterParams(method="dbscan", eps=1.0, dbscan_min_samples=min_samples)
        )
        assert groups(part) == {frozenset("a"), frozenset("b")}
        assert groups(hac_cluster(D, "single", eps=1.0)) == groups(part)

    def test_vetoed_pair_joins_through_a_third_record(self):
        vetoed = [[False, True, False], [True, False, False], [False, False, False]]
        D = matrix([[0, 1, 0.2], [1, 0, 0.2], [0.2, 0.2, 0]], veto=vetoed, members="abc")
        assert groups(dbscan_cluster(D, eps=1.0, min_samples=1)) == {frozenset("abc")}


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
        D = distance_matrices([blocks[0]], ens, ds, counts)[0]
        n = len(blocks[0].members)
        assert D.d.shape == (n, n)
        assert np.array_equal(D.d, D.d.T)
        assert np.all(np.diag(D.d) == 0.0)
        assert np.all(D.d >= 0.0) and np.all(D.d <= 1.0)
        from andlib.features import featurize_pairs

        sigs = [ds.signatures[m] for m in blocks[0].members[:2]]
        p = ens.predict_from_features(featurize_pairs(sigs, [0], [1], ds, counts, schema))
        assert D.d[0, 1] == pytest.approx(1.0 - p[0], abs=1e-15)

    def test_equals_one_minus_ensemble_of_same_rows_with_vetoes(self, trained, monkeypatch):
        ds, ens, counts, schema = trained
        from andlib.blocking import normalize_name
        from andlib.features import featurize_pairs

        blocks = build_blocks(ds)
        # the reference scores each block on its own
        reference = []
        for block in blocks:
            n = len(block.members)
            sigs = [ds.signatures[m] for m in block.members]
            ii, jj = np.triu_indices(n, k=1)
            X = featurize_pairs(sigs, ii, jj, ds, counts, schema)
            firsts = [normalize_name(s.first, s.middle, s.last).first for s in sigs]
            want = np.zeros((n, n))
            want[ii, jj] = want[jj, ii] = 1.0 - ens.predict_from_features(X)
            want_veto = np.zeros((n, n), dtype=bool)
            for i, j in zip(ii, jj):
                if not names_compatible(firsts[i], firsts[j]):
                    want[i, j] = want[j, i] = 1.0
                    want_veto[i, j] = want_veto[j, i] = True
            reference.append((want, want_veto))
        assert sum(int(v.sum()) for _, v in reference) > 0

        ends = np.cumsum([len(b.members) * (len(b.members) - 1) // 2 for b in blocks])
        runs = []
        for batch_pairs in (cluster.SCORE_BATCH_PAIRS, 1, 60):
            monkeypatch.setattr(cluster, "SCORE_BATCH_PAIRS", batch_pairs)
            if batch_pairs == 60:
                # a band boundary falls inside a block, which two bands
                # then score in slices, and another band spans blocks
                cuts = np.arange(60, ends[-1], 60)
                inside = np.searchsorted(ends, cuts, side="right")
                assert np.any((cuts > np.append(0, ends)[inside]) & (cuts < ends[inside]))
                assert np.any(np.diff(np.searchsorted(ends, np.append(0, cuts), side="right")) > 1)
            matrices = distance_matrices(blocks, ens, ds, counts)
            assert [D.block for D in matrices] == blocks
            for D, (want, want_veto) in zip(matrices, reference):
                assert np.array_equal(D.d, want)
                assert np.array_equal(D.veto, want_veto)
            runs.append([(D.d.tobytes(), D.veto.tobytes()) for D in matrices])
        assert runs[0] == runs[1] == runs[2]

    def test_scoring_memory_is_bounded_by_the_band(self, trained):
        # one block of 500 signatures has 124,750 pairs, whose whole feature
        # matrix would take 124,750 x 39 x 8 bytes (38.9 MB); scoring it in
        # bands must peak below half of that
        import tracemalloc

        from andlib.synthetic import GeneratorConfig, generate_synthetic_corpus

        _, ens, _, schema = trained
        ds = generate_synthetic_corpus(5, GeneratorConfig(n_authors=110, mean_papers=5, collision_rate=0.25))
        counts = build_name_counts(ds)
        block = Block("everyone", tuple(sorted(ds.signatures))[:500])
        n = len(block.members)
        assert n == 500
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            (D,) = distance_matrices([block], ens, ds, counts)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert D.d.shape == (n, n)
        assert peak < n * (n - 1) // 2 * len(schema) * 8 / 2

    def test_singleton(self, trained):
        ds, ens, counts, schema = trained
        block = Block("solo", (sorted(ds.signatures)[0],))
        D = distance_matrices([block], ens, ds, counts)[0]
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
            D = distance_matrices([block], ens, ds, counts)[0]
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    if names[i] and names[j] and not names_compatible(names[i], names[j]):
                        assert D.d[i, j] == 1.0
                        assert D.veto[i, j]

    def test_rules_disabled(self, trained):
        ds, ens, counts, schema = trained
        for block in build_blocks(ds):
            D = distance_matrices([block], ens, ds, counts, name_rules=False)[0]
            assert not D.veto.any()


class TestTuneEps:
    def test_budget_one_single_probe(self, trained):
        ds, ens, counts, schema = trained
        val_blocks = [
            b for b in build_blocks(ds) if ds.splits.get(b.key) == "val"
        ]
        eps1, f1_a = tune_eps(
            val_blocks, ens, ds, counts, ds.gold, budget=1, seed=5
        )
        eps2, f1_b = tune_eps(
            val_blocks, ens, ds, counts, ds.gold, budget=1, seed=5
        )
        assert eps1 == eps2 and f1_a == f1_b

    def test_all_singleton_gold_drives_eps_down(self, trained):
        ds, ens, counts, schema = trained
        blocks = [b for b in build_blocks(ds) if len(b.members) >= 2]
        block = blocks[0]
        gold = Partition({m: f"solo{i}" for i, m in enumerate(block.members)})
        eps, f1 = tune_eps(
            [block], ens, ds, counts, gold, budget=30, seed=0
        )
        part = hac_cluster(
            distance_matrices([block], ens, ds, counts)[0], "average", eps
        )
        assert f1 == 1.0
        assert len(part.clusters()) == len(block.members)

    def test_beats_unprobed_grid(self, trained):
        ds, ens, counts, schema = trained
        val_blocks = [
            b for b in build_blocks(ds) if ds.splits.get(b.key) == "val"
        ]
        eps, best = tune_eps(
            val_blocks, ens, ds, counts, ds.gold, budget=40, seed=2
        )
        matrices = [
            distance_matrices([b], ens, ds, counts)[0] for b in val_blocks
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

    def test_every_setting_but_eps_comes_from_params(self, trained):
        from dataclasses import replace

        from andlib.metrics import b3

        ds, ens, counts, schema = trained
        val_blocks = [b for b in build_blocks(ds) if ds.splits.get(b.key) == "val"]
        params = ClusterParams(
            linkage="single", eps=0.0, method="dbscan", dbscan_min_samples=3,
            name_rules=False,
        )
        eps, f1 = tune_eps(val_blocks, ens, ds, counts, ds.gold, params, budget=6, seed=3)
        matrices = distance_matrices(val_blocks, ens, ds, counts, name_rules=False)
        assignment = {}
        for bi, D in enumerate(matrices):
            part = cluster.cluster_block(D, replace(params, eps=eps))
            for sig, local in part.assignment.items():
                assignment[sig] = f"{bi}:{local}"
        assert f1 == b3(Partition(assignment), ds.gold.restrict(assignment)).f1

    def test_empty_blocks_rejected(self, trained):
        ds, ens, counts, schema = trained
        with pytest.raises(ConfigError):
            tune_eps([], ens, ds, counts, ds.gold, budget=2, seed=0)


class TestClusterCorpus:
    def test_every_signature_assigned_once(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        part = cluster_corpus(ds, ens, params, counts)
        assert set(part.assignment) == set(ds.signatures)

    def test_deterministic(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        a = cluster_corpus(ds, ens, params, counts)
        b = cluster_corpus(ds, ens, params, counts)
        assert a == b

    def test_jobs_do_not_change_result(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        serial = cluster_corpus(ds, ens, params, counts, jobs=1)
        parallel = cluster_corpus(ds, ens, params, counts, jobs=2)
        assert serial == parallel

    def test_jobs_over_several_groups_do_not_change_result(self, trained, monkeypatch):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        serial = cluster_corpus(ds, ens, params, counts, jobs=1)
        monkeypatch.setattr(cluster, "SCORE_BATCH_PAIRS", 60)
        assert len(cluster._score_groups(build_blocks(ds))) > 2
        assert cluster_corpus(ds, ens, params, counts, jobs=2) == serial

    def test_jobs_start_no_more_workers_than_groups(self, trained, monkeypatch):
        import multiprocessing

        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.5)
        serial = cluster_corpus(ds, ens, params, counts, jobs=1)
        monkeypatch.setattr(cluster, "SCORE_BATCH_PAIRS", 60)
        n_groups = len(cluster._score_groups(build_blocks(ds)))
        assert 2 < n_groups < 64
        started = []

        class InProcessPool:
            """Records its size and runs the groups in this process."""

            def __init__(self, processes, initializer, initargs):
                started.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                cluster._WORKER_STATE.clear()

            def map(self, fn, items):
                return list(map(fn, items))

        class Context:
            Pool = InProcessPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda *args: Context())
        assert cluster_corpus(ds, ens, params, counts, jobs=64) == serial
        assert started == [n_groups]

    @pytest.mark.parametrize("batch_pairs", [None, 60])
    def test_one_ensemble_predict_per_group(self, trained, batch_pairs, monkeypatch):
        ds, ens, counts, schema = trained
        if batch_pairs is not None:
            monkeypatch.setattr(cluster, "SCORE_BATCH_PAIRS", batch_pairs)
        calls = []
        original = EnsembleClassifier.predict_from_features

        def counting(self, X):
            calls.append(len(X))
            return original(self, X)

        monkeypatch.setattr(EnsembleClassifier, "predict_from_features", counting)
        blocks = build_blocks(ds)
        cluster_corpus(ds, ens, ClusterParams(eps=0.5), counts)
        total = sum(len(b.members) * (len(b.members) - 1) // 2 for b in blocks)
        assert len(calls) < len(blocks)
        assert sum(calls) == total
        if batch_pairs is None:
            assert calls == [total]
        else:
            # every band holds exactly batch_pairs rows but the last
            assert len(calls) > 2
            full, rest = divmod(total, batch_pairs)
            assert calls == [batch_pairs] * full + ([rest] if rest else [])

    def test_serial_run_keeps_no_reference_to_its_inputs(self, trained):
        import dataclasses
        import gc
        import weakref

        ds, ens, counts, schema = trained
        ds = dataclasses.replace(ds)
        ens = dataclasses.replace(ens)
        refs = [weakref.ref(ds), weakref.ref(ens)]
        cluster_corpus(ds, ens, ClusterParams(eps=0.5), counts, jobs=1)
        del ds, ens
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_names_are_normalized_only_when_signatures_are_built(
        self, trained, monkeypatch
    ):
        from andlib import blocking

        ds, ens, counts, schema = trained
        calls = []
        real = blocking.normalize_name
        monkeypatch.setattr(
            blocking, "normalize_name", lambda *args: calls.append(args) or real(*args)
        )
        cluster_corpus(ds, ens, ClusterParams(eps=0.5), counts)
        build_name_counts(ds)
        assert calls == []

    def test_eps_zero_gives_singletons(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="average", eps=0.0)
        part = cluster_corpus(ds, ens, params, counts)
        assert len(part.clusters()) == len(ds.signatures)

    def test_cluster_ids_globally_unique(self, trained):
        ds, ens, counts, schema = trained
        params = ClusterParams(linkage="single", eps=0.9)
        part = cluster_corpus(ds, ens, params, counts)
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
