from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from andlib.blocking import Block, build_blocks
from andlib.corpus import Partition, build_name_counts, split_blocks
from andlib.errors import IntegrityError
from andlib.metrics import (
    FACETS,
    auroc,
    average_precision,
    b3,
    facet_report,
    homonymity,
    pairwise_macro_f1,
    synonymity,
)
from conftest import make_pair_fixture_dataset
from oracles import (
    naive_auroc,
    naive_average_precision,
    naive_b3,
    naive_pairwise_macro_f1,
)


def random_partitions(rng, n):
    ids = [f"r{i}" for i in range(n)]
    pred = {r: f"p{rng.integers(1, n + 1)}" for r in ids}
    gold = {r: f"g{rng.integers(1, n + 1)}" for r in ids}
    return pred, gold


class TestB3:
    def test_identity(self):
        part = Partition({"a": "x", "b": "x", "c": "y"})
        res = b3(part, part)
        assert (res.precision, res.recall, res.f1) == (1.0, 1.0, 1.0)

    def test_hand_fixture(self):
        gold = Partition({"a": "1", "b": "1", "c": "2"})
        pred = Partition({"a": "p", "b": "q", "c": "q"})
        res = b3(pred, gold)
        assert res.f1 == pytest.approx(11 / 18, abs=1e-9)
        assert res.per_record_f1["a"] == pytest.approx(2 / 3)
        assert res.per_record_f1["b"] == pytest.approx(1 / 2)
        assert res.per_record_f1["c"] == pytest.approx(2 / 3)

    def test_singletons_vs_one_cluster(self):
        n = 7
        gold = Partition({f"r{i}": "all" for i in range(n)})
        pred = Partition({f"r{i}": f"s{i}" for i in range(n)})
        res = b3(pred, gold)
        assert res.precision == 1.0
        assert res.recall == pytest.approx(1 / n)

    def test_swap_exchanges_precision_recall(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(20):
            pred, gold = random_partitions(rng, 9)
            a = b3(Partition(pred), Partition(gold))
            b = b3(Partition(gold), Partition(pred))
            assert a.precision == pytest.approx(b.recall, abs=1e-12)
            assert a.recall == pytest.approx(b.precision, abs=1e-12)
            assert a.f1 == pytest.approx(b.f1, abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pred, gold = random_partitions(rng, 10)
        renamed = {k: f"XX{v}" for k, v in pred.items()}
        a = b3(Partition(pred), Partition(gold))
        b = b3(Partition(renamed), Partition(gold))
        assert a.f1 == b.f1

    def test_coverage_mismatch(self):
        with pytest.raises(IntegrityError):
            b3(Partition({"a": "1"}), Partition({"b": "1"}))

    def test_oracle_equivalence(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(200):
            pred, gold = random_partitions(rng, int(rng.integers(1, 13)))
            res = b3(Partition(pred), Partition(gold))
            p, r, f = naive_b3(pred, gold)
            assert abs(res.precision - p) <= 1e-12
            assert abs(res.recall - r) <= 1e-12
            assert abs(res.f1 - f) <= 1e-12


class TestPairwiseMacroF1:
    def blocks_of(self, *groups):
        return [Block(f"b{i}", tuple(g)) for i, g in enumerate(groups)]

    def test_perfect(self):
        gold = Partition({"a": "1", "b": "1", "c": "2"})
        blocks = self.blocks_of(["a", "b", "c"])
        assert pairwise_macro_f1(gold, gold, blocks) == 1.0

    def test_degenerate_precision_convention(self):
        gold = Partition({"a": "1", "b": "1", "c": "2"})
        pred = Partition({"a": "x", "b": "y", "c": "z"})
        blocks = self.blocks_of(["a", "b", "c"])
        assert pairwise_macro_f1(pred, gold, blocks) == 0.0

    def test_no_positives_either_side_scores_one(self):
        gold = Partition({"a": "1", "b": "2"})
        pred = Partition({"a": "x", "b": "y"})
        blocks = self.blocks_of(["a", "b"])
        assert pairwise_macro_f1(pred, gold, blocks) == 1.0

    def test_macro_over_blocks(self):
        gold = Partition({"a": "1", "b": "1", "c": "2", "d": "2"})
        pred = Partition({"a": "1", "b": "1", "c": "x", "d": "y"})
        blocks = self.blocks_of(["a", "b"], ["c", "d"])
        # block 1 perfect (1.0), block 2 recall 0 (0.0)
        assert pairwise_macro_f1(pred, gold, blocks) == pytest.approx(0.5)

    def test_oracle_equivalence_random_blocks(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(100):
            n = int(rng.integers(2, 9))
            ids = [f"r{i}" for i in range(n)]
            cut = sorted(set(rng.integers(0, n, size=2)))
            blocks_lists = []
            prev = 0
            for c in cut + [n]:
                if c > prev:
                    blocks_lists.append(ids[prev:c])
                    prev = c
            pred = {r: f"p{rng.integers(1, 4)}" for r in ids}
            gold = {r: f"g{rng.integers(1, 4)}" for r in ids}
            blocks = self.blocks_of(*blocks_lists)
            if all(len(b) < 2 for b in blocks_lists):
                continue
            fast = pairwise_macro_f1(Partition(pred), Partition(gold), blocks)
            slow = naive_pairwise_macro_f1(pred, gold, blocks_lists)
            assert abs(fast - slow) <= 1e-12


class TestAuroc:
    def test_perfect(self):
        assert auroc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_enumerated_example(self):
        assert auroc([0.8, 0.6, 0.4], [1, 0, 1]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.5, 0.7], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.Generator(np.random.PCG64(4))
        scores = rng.uniform(0, 1, 30)
        labels = (rng.uniform(0, 1, 30) < 0.4).astype(int)
        if labels.sum() in (0, 30):
            labels[0] = 1 - labels[0]
        a = auroc(scores, labels)
        b = auroc(np.exp(3 * scores), labels)
        assert a == pytest.approx(b, abs=1e-12)

    def test_oracle_equivalence(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(200):
            n = int(rng.integers(2, 13))
            scores = np.round(rng.uniform(0, 1, n), 1)  # induce ties
            labels = (rng.uniform(0, 1, n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                continue
            assert abs(
                auroc(scores, labels) - naive_auroc(list(scores), list(labels))
            ) <= 1e-12


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 6
        scores = [1.0 - i / 10 for i in range(n)]
        labels = [0] * (n - 1) + [1]
        assert average_precision(scores, labels) == pytest.approx(1 / n)

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0.4], [0])

    def test_six_item_fixture_matches_oracle(self):
        scores = [0.9, 0.8, 0.8, 0.5, 0.4, 0.2]
        labels = [1, 0, 1, 0, 1, 0]
        assert average_precision(scores, labels) == pytest.approx(
            naive_average_precision(scores, labels), abs=1e-12
        )

    def test_oracle_equivalence(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(200):
            n = int(rng.integers(1, 13))
            scores = np.round(rng.uniform(0, 1, n), 1)
            labels = (rng.uniform(0, 1, n) < 0.5).astype(int)
            if labels.sum() == 0:
                continue
            fast = average_precision(list(scores), list(labels))
            slow = naive_average_precision(list(scores), list(labels))
            assert abs(fast - slow) <= 1e-12


def name_block(*sigs):
    """Build (dataset-free) homonymity fixtures from (first, last, cluster)."""
    from andlib.corpus import Dataset, Paper, Signature

    papers = {}
    signatures = {}
    gold = {}
    for i, (first, last, cluster) in enumerate(sigs):
        pid, sid = f"p{i}", f"s{i}"
        papers[pid] = Paper(paper_id=pid, title="t", author_names=(f"{first} {last}",))
        signatures[sid] = Signature(
            signature_id=sid, paper_id=pid, author_position=1,
            first=first, middle=None, last=last,
        )
        gold[sid] = cluster
    ds = Dataset(papers=papers, signatures=signatures, gold=Partition(gold))
    block = Block("k", tuple(sorted(signatures)))
    return block, Partition(gold), ds


class TestHomonymitySynonymity:
    def test_all_distinct_names(self):
        block, gold, ds = name_block(("Ann", "Li", "1"), ("Bea", "Li", "2"))
        assert homonymity(block, gold, ds) == 0.0

    def test_two_same_named_split_records(self):
        block, gold, ds = name_block(("Ann", "Li", "1"), ("Ann", "Li", "2"))
        assert homonymity(block, gold, ds) == 1.0

    def test_six_record_block_matches_pair_scan(self):
        block, gold, ds = name_block(
            ("Ann", "Li", "1"),
            ("Ann", "Li", "2"),
            ("Bea", "Li", "2"),
            ("Ann", "Li", "1"),
            ("Cho", "Li", "3"),
            ("Cho", "Li", "3"),
        )
        names = ["ann li", "ann li", "bea li", "ann li", "cho li", "cho li"]
        clusters = ["1", "2", "2", "1", "3", "3"]
        expected = sum(
            1
            for i in range(6)
            if any(
                names[i] == names[j] and clusters[i] != clusters[j]
                for j in range(6)
                if j != i
            )
        ) / 6
        assert homonymity(block, gold, ds) == pytest.approx(expected)
        expected_syn = sum(
            1
            for i in range(6)
            if any(
                clusters[i] == clusters[j] and names[i] != names[j]
                for j in range(6)
                if j != i
            )
        ) / 6
        assert synonymity(block, gold, ds) == pytest.approx(expected_syn)

    def test_name_variant_cluster_is_synonymous(self):
        block, gold, ds = name_block(("J.", "Smith", "1"), ("John", "Smith", "1"))
        assert synonymity(block, gold, ds) == 1.0

    def test_name_homogeneous_clusters(self):
        block, gold, ds = name_block(("Ann", "Li", "1"), ("Ann", "Li", "1"))
        assert synonymity(block, gold, ds) == 0.0

    @given(st.lists(
        st.tuples(st.sampled_from(["Ann", "Bea", "Cho"]), st.sampled_from("123")),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=200, deadline=None)
    def test_random_block_matches_pair_scan(self, records):
        # the counting rule against the pair scan of the six-record test
        block, gold, ds = name_block(*((first, "Li", c) for first, c in records))
        names = [first for first, _ in records]
        clusters = [c for _, c in records]
        n = len(records)

        def scan(same_name):
            return sum(
                1
                for i in range(n)
                if any(
                    (names[i] == names[j]) == same_name
                    and (clusters[i] == clusters[j]) != same_name
                    for j in range(n)
                    if j != i
                )
            ) / n

        assert homonymity(block, gold, ds) == scan(True)
        assert synonymity(block, gold, ds) == scan(False)


@pytest.fixture(scope="module")
def facet_setup(small_corpus):
    ds = small_corpus
    gold = ds.gold
    # a mildly wrong prediction: split one gold cluster, merge two others
    clusters = sorted(gold.clusters().items())
    pred = dict(gold.assignment)
    big = max(clusters, key=lambda kv: len(kv[1]))[1]
    split_members = sorted(big)[: len(big) // 2]
    for m in split_members:
        pred[m] = "split_off"
    return ds, gold, Partition(pred)


class TestFacetReport:
    def test_single_bin_equals_overall(self, facet_setup):
        ds, gold, pred = facet_setup
        overall = b3(pred, gold).f1
        report = facet_report(pred, gold, ds, "block_size", bins=(10**9,))
        total = sum(b.count for b in report.bins)
        weighted = sum(b.count * b.mean_f1 for b in report.bins) / total
        assert weighted == pytest.approx(overall, abs=1e-12)

    @pytest.mark.parametrize("facet", FACETS)
    def test_bookkeeping_every_facet(self, facet_setup, facet):
        ds, gold, pred = facet_setup
        overall = b3(pred, gold).f1
        report = facet_report(pred, gold, ds, facet)
        total = sum(b.count for b in report.bins)
        assert total == len(pred.assignment)
        weighted = sum(b.count * b.mean_f1 for b in report.bins) / total
        assert weighted == pytest.approx(overall, abs=1e-12)

    def test_cluster_size_counts_match_gold_histogram(self, facet_setup):
        ds, gold, pred = facet_setup
        report = facet_report(pred, gold, ds, "cluster_size", bins=(2,))
        singleton_records = sum(
            len(c) for c in gold.clusters().values() if len(c) == 1
        )
        by_label = {b.label: b.count for b in report.bins}
        assert by_label.get("<2", 0) == singleton_records

    def test_year_bins_match_direct_group_by(self, facet_setup):
        ds, gold, pred = facet_setup
        edges = (1995, 2005, 2015)
        report = facet_report(pred, gold, ds, "year", bins=edges)
        res = b3(pred, gold)
        expected: dict[str, list[float]] = {}
        for sid, f1 in res.per_record_f1.items():
            year = ds.papers[ds.signatures[sid].paper_id].year
            if year is None:
                label = "unknown"
            elif year < 1995:
                label = "<1995"
            elif year < 2005:
                label = "[1995,2005)"
            elif year < 2015:
                label = "[2005,2015)"
            else:
                label = ">=2015"
            expected.setdefault(label, []).append(f1)
        got = {b.label: (b.count, b.mean_f1) for b in report.bins}
        for label, values in expected.items():
            count, mean = got[label]
            assert count == len(values)
            assert mean == pytest.approx(float(np.mean(values)), abs=1e-12)

    def test_unknown_facet(self, facet_setup):
        ds, gold, pred = facet_setup
        with pytest.raises(ValueError):
            facet_report(pred, gold, ds, "shoe_size")

    def test_empty_bins_rejected(self, facet_setup):
        ds, gold, pred = facet_setup
        with pytest.raises(ValueError):
            facet_report(pred, gold, ds, "year", bins=())


class TestMetricProperties:
    @given(st.integers(2, 10), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_b3_self_identity_random(self, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        part = Partition(
            {f"r{i}": f"c{rng.integers(1, n + 1)}" for i in range(n)}
        )
        res = b3(part, part)
        assert res.f1 == 1.0
