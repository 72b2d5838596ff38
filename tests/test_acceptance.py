"""System-level acceptance criteria.

Each test enforces one numbered criterion at its stated tolerance and prints
one PASS line (visible under ``pytest -s``). The slow end-to-end checks
share session fixtures; the whole module runs in roughly ten minutes on a
laptop-class machine.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from andlib.blocking import Block, build_blocks, normalize_name
from andlib.cli import main as cli_main
from andlib.cluster import (
    ClusterParams,
    DistanceMatrix,
    cluster_corpus,
    hac_cluster,
    names_compatible,
)
from andlib.corpus import (
    KNOCKOUT_GROUPS,
    Partition,
    build_name_counts,
    knockout_augment,
    load_dataset,
    load_partition,
)
from andlib.features import default_schema, mask_nameless
from andlib.gbt import HyperParams, fit_boosted_trees, sigmoid
from andlib.metrics import (
    FACETS,
    auroc,
    average_precision,
    b3,
    facet_report,
    pairwise_macro_f1,
)
from andlib.model import EnsembleClassifier, sample_pairs
from andlib.pipeline import RunConfig, evaluate_partition, train_pipeline
from andlib.synthetic import GeneratorConfig, generate_synthetic_corpus
from andlib import cluster as cluster_mod
from oracles import (
    naive_auroc,
    naive_average_precision,
    naive_b3,
    naive_dbscan,
    naive_hac_merges,
    naive_pairwise_macro_f1,
    naive_ward_merges,
    replay_hac,
    trace_ensemble_raw,
)


def _pass(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def _random_symmetric(rng, n):
    d = rng.uniform(0, 1, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return d


def _index_groups(partition: Partition, members) -> set[frozenset[int]]:
    pos = {m: i for i, m in enumerate(members)}
    return {
        frozenset(pos[m] for m in cluster)
        for cluster in partition.clusters().values()
    }


# ---------------------------------------------------------------------------
# shared corpora and models
# ---------------------------------------------------------------------------

#: ablation-study corpus: heavy same-community homonym collisions, noisy
#: embeddings, high missingness - hard enough that every feature family
#: carries signal the model needs
HARD_CONFIG = GeneratorConfig(
    n_authors=80,
    mean_papers=5,
    collision_rate=0.5,
    homonym_rate=0.7,
    same_community_collision=0.9,
    embedding_noise=1.3,
    coauthor_noise=0.4,
    shared_metadata=0.8,
    email_missing=0.85,
    affiliation_missing=0.6,
    venue_missing=0.4,
    abstract_missing=0.5,
    variant_rate=0.35,
)

RUN_CONFIG = RunConfig(
    hyperparams={"n_trees": 60, "max_leaves": 16}, eps_budget=12
)

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def hard_corpus():
    ds = generate_synthetic_corpus(42, HARD_CONFIG)
    return ds, build_name_counts(ds)


def _full_corpus_b3(result, dataset, counts) -> float:
    pred = cluster_corpus(
        dataset,
        result.classifier,
        result.cluster_params,
        counts,
    )
    return b3(pred, dataset.gold).f1


@pytest.fixture(scope="session")
def ablation_matrix(hard_corpus):
    """Trained variants over five seeds: clean scores for every axis, and
    degraded-corpus scores for the plain and knockout-augmented models."""
    ds, counts = hard_corpus
    axes = {
        "baseline": {},
        "knockout": {"knockout": True},
        "drop_embedding": {"drop_features": ("embedding",)},
        "drop_coauthors": {"drop_features": ("coauthors",)},
        "linear": {"classifier": "linear"},
    }
    degraded_cache: dict[int, tuple] = {}
    out: dict[str, dict] = {name: {"clean": [], "degraded": [], "result": None} for name in axes}
    for name, change in axes.items():
        for seed in SEEDS:
            cfg = dataclasses.replace(RUN_CONFIG, seed=seed, **change)
            result = train_pipeline(ds, cfg, counts=counts)
            out[name]["clean"].append(
                _full_corpus_b3(result, result.dataset, counts)
            )
            if out[name]["result"] is None:
                out[name]["result"] = result
            if name in ("baseline", "knockout"):
                if seed not in degraded_cache:
                    degraded = knockout_augment(
                        result.dataset,
                        seed=1000 + seed,
                        drop_probabilities={g: 0.5 for g in KNOCKOUT_GROUPS},
                    )
                    degraded_cache[seed] = (degraded, build_name_counts(degraded))
                dds, dcounts = degraded_cache[seed]
                out[name]["degraded"].append(_full_corpus_b3(result, dds, dcounts))
    return out


# ---------------------------------------------------------------------------
# 1. metric oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_01_metric_oracles():
    rng = np.random.Generator(np.random.PCG64(100))
    start = time.time()

    for _ in range(1000):
        n = int(rng.integers(1, 13))
        ids = [f"r{i}" for i in range(n)]
        pred = {r: f"p{rng.integers(1, n + 1)}" for r in ids}
        gold = {r: f"g{rng.integers(1, n + 1)}" for r in ids}
        res = b3(Partition(pred), Partition(gold))
        op, orc, of = naive_b3(pred, gold)
        assert abs(res.precision - op) <= 1e-12
        assert abs(res.recall - orc) <= 1e-12
        assert abs(res.f1 - of) <= 1e-12

    for _ in range(1000):
        n = int(rng.integers(2, 13))
        ids = [f"r{i}" for i in range(n)]
        cut = int(rng.integers(1, n))
        blocks_lists = [ids[:cut], ids[cut:]]
        blocks_lists = [b for b in blocks_lists if b]
        if all(len(b) < 2 for b in blocks_lists):
            continue
        pred = {r: f"p{rng.integers(1, 4)}" for r in ids}
        gold = {r: f"g{rng.integers(1, 4)}" for r in ids}
        blocks = [Block(f"b{i}", tuple(b)) for i, b in enumerate(blocks_lists)]
        fast = pairwise_macro_f1(Partition(pred), Partition(gold), blocks)
        assert abs(fast - naive_pairwise_macro_f1(pred, gold, blocks_lists)) <= 1e-12

    for _ in range(1000):
        n = int(rng.integers(2, 13))
        scores = np.round(rng.uniform(0, 1, n), 1)
        labels = (rng.uniform(0, 1, n) < 0.5).astype(int)
        if 0 < labels.sum() < n:
            assert abs(
                auroc(scores, labels) - naive_auroc(list(scores), list(labels))
            ) <= 1e-12

    for _ in range(1000):
        n = int(rng.integers(1, 13))
        scores = np.round(rng.uniform(0, 1, n), 1)
        labels = (rng.uniform(0, 1, n) < 0.5).astype(int)
        if labels.sum() > 0:
            fast = average_precision(list(scores), list(labels))
            assert abs(fast - naive_average_precision(list(scores), list(labels))) <= 1e-12

    elapsed = time.time() - start
    assert elapsed <= 10.0, f"metric oracle sweep took {elapsed:.1f}s"
    _pass(1, "metric oracle equivalence")


# ---------------------------------------------------------------------------
# 2. B-cubed hand fixture
# ---------------------------------------------------------------------------


def test_criterion_02_b3_hand_fixture():
    gold = Partition({"a": "1", "b": "1", "c": "2"})
    pred = Partition({"a": "x", "b": "y", "c": "y"})
    assert abs(b3(pred, gold).f1 - 11 / 18) <= 1e-9
    _pass(2, "B-cubed hand fixture 11/18")


# ---------------------------------------------------------------------------
# 3. HAC oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_03_hac_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(103))
    start = time.time()
    for i in range(200):
        n = 64 if i < 5 else 2 + int(62 * rng.uniform() ** 3)
        d = _random_symmetric(rng, n)
        members = tuple(f"m{j:03d}" for j in range(n))
        D = DistanceMatrix(Block("k", members), d, np.zeros((n, n), dtype=bool))
        eps_values = [float(e) for e in rng.uniform(0, 1, 5)]
        for linkage in ("average", "single", "complete"):
            merges = naive_hac_merges(d, D.veto, linkage)
            for eps in eps_values:
                fast = _index_groups(hac_cluster(D, linkage, eps), members)
                assert fast == replay_hac(n, merges, eps), (i, linkage, eps)
        ward_merges = naive_ward_merges(d, D.veto)
        for eps in eps_values:
            fast = _index_groups(hac_cluster(D, "ward", eps), members)
            assert fast == replay_hac(n, ward_merges, eps), (i, "ward", eps)
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"HAC oracle sweep took {elapsed:.1f}s"
    _pass(3, "HAC equals naive oracle (4 linkages)")


# ---------------------------------------------------------------------------
# 4. coarsening monotonicity
# ---------------------------------------------------------------------------


def test_criterion_04_coarsening():
    rng = np.random.Generator(np.random.PCG64(104))
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        d = _random_symmetric(rng, n)
        members = tuple(f"m{j}" for j in range(n))
        D = DistanceMatrix(Block("k", members), d, np.zeros((n, n), dtype=bool))
        e1, e2 = sorted(rng.uniform(0, 1, 2))
        fine = hac_cluster(D, "average", float(e1)).clusters()
        coarse = hac_cluster(D, "average", float(e2)).assignment
        for cluster in fine.values():
            if len({coarse[m] for m in cluster}) != 1:
                violations += 1
    assert violations == 0
    _pass(4, "eps coarsening monotonicity")


# ---------------------------------------------------------------------------
# 5. monotone-constraint enforcement
# ---------------------------------------------------------------------------


def test_criterion_05_monotone_enforcement(ablation_matrix, hard_corpus):
    ds, counts = hard_corpus
    result = ablation_matrix["baseline"]["result"]
    schema = result.classifier.schema
    model = result.classifier.full_model
    assert model.constraints[schema.index("year_diff")] == -1
    assert model.constraints[schema.index("embedding_cosine")] == +1

    base_vectors = sample_pairs(result.dataset, "train", 100, 555, counts, schema).X
    rng = np.random.Generator(np.random.PCG64(105))

    year_idx = schema.index("year_diff")
    grid = np.linspace(0.0, 40.0, 50)
    for base in base_vectors:
        probe = np.tile(base, (50, 1))
        probe[:, year_idx] = grid
        p = model.predict_proba(probe)
        assert np.all(np.diff(p) <= 0.0), "year_diff scan increased probability"

    cos_idx = schema.index("embedding_cosine")
    grid = np.linspace(-1.0, 1.0, 50)
    for base in base_vectors:
        probe = np.tile(base, (50, 1))
        probe[:, cos_idx] = grid
        p = model.predict_proba(probe)
        assert np.all(np.diff(p) >= 0.0), "cosine scan decreased probability"
    del rng
    _pass(5, "monotone constraints hold on 50-point scans")


# ---------------------------------------------------------------------------
# 6. missing-value routing
# ---------------------------------------------------------------------------


def test_criterion_06_missing_value_routing():
    rng = np.random.Generator(np.random.PCG64(106))
    X = rng.uniform(0, 1, size=(1500, 8))
    X[rng.uniform(0, 1, X.shape) < 0.3] = np.nan
    logits = np.nansum(X[:, :4], axis=1) * 1.5 - 2.0
    y = (rng.uniform(0, 1, len(X)) < sigmoid(logits)).astype(float)
    model = fit_boosted_trees(
        X, y, HyperParams(n_trees=50, max_leaves=16), (0,) * 8, seed=6
    )
    doc = {
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "trees": [t.to_doc() for t in model.trees],
    }
    probes = rng.uniform(0, 1, size=(1000, 8))
    probes[rng.uniform(0, 1, probes.shape) < 0.3] = np.nan
    fast = model.raw_score(probes)
    worst = 0.0
    for i in range(len(probes)):
        worst = max(worst, abs(fast[i] - trace_ensemble_raw(doc, probes[i])))
    assert worst <= 1e-12
    _pass(6, f"missing-value routing, fast==trace (max gap {worst:.1e})")


# ---------------------------------------------------------------------------
# 7. ensemble contract
# ---------------------------------------------------------------------------


def test_criterion_07_ensemble_contract(ablation_matrix, hard_corpus):
    ds, counts = hard_corpus
    result = ablation_matrix["baseline"]["result"]
    ens = result.classifier
    schema = result.classifier.schema
    X = sample_pairs(result.dataset, "train", 1000, 777, counts, schema).X

    masked = mask_nameless(X, schema)
    nameless_idx = list(schema.nameless_indices())
    assert np.all(np.isnan(masked[:, nameless_idx])), "masked slots must be missing"

    p_full = ens.full_model.predict_proba(X)
    p_nameless = ens.nameless_model.predict_proba(masked)
    combined = ens.predict_from_features(X)
    gap = float(np.max(np.abs(combined - (p_full + p_nameless) / 2.0)))
    assert gap <= 1e-12
    _pass(7, f"ensemble equals member mean (max gap {gap:.1e})")


# ---------------------------------------------------------------------------
# 8. end-to-end synthetic run
# ---------------------------------------------------------------------------


def test_criterion_08_end_to_end(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    start = time.time()
    corpus = base / "corpus"
    assert cli_main([
        "synth", "--out", str(corpus), "--seed", "8",
        "--authors", "200", "--mean-papers", "6", "--collision-rate", "0.15",
    ]) == 0

    def train_and_cluster(tag: str):
        run = base / tag
        assert cli_main([
            "train", "--data", str(corpus), "--out", str(run), "--seed", "0",
        ]) == 0
        pred_dir = base / f"{tag}_pred"
        assert cli_main([
            "cluster", "--data", str(corpus), "--out", str(pred_dir),
            "--model", str(run / "model.json"),
        ]) == 0
        return run / "model.json", pred_dir / "clusters.json"

    model_a, pred_a = train_and_cluster("run_a")
    eval_dir = base / "eval"
    assert cli_main([
        "eval", "--data", str(corpus), "--pred", str(pred_a),
        "--out", str(eval_dir),
    ]) == 0
    report = json.loads((eval_dir / "metrics.json").read_text())
    assert report["b3_f1"] >= 0.95, report
    assert report["pairwise_macro_f1"] >= 0.93, report

    model_b, pred_b = train_and_cluster("run_b")
    assert model_a.read_bytes() == model_b.read_bytes(), "model not reproducible"
    assert pred_a.read_bytes() == pred_b.read_bytes(), "clusters not reproducible"

    elapsed = time.time() - start
    assert elapsed <= 300.0, f"end-to-end run took {elapsed:.0f}s"
    _pass(
        8,
        f"end-to-end b3={report['b3_f1']:.4f} pairwise={report['pairwise_macro_f1']:.4f} "
        f"in {elapsed:.0f}s, reruns byte-identical",
    )


# ---------------------------------------------------------------------------
# 9. ablation direction checks
# ---------------------------------------------------------------------------


def test_criterion_09_ablation_directions(ablation_matrix):
    baseline = float(np.mean(ablation_matrix["baseline"]["clean"]))
    for axis in ("drop_embedding", "drop_coauthors", "linear"):
        variant = float(np.mean(ablation_matrix[axis]["clean"]))
        assert variant < baseline, (
            f"{axis} mean {variant:.4f} did not decrease from baseline {baseline:.4f}"
        )
    _pass(
        9,
        "ablation directions (baseline {:.4f} > emb {:.4f}, coauth {:.4f}, linear {:.4f})".format(
            baseline,
            float(np.mean(ablation_matrix["drop_embedding"]["clean"])),
            float(np.mean(ablation_matrix["drop_coauthors"]["clean"])),
            float(np.mean(ablation_matrix["linear"]["clean"])),
        ),
    )


# ---------------------------------------------------------------------------
# 10. knockout robustness
# ---------------------------------------------------------------------------


def test_criterion_10_knockout_robustness(ablation_matrix):
    plain = ablation_matrix["baseline"]
    aug = ablation_matrix["knockout"]
    loss_plain = float(
        np.mean([c - d for c, d in zip(plain["clean"], plain["degraded"])])
    )
    loss_aug = float(
        np.mean([c - d for c, d in zip(aug["clean"], aug["degraded"])])
    )
    assert loss_aug <= 0.5 * loss_plain, (
        f"augmented model lost {loss_aug:.4f}, plain lost {loss_plain:.4f}"
    )
    _pass(
        10,
        f"knockout robustness (aug loss {loss_aug:.4f} <= half of plain {loss_plain:.4f})",
    )


# ---------------------------------------------------------------------------
# 11. name-rule guarantee
# ---------------------------------------------------------------------------


def test_criterion_11_name_rule(ablation_matrix):
    trap_config = dataclasses.replace(
        HARD_CONFIG, n_authors=60, collision_rate=0.6, homonym_rate=0.0
    )
    traps = generate_synthetic_corpus(11, trap_config)
    counts = build_name_counts(traps)
    result = ablation_matrix["baseline"]["result"]
    # a generous eps invites wrong merges; the veto must still hold
    params = ClusterParams(
        linkage="average", eps=0.95, name_rules=result.cluster_params.name_rules
    )
    pred = cluster_corpus(traps, result.classifier, params, counts)
    violations = 0
    trap_pairs = 0
    for members in pred.clusters().values():
        names = [
            normalize_name(
                traps.signatures[m].first, None, traps.signatures[m].last
            ).first
            for m in sorted(members)
        ]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if not names_compatible(names[i], names[j]):
                    violations += 1
    # the corpus must actually contain incompatible co-blocked names
    for block in build_blocks(traps):
        names = [
            normalize_name(
                traps.signatures[m].first, None, traps.signatures[m].last
            ).first
            for m in block.members
        ]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if not names_compatible(names[i], names[j]):
                    trap_pairs += 1
    assert trap_pairs > 0, "trap corpus has no incompatible co-blocked names"
    assert violations == 0
    _pass(11, f"name-rule guarantee ({trap_pairs} trap pairs, 0 violations)")


# ---------------------------------------------------------------------------
# 12. facet bookkeeping
# ---------------------------------------------------------------------------


def test_criterion_12_facet_bookkeeping(ablation_matrix, hard_corpus):
    ds, counts = hard_corpus
    result = ablation_matrix["baseline"]["result"]
    pred = cluster_corpus(
        result.dataset,
        result.classifier,
        result.cluster_params,
        counts,
    )
    gold = result.dataset.gold
    overall = b3(pred, gold).f1
    for facet in FACETS:
        report = facet_report(pred, gold, result.dataset, facet)
        total = sum(b.count for b in report.bins)
        assert total == len(pred.assignment), facet
        weighted = sum(b.count * b.mean_f1 for b in report.bins) / total
        assert abs(weighted - overall) <= 1e-12, facet
    _pass(12, "facet bookkeeping reconstructs overall B-cubed")
