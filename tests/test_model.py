from __future__ import annotations

import json

import numpy as np
import pytest

from andlib.blocking import build_blocks
from andlib.corpus import (
    Dataset,
    Paper,
    Partition,
    Signature,
    build_name_counts,
    split_blocks,
)
from andlib.errors import ConfigError, SchemaMismatchError
from andlib.features import FeatureSchema, FeatureSpec, default_schema, mask_nameless
from andlib.gbt import HyperParams, TreeEnsembleModel, fit_boosted_trees, sigmoid
from andlib.model import (
    EnsembleClassifier,
    LinearModel,
    load_ensemble,
    predict_ensemble,
    sample_pairs,
    save_ensemble,
    train_gbt,
    train_linear,
    tune_hyperparameters,
)
from andlib.synthetic import GeneratorConfig, generate_synthetic_corpus


def toy_schema(n_features: int, constraints=None, nameless=()):
    constraints = constraints or [0] * n_features
    return FeatureSchema(
        tuple(
            FeatureSpec(f"f{i}", "toy", constraints[i], i in nameless)
            for i in range(n_features)
        )
    )


def separable_problem(n=200, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(0, 1, size=(n, 1))
    y = (X[:, 0] > 0.5).astype(float)
    return X, y


SMALL_HP = HyperParams(n_trees=30, max_leaves=8, learning_rate=0.2)


class TestGbtTraining:
    def test_separable_toy_accuracy(self):
        X, y = separable_problem()
        schema = toy_schema(1)
        model = train_gbt(X, y, SMALL_HP, (0,), seed=0, schema=schema)
        pred = (model.predict_proba(X) > 0.5).astype(float)
        assert (pred == y).mean() >= 0.99

    def test_single_class_rejected(self):
        X = np.zeros((10, 1))
        y = np.ones(10)
        with pytest.raises(ConfigError):
            fit_boosted_trees(X, y, SMALL_HP, (0,), seed=0)

    def test_all_missing_feature_never_split(self):
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.uniform(0, 1, size=(300, 3))
        X[:, 1] = np.nan
        y = (X[:, 0] + 0.3 * X[:, 2] > 0.6).astype(float)
        model = fit_boosted_trees(X, y, SMALL_HP, (0, 0, 0), seed=0)
        used = {
            int(f) for tree in model.trees for f in tree.feature if f >= 0
        }
        assert 1 not in used

    def test_deterministic_model_bytes(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(2))
        X = rng.uniform(0, 1, size=(150, 4))
        y = (X[:, 0] > X[:, 1]).astype(float)
        schema = toy_schema(4)
        paths = []
        for run in range(2):
            model = train_gbt(X, y, SMALL_HP, (0, 0, 0, 0), seed=5, schema=schema)
            ens = EnsembleClassifier(model, None, schema)
            path = tmp_path / f"m{run}.json"
            save_ensemble(path, ens, SMALL_HP, seed=5)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_constraint_mismatch_rejected(self):
        X, y = separable_problem()
        with pytest.raises(ConfigError):
            fit_boosted_trees(X, y, SMALL_HP, (0, 0), seed=0)


def _monotone_problem(seed=0, n=600):
    """Three features; y depends -1 / +1 / unconstrained."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(0, 1, size=(n, 3))
    logits = 1.5 - 3.0 * X[:, 0] + 2.5 * X[:, 1] + np.sin(6 * X[:, 2])
    y = (rng.uniform(0, 1, n) < sigmoid(logits)).astype(float)
    return X, y


@pytest.fixture(scope="module")
def monotone_model():
    X, y = _monotone_problem()
    return fit_boosted_trees(
        X, y, HyperParams(n_trees=60, max_leaves=16), (-1, +1, 0), seed=3
    )


class TestMonotoneConstraints:
    @pytest.fixture()
    def model(self, monotone_model):
        return monotone_model

    def test_scan_decreasing_feature(self, model):
        rng = np.random.Generator(np.random.PCG64(9))
        grid = np.linspace(0, 1, 50)
        for _ in range(100):
            base = rng.uniform(0, 1, 3)
            probe = np.tile(base, (50, 1))
            probe[:, 0] = grid
            p = model.predict_proba(probe)
            assert np.all(np.diff(p) <= 0.0)

    def test_scan_increasing_feature(self, model):
        rng = np.random.Generator(np.random.PCG64(10))
        grid = np.linspace(0, 1, 50)
        for _ in range(100):
            base = rng.uniform(0, 1, 3)
            probe = np.tile(base, (50, 1))
            probe[:, 1] = grid
            p = model.predict_proba(probe)
            assert np.all(np.diff(p) >= 0.0)

    def test_structural_audit(self, model):
        from oracles import tree_monotone_gap

        for tree in model.trees:
            assert tree_monotone_gap(tree.to_doc(), model.constraints) >= 0.0

    def test_unconstrained_feature_still_nonmonotone(self, model):
        # sanity: the sin-shaped feature should produce non-monotone response
        grid = np.linspace(0, 1, 50)
        probe = np.tile(np.array([0.5, 0.5, 0.0]), (50, 1))
        probe[:, 2] = grid
        p = model.predict_proba(probe)
        assert np.any(np.diff(p) > 0) and np.any(np.diff(p) < 0)


class TestMissingValues:
    def test_fast_path_matches_trace_oracle(self):
        from oracles import trace_ensemble_raw

        rng = np.random.Generator(np.random.PCG64(4))
        X = rng.uniform(0, 1, size=(500, 5))
        X[rng.uniform(0, 1, X.shape) < 0.3] = np.nan
        logits = np.nansum(X, axis=1) - 1.2
        y = (rng.uniform(0, 1, len(X)) < sigmoid(logits)).astype(float)
        model = fit_boosted_trees(
            X, y, HyperParams(n_trees=40, max_leaves=12), (0,) * 5, seed=7
        )
        doc = {
            "base_score": model.base_score,
            "learning_rate": model.learning_rate,
            "trees": [t.to_doc() for t in model.trees],
        }
        probe = rng.uniform(0, 1, size=(1000, 5))
        probe[rng.uniform(0, 1, probe.shape) < 0.3] = np.nan
        fast = model.raw_score(probe)
        for i in range(len(probe)):
            naive = trace_ensemble_raw(doc, probe[i])
            assert abs(fast[i] - naive) <= 1e-12

    def test_learned_default_directions_help(self):
        # informative missingness: y = 1 whenever the feature is missing
        rng = np.random.Generator(np.random.PCG64(5))
        X = rng.uniform(0, 1, size=(400, 1))
        miss = rng.uniform(0, 1, 400) < 0.5
        X[miss, 0] = np.nan
        y = miss.astype(float)
        model = fit_boosted_trees(X, y, SMALL_HP, (0,), seed=0)
        p_missing = model.predict_proba(np.array([[np.nan]]))
        p_present = model.predict_proba(np.array([[0.5]]))
        assert p_missing > 0.9 > 0.1 > p_present


class TestPrediction:
    def test_empty_ensemble_is_half(self):
        model = TreeEnsembleModel(
            trees=[], learning_rate=0.1, base_score=0.0, schema_hash="", constraints=()
        )
        assert model.predict_proba(np.zeros(0)) == 0.5

    def test_single_leaf_formula(self):
        from andlib.gbt import Tree

        leaf = Tree(
            feature=np.array([-1], dtype=np.int32),
            threshold=np.zeros(1),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            default_left=np.array([True]),
            value=np.array([0.7]),
        )
        model = TreeEnsembleModel(
            trees=[leaf],
            learning_rate=0.3,
            base_score=0.0,
            schema_hash="",
            constraints=(0,),
        )
        assert model.predict_proba(np.zeros(1)) == pytest.approx(
            float(sigmoid(0.3 * 0.7)), abs=1e-15
        )

    def test_probabilities_strictly_inside_unit_interval(self):
        X, y = separable_problem(n=400)
        model = fit_boosted_trees(
            X, y, HyperParams(n_trees=200, learning_rate=0.3, l2_regularization=1e-3),
            (0,), seed=0,
        )
        p = model.predict_proba(X)
        assert np.all(p > 0.0) and np.all(p < 1.0)


def _pairs_corpus():
    """Three single-author blocks of sizes 4, 3, 2 with manual splits."""
    papers = {}
    signatures = {}
    gold = {}
    specs = [("Ann", "Li", 4, "train"), ("Bob", "Wu", 3, "train"), ("Cy", "Fox", 2, "val")]
    counter = 0
    for first, last, k, _ in specs:
        for i in range(k):
            pid = f"p{counter}"
            sid = f"s{counter}"
            counter += 1
            papers[pid] = Paper(
                paper_id=pid, title=f"t {counter}", year=2000 + i,
                author_names=(f"{first} {last}",),
            )
            signatures[sid] = Signature(
                signature_id=sid, paper_id=pid, author_position=1,
                first=first, middle=None, last=last,
            )
            gold[sid] = f"{first}_{last}"
    splits = {"a li": "train", "b wu": "train", "c fox": "val"}
    return Dataset(papers=papers, signatures=signatures, gold=Partition(gold), splits=splits)


class TestSamplePairs:
    def setup_method(self):
        self.ds = _pairs_corpus()
        self.counts = build_name_counts(self.ds)
        self.schema = default_schema()

    def test_small_block_enumerates_all_pairs(self):
        pairs = sample_pairs(self.ds, "train", cap=100, seed=0,
                             counts=self.counts, schema=self.schema)
        assert len(pairs) == 6 + 3  # C(4,2) + C(3,2)

    def test_cap_zero(self):
        pairs = sample_pairs(self.ds, "train", 0, 0, self.counts, self.schema)
        assert len(pairs) == 0
        assert pairs.X.shape == (0, len(self.schema)) and pairs.y.shape == (0,)

    def test_cap_truncates(self):
        pairs = sample_pairs(self.ds, "train", 4, 0, self.counts, self.schema)
        assert len(pairs) == 4

    def test_deterministic(self):
        a = sample_pairs(self.ds, "train", 5, 3, self.counts, self.schema)
        b = sample_pairs(self.ds, "train", 5, 3, self.counts, self.schema)
        assert (a.sig_a, a.sig_b) == (b.sig_a, b.sig_b)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.X, b.X, equal_nan=True)

    def test_empty_split_rejected(self):
        with pytest.raises(ConfigError):
            sample_pairs(self.ds, "test", 10, 0, self.counts, self.schema)

    def test_labels_match_gold_on_synthetic(self, small_corpus):
        ds = split_blocks(small_corpus, seed=2)
        counts = build_name_counts(ds)
        pairs = sample_pairs(ds, "train", 500, 9, counts, self.schema)
        assert len(pairs)
        assert pairs.X.shape == (len(pairs), len(self.schema))
        gold = ds.gold.assignment
        for a, b, label in zip(pairs.sig_a, pairs.sig_b, pairs.y):
            assert label == int(gold[a] == gold[b])
        blocks = {
            m: b.key for b in build_blocks(ds) for m in b.members
        }
        for a, b in zip(pairs.sig_a, pairs.sig_b):
            assert blocks[a] == blocks[b]
            assert ds.splits[blocks[a]] == "train"


class TestLinearModel:
    def test_separable_toy(self):
        X, y = separable_problem()
        model = train_linear(X, y)
        pred = (np.asarray(model.predict_proba(X)) > 0.5).astype(float)
        assert (pred == y).mean() >= 0.99

    def test_zero_weights_give_half(self):
        model = LinearModel(
            weights=np.zeros(3), bias=0.0, medians=np.zeros(3), schema_hash=""
        )
        assert model.predict_proba(np.full(3, np.nan)) == 0.5

    def test_duplicated_dataset_identical_model(self):
        X, y = separable_problem(n=80, seed=3)
        once = train_linear(X, y)
        twice = train_linear(np.vstack([X, X]), np.concatenate([y, y]))
        assert np.allclose(once.weights, twice.weights, atol=1e-6)
        assert once.bias == pytest.approx(twice.bias, abs=1e-6)

    def test_median_imputation_used(self):
        rng = np.random.Generator(np.random.PCG64(0))
        X = rng.uniform(0, 1, size=(100, 2))
        y = (X[:, 0] > 0.5).astype(float)
        model = train_linear(X, y)
        v = np.array([np.nan, 0.3])
        filled = np.array([model.medians[0], 0.3])
        assert model.predict_proba(v) == model.predict_proba(filled)


class TestEnsemble:
    def _trained(self):
        # f0 is a deceptive name feature, f1 is reliable metadata
        rng = np.random.Generator(np.random.PCG64(6))
        n = 400
        X = rng.uniform(0, 1, size=(n, 2))
        y = ((0.7 * X[:, 0] + 0.6 * X[:, 1]) > 0.65).astype(float)
        schema = toy_schema(2, nameless=(0,))
        full = train_gbt(X, y, SMALL_HP, (0, 0), seed=0, schema=schema)
        masked = mask_nameless(X, schema)
        nameless = train_gbt(masked, y, SMALL_HP, (0, 0), seed=1, schema=schema)
        return EnsembleClassifier(full, nameless, schema), X

    def test_mean_of_members(self):
        ens, X = self._trained()
        p_full = ens.full_model.predict_proba(X)
        p_nameless = ens.nameless_model.predict_proba(
            mask_nameless(X, ens.schema)
        )
        combined = ens.predict_from_features(X)
        assert np.max(np.abs(combined - (p_full + p_nameless) / 2)) <= 1e-15

    def test_recovers_when_name_feature_depresses_full_model(self):
        ens, _ = self._trained()
        v = np.array([0.02, 0.95])  # metadata strong, name similarity terrible
        p_full = float(ens.full_model.predict_proba(v))
        p_ens = float(ens.predict_from_features(v)[0])
        assert p_ens > p_full

    def test_full_only_when_nameless_absent(self):
        ens, X = self._trained()
        solo = EnsembleClassifier(ens.full_model, None, ens.schema)
        assert np.array_equal(
            solo.predict_from_features(X), ens.full_model.predict_proba(X)
        )

    def test_arithmetic_identities(self):
        assert (0.9 + 0.5) / 2 == pytest.approx(0.7)

    def test_predict_ensemble_on_corpus_pair(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        rng = np.random.Generator(np.random.PCG64(0))
        X = rng.uniform(0, 1, size=(120, len(schema)))
        y = (X[:, 0] > 0.5).astype(float)
        full = train_gbt(X, y, SMALL_HP, (0,) * len(schema), 0, schema)
        nameless = train_gbt(X, y, SMALL_HP, (0,) * len(schema), 1, schema)
        ens = EnsembleClassifier(full, nameless, schema)
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        p_ab = predict_ensemble(ens, s1, s2, dataset, counts, schema)
        p_ba = predict_ensemble(ens, s2, s1, dataset, counts, schema)
        assert 0.0 < p_ab < 1.0
        assert p_ab == p_ba  # symmetry inherited from the featurizer

    def test_schema_hash_checked(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        other = schema.drop(["embedding_cosine"])
        X = np.random.default_rng(0).uniform(0, 1, (60, len(other)))
        y = (X[:, 0] > 0.5).astype(float)
        model = train_gbt(X, y, SMALL_HP, (0,) * len(other), 0, other)
        ens = EnsembleClassifier(model, None, other)
        with pytest.raises(SchemaMismatchError):
            predict_ensemble(
                ens,
                dataset.signatures["s1"],
                dataset.signatures["s2"],
                dataset,
                counts,
                schema,
            )


class TestTuneHyperparameters:
    def _data(self):
        def margin_problem(n, seed):
            rng = np.random.Generator(np.random.PCG64(seed))
            X = rng.uniform(0, 1, size=(n, 1))
            X[X[:, 0] < 0.5, 0] *= 0.9  # open a margin around the boundary
            X[X[:, 0] >= 0.5, 0] = 0.55 + 0.45 * (X[X[:, 0] >= 0.5, 0] - 0.5) / 0.5
            y = (X[:, 0] > 0.5).astype(float)
            return X, y

        X, y = margin_problem(300, 8)
        Xv, yv = margin_problem(100, 9)
        return (X, y), (Xv, yv)

    def test_budget_one_returns_single_config(self):
        train, val = self._data()
        schema = toy_schema(1)
        hp, score = tune_hyperparameters(*train, *val, 1, 0, (0,), schema)
        assert isinstance(hp, HyperParams)
        assert score >= 0.9

    def test_more_budget_never_worse(self):
        train, val = self._data()
        schema = toy_schema(1)
        _, s1 = tune_hyperparameters(*train, *val, 1, 4, (0,), schema)
        _, s20 = tune_hyperparameters(*train, *val, 8, 4, (0,), schema)
        assert s20 >= s1

    def test_toy_auroc_near_perfect(self):
        train, val = self._data()
        schema = toy_schema(1)
        _, score = tune_hyperparameters(*train, *val, 3, 1, (0,), schema)
        assert score >= 0.99

    def test_budget_zero_rejected(self):
        train, val = self._data()
        with pytest.raises(ConfigError):
            tune_hyperparameters(*train, *val, 0, 0, (0,), toy_schema(1))

    def test_single_class_validation_rejected(self):
        train, (Xv, yv) = self._data()
        with pytest.raises(ConfigError):
            tune_hyperparameters(*train, Xv, np.ones_like(yv), 1, 0, (0,), toy_schema(1))


class TestSerialization:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(12))
        X = rng.uniform(0, 1, size=(200, 3))
        X[rng.uniform(0, 1, X.shape) < 0.2] = np.nan
        y = (np.nan_to_num(X[:, 0]) > 0.4).astype(float)
        schema = toy_schema(3, constraints=[+1, 0, -1], nameless=(0,))
        full = train_gbt(X, y, SMALL_HP, schema.monotone_constraints(), 0, schema)
        nameless = train_gbt(X, y, SMALL_HP, schema.monotone_constraints(), 1, schema)
        ens = EnsembleClassifier(full, nameless, schema)
        path = tmp_path / "model.json"
        save_ensemble(path, ens, SMALL_HP, seed=0, cluster_params={"eps": 0.4})
        loaded, meta = load_ensemble(path, expected_schema=schema)
        assert meta["cluster_params"]["eps"] == 0.4
        assert meta["hyperparams"]["n_trees"] == SMALL_HP.n_trees
        probe = rng.uniform(0, 1, size=(50, 3))
        assert np.array_equal(
            ens.predict_from_features(probe), loaded.predict_from_features(probe)
        )

    def test_refuses_wrong_schema(self, tmp_path):
        X, y = separable_problem(n=60)
        schema = toy_schema(1)
        model = train_gbt(X, y, SMALL_HP, (0,), 0, schema)
        path = tmp_path / "model.json"
        save_ensemble(path, EnsembleClassifier(model, None, schema), SMALL_HP, 0)
        with pytest.raises(SchemaMismatchError):
            load_ensemble(path, expected_schema=toy_schema(2))

    def test_refuses_tampered_hash(self, tmp_path):
        X, y = separable_problem(n=60)
        schema = toy_schema(1)
        model = train_gbt(X, y, SMALL_HP, (0,), 0, schema)
        path = tmp_path / "model.json"
        save_ensemble(path, EnsembleClassifier(model, None, schema), SMALL_HP, 0)
        doc = json.loads(path.read_text())
        doc["schema"]["features"][0][0] = "renamed"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError):
            load_ensemble(path)
