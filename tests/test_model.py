from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from andlib import gbt
from andlib.blocking import build_blocks
from andlib.corpus import (
    Dataset,
    Paper,
    Partition,
    Signature,
    build_name_counts,
    split_blocks,
)
from andlib.errors import ConfigError, ParseError, SchemaMismatchError
from andlib.features import FeatureSchema, FeatureSpec, default_schema, mask_nameless
from andlib.gbt import HyperParams, Tree, TreeEnsembleModel, fit_boosted_trees, sigmoid
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
from oracles import (
    reference_fit_boosted_trees,
    reference_pair_features,
    reference_profile,
    reference_raw_score,
    reference_tree_predict,
)


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


def _split_search_problem(seed: int):
    """Columns that reach every branch of the split search."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = 300
    binary = rng.integers(0, 2, n).astype(float)
    X = np.column_stack([
        rng.normal(size=n),  # more distinct values than max_bins
        np.where(rng.uniform(size=n) < 0.7, np.nan, rng.normal(size=n)),  # NaN-heavy
        np.full(n, np.nan),  # all NaN
        binary,
        np.round(rng.normal(size=n)),  # heavily tied
        np.where(rng.uniform(size=n) < 0.3, np.nan, rng.integers(0, 4, n)),
        binary,  # ties the gains of column 3 exactly
    ])
    logits = np.nan_to_num(X[:, 0]) + binary - np.nan_to_num(X[:, 1]) + X[:, 4]
    y = (rng.uniform(size=n) < sigmoid(logits)).astype(float)
    return X, y


_ORACLE_BASE = dict(
    n_trees=6, max_leaves=16, max_depth=6, min_samples_leaf=3,
    feature_fraction=1.0, row_subsample=1.0,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("constraints", [(0,) * 7, (+1, -1, 0, +1, 0, -1, -1)])
@pytest.mark.parametrize("overrides", [
    {},
    {"feature_fraction": 0.6, "row_subsample": 0.7},
    {"max_bins": 8},
    {"l1_regularization": 0.5},
    {"min_samples_leaf": 40},
    {"min_split_gain": 0.05},
], ids=["full", "subsampled", "max_bins_8", "l1", "big_leaves", "min_gain"])
# [full-constraints0-1] guards the full-width missing-value sums: with the
# sums taken over only a node's live features, OpenBLAS rounded one column
# sum differently and a leaf of that case moved by 1 ulp.
def test_presorted_fit_matches_padded_grid_oracle(seed, constraints, overrides):
    X, y = _split_search_problem(seed)
    hp = HyperParams(**{**_ORACLE_BASE, **overrides})
    fast = fit_boosted_trees(X, y, hp, constraints, seed=seed)
    ref = reference_fit_boosted_trees(X, y, hp, constraints, seed=seed)
    assert sum(t.n_leaves for t in fast.trees) > len(fast.trees)  # trees did split
    assert json.dumps([t.to_doc() for t in fast.trees]) == json.dumps(
        [t.to_doc() for t in ref.trees]
    )


def test_gain_ties_break_by_feature_then_direction_then_cut():
    # values 0 and 2 hold the same labels, and the base rate is 1/2, so every
    # gradient sum is exact: {0} | {1, 2, NaN} (cut 0|1, missing right) and
    # {0, 1, NaN} | {2} (cut 1|2, missing left) tie for the best gain
    x = np.repeat([0.0, 1.0, 2.0, np.nan], [10, 20, 10, 4])
    y = np.concatenate([np.ones(10), np.zeros(20), np.ones(10), [1, 1, 0, 0]])
    X = np.column_stack([x, x])  # and feature 1 ties feature 0
    hp = HyperParams(n_trees=1, max_leaves=2, feature_fraction=1.0, row_subsample=1.0)
    fast = fit_boosted_trees(X, y, hp, (0, 0), seed=0)
    ref = reference_fit_boosted_trees(X, y, hp, (0, 0), seed=0)
    tree = fast.trees[0]
    root = (tree.feature[0], tree.threshold[0], bool(tree.default_left[0]))
    assert root == (0, 1.5, True)
    assert json.dumps(tree.to_doc()) == json.dumps(ref.trees[0].to_doc())


def _same_trees(X, y, hp, constraints, seed) -> None:
    fast = fit_boosted_trees(X, y, hp, constraints, seed=seed)
    ref = reference_fit_boosted_trees(X, y, hp, constraints, seed=seed)
    assert json.dumps([t.to_doc() for t in fast.trees]) == json.dumps(
        [t.to_doc() for t in ref.trees]
    )


#: column kinds of the property below; ``split`` is the column the label
#: follows, so trees split on it and the children see different rows
_COLUMN_KINDS = (
    "split", "normal", "constant", "all_nan", "nan_heavy", "tied", "infinite",
    "only_infinite", "constant_right", "copy",
)


def _oracle_column(kind: str, rng, split: np.ndarray, done: list) -> np.ndarray:
    n = split.size
    if kind == "split":
        return split
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "constant":
        return np.full(n, 1.5)
    if kind == "all_nan":
        return np.full(n, np.nan)
    if kind == "nan_heavy":
        return np.where(rng.uniform(size=n) < 0.7, np.nan, rng.normal(size=n))
    if kind == "tied":
        return rng.integers(0, 3, n).astype(float)
    if kind == "infinite":
        return np.where(rng.uniform(size=n) < 0.3, rng.choice([-np.inf, np.inf], n),
                        rng.normal(size=n))
    if kind == "only_infinite":  # a cut between -inf and +inf averages to NaN
        return rng.choice([-np.inf, np.inf, np.nan], size=n)
    if kind == "constant_right":  # constant only where ``split`` is positive
        return np.where(split > 0, 3.0, rng.normal(size=n))
    return done[int(rng.integers(len(done)))].copy()  # ties another column


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 80),
    kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=7),
    constraint_draw=st.lists(st.sampled_from((-1, 0, 1)), min_size=8, max_size=8),
    hp_doc=st.fixed_dictionaries({
        "n_trees": st.integers(1, 4),
        "max_leaves": st.integers(2, 12),
        "max_depth": st.integers(1, 6),
        "min_samples_leaf": st.integers(0, 6),
        "feature_fraction": st.sampled_from((1.0, 0.6)),
        "row_subsample": st.sampled_from((1.0, 0.7)),
        "max_bins": st.sampled_from((255, 2, 4, 8)),
        "l1_regularization": st.sampled_from((0.0, 0.3)),
        "min_split_gain": st.sampled_from((0.0, 0.01)),
    }),
)
def test_presorted_fit_matches_oracle_on_degenerate_columns(
    seed, n, kinds, constraint_draw, hp_doc
):
    rng = np.random.Generator(np.random.PCG64(seed))
    split = rng.normal(size=n)
    columns: list = []
    for kind in ["split"] + kinds:
        columns.append(_oracle_column(kind, rng, split, columns))
    X = np.column_stack(columns)
    y = ((split > 0) ^ (rng.uniform(size=n) < 0.1)).astype(float)
    y[:2] = (0.0, 1.0)  # both classes
    constraints = tuple(constraint_draw[: X.shape[1]])
    _same_trees(X, y, HyperParams(**hp_doc), constraints, seed % 1000)


def test_nameless_member_fit_matches_oracle(small_corpus):
    schema = default_schema()
    ds = split_blocks(small_corpus, seed=2)
    pairs = sample_pairs(ds, "train", 400, 9, build_name_counts(ds), schema)
    masked = mask_nameless(pairs.X, schema)
    assert np.isnan(masked).all(axis=0).any()  # columns with no cut at all
    hp = HyperParams(n_trees=4, max_leaves=16)
    _same_trees(masked, pairs.y, hp, schema.monotone_constraints(), seed=1)


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
        naive = np.array([trace_ensemble_raw(doc, x) for x in probe])
        assert fast.tobytes() == naive.tobytes()

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


def _random_tree(rng, n_features, depth, grid, p_split=0.7, default_left=None) -> Tree:
    """A pre-order tree whose thresholds come from ``grid``; the leftmost
    path always splits down to ``depth``."""
    feature, threshold, left, right, dleft, value = [], [], [], [], [], []

    def emit(level: int, spine: bool) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        dleft.append(True)
        value.append(float(rng.choice([-0.0, 0.0, rng.normal()])))
        if level < depth and (spine or rng.uniform() < p_split):
            feature[idx] = int(rng.integers(n_features))
            threshold[idx] = float(rng.choice(grid))
            dleft[idx] = bool(rng.integers(2)) if default_left is None else default_left
            left[idx] = emit(level + 1, spine)
            right[idx] = emit(level + 1, False)
        return idx

    emit(0, True)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        default_left=np.asarray(dleft, dtype=bool),
        value=np.asarray(value, dtype=np.float64),
    )


def _random_forest(seed, n_trees=12, n_features=5, depth=6, **tree_kw):
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = np.round(rng.normal(size=6), 3)
    trees = [_random_tree(rng, n_features, depth, grid, **tree_kw) for _ in range(n_trees)]
    model = TreeEnsembleModel(
        trees=trees, learning_rate=0.1 + rng.uniform(), base_score=rng.normal(),
        schema_hash="", constraints=(0,) * n_features,
    )
    return model, grid


def _probe(seed, n_rows, n_features, grid, nan=0.2, inf=0.0):
    """Rows of values at a threshold, one ulp either side, or elsewhere."""
    rng = np.random.Generator(np.random.PCG64(seed + 1000))
    at = rng.choice(grid, size=(n_rows, n_features))
    near = np.stack([at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
                     rng.normal(size=at.shape)])
    X = np.take_along_axis(near, rng.integers(0, 4, (1,) + at.shape), axis=0)[0]
    u = rng.uniform(size=X.shape)
    X[u < nan] = np.nan
    X[(u >= nan) & (u < nan + inf)] = rng.choice([-np.inf, np.inf])
    return X


def _assert_kernel_matches_oracle(model, X):
    assert model.raw_score(X).tobytes() == reference_raw_score(model, X).tobytes()
    for tree in model.trees:
        assert tree.predict(X).tobytes() == reference_tree_predict(tree, X).tobytes()


class TestForestKernel:
    """The forest kernel against the per-tree loop of tests/oracles.py,
    byte for byte."""

    @pytest.mark.parametrize("default_left", [True, False, None])
    def test_nan_rows_under_both_default_directions(self, default_left):
        model, grid = _random_forest(1, default_left=default_left)
        X = _probe(1, 300, 5, grid, nan=0.4)
        X[::7] = np.nan  # rows that are missing everywhere
        _assert_kernel_matches_oracle(model, X)

    def test_values_at_thresholds_and_one_ulp_either_side(self):
        model, grid = _random_forest(2)
        X = _probe(2, 400, 5, grid, nan=0.0)
        assert np.isin(X, grid).any()
        _assert_kernel_matches_oracle(model, X)

    def test_infinite_inputs(self):
        model, grid = _random_forest(3)
        X = _probe(3, 300, 5, grid, nan=0.1, inf=0.3)
        X[0], X[1] = np.inf, -np.inf
        _assert_kernel_matches_oracle(model, X)

    def test_single_leaf_trees(self):
        model, grid = _random_forest(4, depth=0)
        assert all(len(t.feature) == 1 for t in model.trees)
        _assert_kernel_matches_oracle(model, _probe(4, 50, 5, grid))

    def test_zero_trees_give_the_base_score(self):
        model, grid = _random_forest(5, n_trees=0)
        X = _probe(5, 30, 5, grid)
        assert model.raw_score(X).tobytes() == np.full(30, model.base_score).tobytes()

    def test_depth_12_trees(self):
        model, grid = _random_forest(6, n_trees=3, depth=12, p_split=1.0)
        assert gbt._pack_forest(model.trees)[-1] == 12
        _assert_kernel_matches_oracle(model, _probe(6, 500, 5, grid))

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_zero_and_one_row(self, n_rows):
        model, grid = _random_forest(7)
        X = _probe(7, n_rows, 5, grid)
        assert model.raw_score(X).shape == (n_rows,)
        _assert_kernel_matches_oracle(model, X)

    @pytest.mark.parametrize("cells, rows", [(1, 1), (7 * 5, 13), (7 * 64, 100)])
    def test_chunk_sizes(self, cells, rows, monkeypatch):
        # 7 trees: 5 rows a step in copies of 10, or 64 a step in copies of
        # 64; neither divides the 203 rows
        model, grid = _random_forest(8, n_trees=7)
        X = _probe(8, 203, 5, grid, nan=0.3, inf=0.1)
        monkeypatch.setattr(gbt, "FOREST_STEP_CELLS", cells)
        monkeypatch.setattr(gbt, "FOREST_COPY_ROWS", rows)
        _assert_kernel_matches_oracle(model, X)

    def test_fitted_nan_heavy_ensemble(self):
        X, y = _split_search_problem(0)
        model = fit_boosted_trees(
            X, y, HyperParams(n_trees=20, max_depth=12, max_leaves=64), (0,) * 7, seed=0
        )
        probe = np.concatenate([X, X + np.nextafter(0.0, 1.0), np.flip(X, axis=0)])
        _assert_kernel_matches_oracle(model, probe)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 8),
           st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_random_forests(self, seed, n_rows, n_features, depth):
        model, grid = _random_forest(seed, n_trees=seed % 9, n_features=n_features,
                                     depth=depth)
        _assert_kernel_matches_oracle(model, _probe(seed, n_rows, n_features, grid,
                                                    nan=0.25, inf=0.05))


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


def nested_loop_sample(ds, split, cap, seed, counts, schema, source=None):
    """sample_pairs as a nested loop over each block's members, featurized
    pair by pair with reference_pair_features."""
    candidates = []
    for block in build_blocks(ds):
        if ds.splits.get(block.key) != split:
            continue
        m = block.members
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                candidates.append((m[i], m[j]))
    order = np.random.Generator(np.random.PCG64(seed)).permutation(len(candidates))
    chosen = [candidates[i] for i in order[: max(cap, 0)]]
    feat = source if source is not None else ds
    rows = []
    for a, b in chosen:
        values = reference_pair_features(
            reference_profile(feat.signatures[a], feat),
            reference_profile(feat.signatures[b], feat),
            counts,
        )
        rows.append([values[name] for name in schema.names])
    gold = ds.gold.assignment
    return (
        tuple(a for a, _ in chosen),
        tuple(b for _, b in chosen),
        np.array(rows, dtype=np.float64).reshape(len(chosen), len(schema)),
        np.array([gold[a] == gold[b] for a, b in chosen], dtype=np.float64),
    )


class TestSamplePairsOracle:
    @pytest.fixture(scope="class")
    def corpus(self, small_corpus):
        # the synthetic corpus plus three one-signature blocks in train
        papers, sigs = dict(small_corpus.papers), dict(small_corpus.signatures)
        gold = dict(small_corpus.gold.assignment)
        lasts = ("Zzyzx", "Qwop", "Xylo")
        for k, last in enumerate(lasts):
            papers[f"solo-p{k}"] = Paper(
                paper_id=f"solo-p{k}", title=f"solo {k}", author_names=(f"Ann {last}",)
            )
            sigs[f"solo-s{k}"] = Signature(
                signature_id=f"solo-s{k}", paper_id=f"solo-p{k}", author_position=1,
                first="Ann", middle=None, last=last,
            )
            gold[f"solo-s{k}"] = f"solo-{k}"
        ds = split_blocks(Dataset(papers, sigs, Partition(gold)), seed=4)
        ds.splits.update({f"a {last.lower()}": "train" for last in lasts})
        train = [b for b in build_blocks(ds) if ds.splits[b.key] == "train"]
        assert any(len(b) == 1 for b in train) and any(len(b) > 6 for b in train)
        n = sum(len(b) * (len(b) - 1) // 2 for b in train)
        return ds, build_name_counts(ds), n

    @pytest.mark.parametrize("cap", ["0", "1", "N", "10N"])
    @pytest.mark.parametrize("knockout", [False, True], ids=["clean", "knockout"])
    def test_matches_nested_loop(self, corpus, cap, knockout):
        from andlib.corpus import KNOCKOUT_GROUPS, knockout_augment

        ds, counts, n = corpus
        cap = {"0": 0, "1": 1, "N": n, "10N": 10 * n}[cap]
        source = (
            knockout_augment(ds, 5, {g: 0.5 for g in KNOCKOUT_GROUPS}) if knockout else None
        )
        schema = default_schema()
        got = sample_pairs(ds, "train", cap, 7, counts, schema, source=source)
        sig_a, sig_b, X, y = nested_loop_sample(ds, "train", cap, 7, counts, schema, source)
        assert len(got) == min(cap, n)
        assert (got.sig_a, got.sig_b) == (sig_a, sig_b)
        assert got.y.dtype == y.dtype and got.y.tobytes() == y.tobytes()
        assert got.X.shape == X.shape and got.X.tobytes() == X.tobytes()


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

    @pytest.mark.parametrize(
        "low,high",
        [(-np.inf, 1.0), (-np.inf, np.inf), (-np.finfo(np.float64).max, -1e308)],
        ids=["neg_inf_to_one", "neg_inf_to_inf", "midpoint_overflows"],
    )
    def test_cut_above_neg_inf_saves_and_loads(self, tmp_path, low, high):
        # the best cut lies between the two values; a threshold of -inf
        # (their mean, or the lower value) could be saved but not loaded
        X = np.repeat([[low], [high]], 20, axis=0)
        y = np.repeat([0.0, 1.0], 20)
        schema = toy_schema(1)
        model = train_gbt(X, y, SMALL_HP, (0,), 0, schema)
        thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees])
        assert thresholds.size and np.isfinite(thresholds).all()
        assert ((low <= thresholds) & (thresholds < high)).all()
        path = tmp_path / "model.json"
        save_ensemble(path, EnsembleClassifier(model, None, schema), SMALL_HP, 0)
        loaded, _ = load_ensemble(path, expected_schema=schema)
        assert np.array_equal(loaded.predict_from_features(X), model.predict_proba(X))
        assert (model.predict_proba(X[:20]) < 0.5).all() and (model.predict_proba(X[20:]) > 0.5).all()

    def test_no_cut_between_neg_inf_and_lowest_float(self, tmp_path):
        # no finite threshold separates -inf from -max float, so that cut is
        # never taken; the model splits on the other column instead
        lowest = -np.finfo(np.float64).max
        X = np.column_stack([np.repeat([-np.inf, lowest], 20), np.repeat([0.0, 1.0], 20)])
        X[::7, 1] = 0.5  # a worse but finite cut
        y = np.repeat([0.0, 1.0], 20)
        schema = toy_schema(2)
        model = train_gbt(X, y, SMALL_HP, (0, 0), 0, schema)
        assert all((t.feature[t.feature >= 0] == 1).all() for t in model.trees)
        path = tmp_path / "model.json"
        save_ensemble(path, EnsembleClassifier(model, None, schema), SMALL_HP, 0)
        load_ensemble(path, expected_schema=schema)

    def test_refuses_wrong_schema(self, tmp_path):
        X, y = separable_problem(n=60)
        schema = toy_schema(1)
        model = train_gbt(X, y, SMALL_HP, (0,), 0, schema)
        path = tmp_path / "model.json"
        save_ensemble(path, EnsembleClassifier(model, None, schema), SMALL_HP, 0)
        with pytest.raises(SchemaMismatchError):
            load_ensemble(path, expected_schema=toy_schema(2))

    def _saved_doc(self, tmp_path, linear=False):
        X, y = separable_problem(n=60)
        schema = toy_schema(1)
        if linear:
            model = train_linear(X, y, schema=schema)
        else:
            model = train_gbt(X, y, SMALL_HP, (0,), 0, schema)
        path = tmp_path / "model.json"
        save_ensemble(path, EnsembleClassifier(model, None, schema), SMALL_HP, 0)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(
        "key,node,value",
        [
            ("feature", "leaf", 0),  # a leaf that names a feature
            ("feature", 0, -1),  # a split that names none
            ("feature", "leaf", -2),
            ("feature", 0, 1),  # outside the one-feature schema
            ("left", 0, 0),  # a cycle through the root
            ("right", 0, "end"),  # past the last node
        ],
    )
    def test_refuses_malformed_tree(self, tmp_path, key, node, value):
        path, doc = self._saved_doc(tmp_path)
        tree = doc["full"]["trees"][0]
        assert tree["feature"][0] >= 0
        node = tree["feature"].index(-1) if node == "leaf" else node
        tree[key][node] = len(tree[key]) if value == "end" else value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_ensemble(path)

    @pytest.mark.parametrize("edit", [
        lambda tree: tree.pop("value"),
        lambda tree: tree["threshold"].append(0.0),
    ])
    def test_refuses_tree_with_missing_or_ragged_arrays(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc["full"]["trees"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_ensemble(path)

    @pytest.mark.parametrize("edit", [
        lambda member: member["trees"][0]["threshold"].__setitem__(0, float("nan")),
        lambda member: member["trees"][0]["value"].__setitem__(-1, float("inf")),
        lambda member: member.__setitem__("base_score", float("-inf")),
        lambda member: member.__setitem__("learning_rate", float("nan")),
    ], ids=["nan_threshold", "inf_leaf_value", "inf_base_score", "nan_learning_rate"])
    def test_refuses_non_finite_numbers(self, tmp_path, edit):
        # Python's json reads NaN and Infinity, so the loader must check
        path, doc = self._saved_doc(tmp_path)
        assert doc["full"]["trees"][0]["feature"][0] >= 0
        edit(doc["full"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_ensemble(path)

    def test_refuses_linear_member_of_wrong_width(self, tmp_path):
        path, doc = self._saved_doc(tmp_path, linear=True)
        load_ensemble(path)
        doc["full"]["weights"].append(1.0)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_ensemble(path)

    @pytest.mark.parametrize("edit", [
        lambda member: member["weights"].__setitem__(0, float("nan")),
        lambda member: member.__setitem__("bias", float("inf")),
        lambda member: member["medians"].__setitem__(0, float("-inf")),
    ], ids=["nan_weight", "inf_bias", "inf_median"])
    def test_refuses_non_finite_linear_member(self, tmp_path, edit):
        # a NaN weight would make every probability NaN
        path, doc = self._saved_doc(tmp_path, linear=True)
        edit(doc["full"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_ensemble(path)

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
