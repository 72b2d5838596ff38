"""Pair sampling, pairwise classifiers, and the two-member ensemble.

The production classifier averages two boosted-tree models: one trained on
the full feature vector and a "nameless" twin trained with every
focal-author name feature blanked. The nameless twin exists to stop the
ensemble from over-trusting name similarity when richer metadata disagrees.

A linear baseline trained on median-imputed features is provided for
ablation runs, behind the same prediction interface.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import blocking
from .blocking import Block
from .corpus import Dataset, NameCountsTable
from .errors import ConfigError, ParseError, SchemaMismatchError
from .features import (
    FeatureSchema,
    FeatureSpec,
    PaperGrams,
    featurize_pairs,
)
from .gbt import (
    EnsembleMember,
    HyperParams,
    TreeEnsembleModel,
    Tree,
    fit_boosted_trees,
    probability,
    sample_hyperparams,
)
from .settings import is_int, is_number, read_json, write_json

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PairSample:
    """Labeled within-block pairs as parallel arrays: row i of ``X`` and
    ``y`` belongs to the pair (``sig_a[i]``, ``sig_b[i]``)."""

    sig_a: tuple[str, ...]
    sig_b: tuple[str, ...]
    X: np.ndarray  # (n_pairs, n_features), schema order
    y: np.ndarray  # (n_pairs,) float64; 1.0 = same author

    def __len__(self) -> int:
        return len(self.y)


def sample_pairs(
    dataset: Dataset,
    split: str,
    cap: int,
    seed: int,
    counts: NameCountsTable,
    schema: FeatureSchema,
    source: Dataset | None = None,
    blocks: Sequence[Block] | None = None,
) -> PairSample:
    """Sample labeled within-block pairs from one split, uniformly without
    replacement, truncated to ``cap``.

    ``source`` lets the caller featurize against a degraded copy of the
    corpus (knockout augmentation) while keeping pair identities and labels
    from the clean one. ``blocks`` are the blocks of ``dataset`` when the
    caller has already built them.
    """
    if dataset.splits is None:
        raise ConfigError("dataset has no block splits; run split_blocks first")
    if dataset.gold is None:
        raise ConfigError("pair sampling requires a gold partition")
    if split not in ("train", "val", "test"):
        raise ConfigError(f"unknown split {split!r}")
    if blocks is None:
        blocks = blocking.build_blocks(dataset)
    blocks = [b for b in blocks if dataset.splits.get(b.key) == split]
    if not blocks:
        raise ConfigError(f"split {split!r} contains no blocks")
    # candidates as member indices, block by block in triu_indices order
    members = [m for b in blocks for m in b.members]
    sizes = [len(b) for b in blocks]
    starts = np.cumsum([0] + sizes)
    cand = np.concatenate(
        [np.add(np.triu_indices(n, k=1), lo) for n, lo in zip(sizes, starts)], axis=1
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    a, b = cand[:, rng.permutation(cand.shape[1])[: max(cap, 0)]]

    # one featurize_pairs call per block prepares that block's sampled
    # signatures once, so only one block's are alive, against one PaperGrams
    # table, so each cited paper is n-grammed once
    feat_ds = source if source is not None else dataset
    sigs = [feat_ds.signatures[m] for m in members]
    grams = PaperGrams(feat_ds)
    X = np.empty((len(a), len(schema)), dtype=np.float64)
    block_of = np.repeat(np.arange(len(blocks)), sizes)[a]
    order = np.argsort(block_of, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(block_of[order])) + 1):
        X[rows] = featurize_pairs(sigs, a[rows], b[rows], feat_ds, counts, schema, grams)
    label = np.array([dataset.gold.assignment[m] for m in members])
    return PairSample(
        sig_a=tuple(members[i] for i in a.tolist()),
        sig_b=tuple(members[i] for i in b.tolist()),
        X=X,
        y=(label[a] == label[b]).astype(np.float64),
    )


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------


def train_gbt(
    X: np.ndarray,
    y: np.ndarray,
    hp: HyperParams,
    constraints: Sequence[int],
    seed: int,
    schema: FeatureSchema,
) -> TreeEnsembleModel:
    """Train the boosted-tree pairwise classifier on a labeled feature matrix."""
    if X.shape[1] != len(schema):
        raise SchemaMismatchError(
            f"pair vectors have {X.shape[1]} slots, schema has {len(schema)}"
        )
    return fit_boosted_trees(X, y, hp, constraints, seed)


@dataclass
class LinearModel(EnsembleMember):
    """Logistic-regression baseline over median-imputed features."""

    weights: np.ndarray
    bias: float
    medians: np.ndarray

    def raw_score(self, X: np.ndarray, missing: Sequence[int] = ()) -> np.ndarray:
        """Raw scores of the rows of ``X``, with NaN values and the columns
        ``missing`` read as their medians."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        filled = np.where(np.isnan(X), self.medians, X)
        missing = list(missing)
        filled[:, missing] = self.medians[missing]
        return filled @ self.weights + self.bias


def train_linear(
    X: np.ndarray,
    y: np.ndarray,
    regularization: float = 1e-3,
) -> LinearModel:
    """Fit the logistic baseline by Newton iteration (deterministic)."""
    pos = y.sum()
    if pos == 0 or pos == y.size:
        raise ConfigError("training set contains a single class")
    medians = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        col = X[:, j]
        present = col[~np.isnan(col)]
        medians[j] = float(np.median(present)) if present.size else 0.0
    Xf = np.where(np.isnan(X), medians, X)
    # standardize internally for conditioning; fold back into weight space
    mu = Xf.mean(axis=0)
    sd = Xf.std(axis=0)
    sd[sd == 0] = 1.0
    Z = (Xf - mu) / sd
    n, d = Z.shape
    w = np.zeros(d)
    b = float(np.log((pos / n) / (1 - pos / n)))
    Za = np.concatenate([Z, np.ones((n, 1))], axis=1)
    # mean logistic loss with per-sample L2, so replicating the data leaves
    # the optimum unchanged
    for _ in range(50):
        raw = Z @ w + b
        p = probability(raw)
        grad_w = Z.T @ (p - y) / n + regularization * w
        grad_b = float(np.mean(p - y))
        if max(np.abs(grad_w).max(), abs(grad_b)) < 1e-10:
            break
        r = p * (1 - p)
        hess = (Za * r[:, None]).T @ Za / n
        hess[:d, :d] += regularization * np.eye(d)
        hess += 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(hess, np.concatenate([grad_w, [grad_b]]))
        w -= step[:d]
        b -= float(step[d])
    weights = w / sd
    bias = b - float(np.dot(weights, mu))
    return LinearModel(weights=weights, bias=bias, medians=medians)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


@dataclass
class EnsembleClassifier:
    """Mean of the full model and its nameless twin.

    ``nameless_model`` may be None (the "no nameless classifier" ablation),
    in which case the full model's probability is used alone.
    """

    full_model: TreeEnsembleModel | LinearModel
    nameless_model: TreeEnsembleModel | LinearModel | None
    schema: FeatureSchema

    def predict_from_features(self, X: np.ndarray) -> np.ndarray:
        """The members' mean probability for each row of ``X``. The nameless
        member reads the nameless columns of ``X`` as missing, which scores
        ``mask_nameless(X)`` to the bit without a masked copy of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != len(self.schema):
            raise SchemaMismatchError(
                f"pair vectors have {X.shape[1]} slots, schema has {len(self.schema)}"
            )
        p_full = self.full_model.predict_proba(X)
        if self.nameless_model is None:
            return p_full
        p_nameless = self.nameless_model.predict_proba(X, self.schema.nameless_indices())
        return (p_full + p_nameless) / 2.0


# ---------------------------------------------------------------------------
# hyperparameter search
# ---------------------------------------------------------------------------


def tune_hyperparameters(
    X: np.ndarray,
    y: np.ndarray,
    Xv: np.ndarray,
    yv: np.ndarray,
    budget: int,
    seed: int,
    constraints: Sequence[int],
    schema: FeatureSchema,
    overrides: dict | None = None,
) -> tuple[HyperParams, float]:
    """Seeded random search maximizing validation AUROC."""
    from .metrics import auroc

    if budget < 1:
        raise ConfigError("tuning budget must be >= 1")
    if not 0 < yv.sum() < yv.size:
        raise ConfigError("validation pairs need both classes to score AUROC")
    rng = np.random.Generator(np.random.PCG64(seed))
    best_hp: HyperParams | None = None
    best_score = -np.inf
    for trial in range(budget):
        hp = sample_hyperparams(rng, overrides)
        model = train_gbt(X, y, hp, constraints, seed, schema)
        score = auroc(model.predict_proba(Xv), yv.astype(int))
        if score > best_score:
            best_score = score
            best_hp = hp
    return best_hp, float(best_score)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _member_to_doc(model) -> dict:
    if isinstance(model, TreeEnsembleModel):
        return {
            "kind": "gbt",
            "base_score": model.base_score,
            "learning_rate": model.learning_rate,
            "constraints": list(model.constraints),
            "trees": [t.to_doc() for t in model.trees],
        }
    if isinstance(model, LinearModel):
        return {
            "kind": "linear",
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "medians": model.medians.tolist(),
        }
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def _ints(values, lo: int, hi: int) -> list:
    """``values`` if it is a JSON list of integers in ``[lo, hi)``."""
    if not (isinstance(values, list) and all(is_int(v) and lo <= v < hi for v in values)):
        raise ValueError(f"expected a list of integers in [{lo}, {hi})")
    return values


def _reals(values) -> np.ndarray:
    """A JSON list of finite numbers (``is_number``) as float64."""
    if not (isinstance(values, list) and all(map(is_number, values))):
        raise ValueError("expected a list of numbers")
    return np.asarray(values, dtype=np.float64)


def _real(value) -> float:
    return float(_reals([value])[0])


def _tree_from_doc(doc: dict, n_features: int) -> Tree:
    """A stored tree, refused unless ``Tree.predict`` can walk it to a leaf.

    Children must come after their parent, as the pre-order layout of a
    fitted tree has them; that also rules out cycles.
    """
    n = len(doc["feature"])
    default_left = doc["default_left"]
    if not (isinstance(default_left, list) and all(type(v) is bool for v in default_left)):
        raise ValueError("default_left must be a list of booleans")
    tree = Tree(
        feature=np.asarray(_ints(doc["feature"], -1, n_features), dtype=np.int32),
        threshold=_reals(doc["threshold"]),
        left=np.asarray(_ints(doc["left"], -1, n), dtype=np.int32),
        right=np.asarray(_ints(doc["right"], -1, n), dtype=np.int32),
        default_left=np.asarray(default_left, dtype=bool),
        value=_reals(doc["value"]),
    )
    arrays = (tree.threshold, tree.left, tree.right, tree.default_left, tree.value)
    if n == 0 or any(len(a) != n for a in arrays):
        raise ValueError("tree arrays are empty or differ in length")
    split = tree.feature >= 0
    if np.any(~split & ((tree.left != -1) | (tree.right != -1))):
        raise ValueError("a node is a leaf exactly when its feature is -1")
    nodes = np.arange(n)
    for child in (tree.left, tree.right):
        if np.any(split & (child <= nodes)):
            raise ValueError("a child index does not come after its parent")
    return tree


def _member_from_doc(doc: dict, n_features: int):
    kind = doc.get("kind")
    if kind == "gbt":
        if not isinstance(doc["trees"], list):
            raise ValueError("trees must be a list")
        constraints = _ints(doc["constraints"], -1, 2)
        if len(constraints) != n_features:
            raise ValueError(f"{len(constraints)} constraints for {n_features} features")
        return TreeEnsembleModel(
            trees=[_tree_from_doc(t, n_features) for t in doc["trees"]],
            learning_rate=_real(doc["learning_rate"]),
            base_score=_real(doc["base_score"]),
            constraints=tuple(constraints),
        )
    if kind == "linear":
        model = LinearModel(
            weights=_reals(doc["weights"]),
            bias=_real(doc["bias"]),
            medians=_reals(doc["medians"]),
        )
        if model.weights.shape != (n_features,) or model.medians.shape != (n_features,):
            raise ValueError(f"linear member does not have {n_features} weights")
        return model
    raise ParseError(f"unknown model kind {kind!r}")


def save_ensemble(
    path: str | os.PathLike,
    ens: EnsembleClassifier,
    hyperparams: HyperParams | None,
    seed: int,
    cluster_params: dict | None = None,
) -> None:
    """Write the self-describing model container."""
    schema = ens.schema
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "schema": {
            "features": [
                [f.name, f.group, f.monotone, f.nameless] for f in schema.features
            ],
            "hash": schema.schema_hash,
        },
        "hyperparams": hyperparams.to_doc() if hyperparams is not None else None,
        "seed": seed,
        "cluster_params": cluster_params,
        "full": _member_to_doc(ens.full_model),
        "nameless": (
            _member_to_doc(ens.nameless_model)
            if ens.nameless_model is not None
            else None
        ),
    }
    write_json(doc, path, indent=1)


def _spec_from_doc(entry) -> FeatureSpec:
    """A stored schema entry ``[name, group, monotone, nameless]``, refused
    unless each value has its exact JSON type."""
    if not (isinstance(entry, list) and len(entry) == 4):
        raise ValueError("a schema entry must be [name, group, monotone, nameless]")
    name, group, mono, nameless = entry
    if not (isinstance(name, str) and isinstance(group, str)):
        raise ValueError("a feature name and group must be strings")
    if not (is_int(mono) and mono in (-1, 0, 1)):
        raise ValueError(f"a monotone value must be -1, 0 or 1, got {mono!r}")
    if type(nameless) is not bool:
        raise ValueError(f"a nameless flag must be a boolean, got {nameless!r}")
    return FeatureSpec(name, group, mono, nameless)


def _check_settings(doc) -> None:
    """Refuse stored ``cluster_params`` and ``hyperparams`` unless each is
    null or makes valid settings: cluster_params of its stored keys only,
    hyperparams naming every hyperparameter."""
    from .cluster import STORED_CLUSTER_PARAMS, ClusterParams  # cluster imports this module

    params, hp = doc.get("cluster_params"), doc.get("hyperparams")
    if params is not None:
        if isinstance(params, dict) and not set(params) <= set(STORED_CLUSTER_PARAMS):
            raise ValueError(f"cluster_params may hold only {', '.join(STORED_CLUSTER_PARAMS)}")
        ClusterParams.from_doc(params)
    if hp is not None:
        if isinstance(hp, dict) and set(hp) != set(HyperParams().to_doc()):
            raise ValueError("hyperparams must name every hyperparameter")
        HyperParams.from_doc(hp)


def load_ensemble(
    path: str | os.PathLike,
    expected_schema: FeatureSchema | None = None,
) -> tuple[EnsembleClassifier, dict]:
    """Load a model container, refusing on any schema-hash mismatch."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a model object")
    version = doc.get("format_version")
    if not is_int(version) or version != MODEL_FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported model format {version!r}")
    try:
        entries = doc["schema"]["features"]
        if not isinstance(entries, list):
            raise ValueError("schema features must be a list")
        schema = FeatureSchema(tuple(map(_spec_from_doc, entries)))
        stored_hash = doc["schema"]["hash"]
        if not isinstance(stored_hash, str):
            raise ValueError(f"the schema hash must be a string, got {stored_hash!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed schema: {exc!r}") from exc
    if schema.schema_hash != stored_hash:
        raise SchemaMismatchError(
            f"{path}: stored schema hash does not match its feature list"
        )
    if expected_schema is not None and expected_schema.schema_hash != schema.schema_hash:
        raise SchemaMismatchError(
            f"{path}: model schema does not match the requested feature schema"
        )
    try:
        full = _member_from_doc(doc["full"], len(schema))
        nameless = (
            _member_from_doc(doc["nameless"], len(schema))
            if doc.get("nameless") is not None
            else None
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model member: {exc!r}") from exc
    try:
        _check_settings(doc)
        if not is_int(doc.get("seed")):
            raise ValueError(f"seed must be an integer, got {doc.get('seed')!r}")
    except (ConfigError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    ens = EnsembleClassifier(full_model=full, nameless_model=nameless, schema=schema)
    meta = {key: doc.get(key) for key in ("hyperparams", "seed", "cluster_params")}
    return ens, meta
