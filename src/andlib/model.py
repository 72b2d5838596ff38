"""Pair sampling, pairwise classifiers, and the two-member ensemble.

The production classifier averages two boosted-tree models: one trained on
the full feature vector and a "nameless" twin trained with every
focal-author name feature blanked. The nameless twin exists to stop the
ensemble from over-trusting name similarity when richer metadata disagrees.

A linear baseline trained on median-imputed features is provided for
ablation runs, behind the same prediction interface.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import blocking
from .blocking import Block
from .corpus import Dataset, NameCountsTable, Signature
from .errors import ConfigError, ParseError, SchemaMismatchError
from .features import (
    FeatureSchema,
    FeatureSpec,
    featurize_pairs,
    featurize_pair,
    mask_nameless,
)
from .gbt import (
    HyperParams,
    P_EPS,
    TreeEnsembleModel,
    Tree,
    fit_boosted_trees,
    sample_hyperparams,
    sigmoid,
)

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

    # features one block at a time, so only one block's profiles are alive
    feat_ds = source if source is not None else dataset
    sigs = [feat_ds.signatures[m] for m in members]
    X = np.empty((len(a), len(schema)), dtype=np.float64)
    block_of = np.repeat(np.arange(len(blocks)), sizes)[a]
    order = np.argsort(block_of, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(block_of[order])) + 1):
        X[rows] = featurize_pairs(sigs, a[rows], b[rows], feat_ds, counts, schema)
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
    return fit_boosted_trees(
        X, y, hp, constraints, seed, schema_hash=schema.schema_hash
    )


@dataclass
class LinearModel:
    """Logistic-regression baseline over median-imputed features."""

    weights: np.ndarray
    bias: float
    medians: np.ndarray
    schema_hash: str

    def raw_score(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        filled = np.where(np.isnan(X), self.medians, X)
        return filled @ self.weights + self.bias

    def predict_proba(self, v: np.ndarray) -> float | np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        single = v.ndim == 1
        p = np.clip(sigmoid(self.raw_score(v)), P_EPS, 1.0 - P_EPS)
        return float(p[0]) if single else p


def train_linear(
    X: np.ndarray,
    y: np.ndarray,
    regularization: float = 1e-3,
    seed: int = 0,
    schema: FeatureSchema | None = None,
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
        p = np.clip(sigmoid(raw), P_EPS, 1.0 - P_EPS)
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
    return LinearModel(
        weights=weights,
        bias=bias,
        medians=medians,
        schema_hash=schema.schema_hash if schema is not None else "",
    )


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

    @property
    def schema_hash(self) -> str:
        return self.schema.schema_hash

    def predict_from_features(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        p_full = self.full_model.predict_proba(X)
        if self.nameless_model is None:
            return p_full
        p_nameless = self.nameless_model.predict_proba(mask_nameless(X, self.schema))
        return (p_full + p_nameless) / 2.0

    def check_hash(self, schema: FeatureSchema) -> None:
        if schema.schema_hash != self.schema.schema_hash:
            raise SchemaMismatchError(
                "model was trained on a different feature schema"
            )


def predict_ensemble(
    ens: EnsembleClassifier,
    s1: Signature,
    s2: Signature,
    dataset: Dataset,
    counts: NameCountsTable,
    schema: FeatureSchema,
) -> float:
    """Same-author probability for one signature pair."""
    ens.check_hash(schema)
    v = featurize_pair(s1, s2, dataset, counts, schema)
    return float(ens.predict_from_features(v)[0])


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


def _check_tree(tree: Tree, n_features: int) -> None:
    """Refuse a tree that ``Tree.predict`` cannot walk to a leaf.

    Children must come after their parent, as the pre-order layout of a
    fitted tree has them; that also rules out cycles.
    """
    arrays = (
        tree.feature, tree.threshold, tree.left, tree.right,
        tree.default_left, tree.value,
    )
    n = len(tree.feature)
    if n == 0 or any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ValueError("tree arrays are empty or differ in length")
    if np.any(tree.feature >= n_features):
        raise ValueError(f"feature index outside the schema's {n_features}")
    if not (np.all(np.isfinite(tree.threshold)) and np.all(np.isfinite(tree.value))):
        raise ValueError("a threshold or leaf value is not finite")
    split = tree.feature >= 0
    leaf = (tree.left == -1) & (tree.right == -1)
    if np.any(~split & ((tree.feature != -1) | ~leaf)):
        raise ValueError("a node is a leaf exactly when its feature is -1")
    nodes = np.arange(n)
    for child in (tree.left, tree.right):
        if np.any(split & ((child <= nodes) | (child >= n))):
            raise ValueError("a child index does not come after its parent")


def _member_from_doc(doc: dict, schema_hash: str, n_features: int):
    kind = doc.get("kind")
    if kind == "gbt":
        trees = [Tree.from_doc(t) for t in doc["trees"]]
        for tree in trees:
            _check_tree(tree, n_features)
        learning_rate = float(doc["learning_rate"])
        base_score = float(doc["base_score"])
        if not np.isfinite([learning_rate, base_score]).all():
            raise ValueError("learning_rate or base_score is not finite")
        return TreeEnsembleModel(
            trees=trees,
            learning_rate=learning_rate,
            base_score=base_score,
            schema_hash=schema_hash,
            constraints=tuple(int(c) for c in doc["constraints"]),
        )
    if kind == "linear":
        model = LinearModel(
            weights=np.asarray(doc["weights"], dtype=np.float64),
            bias=float(doc["bias"]),
            medians=np.asarray(doc["medians"], dtype=np.float64),
            schema_hash=schema_hash,
        )
        if model.weights.shape != (n_features,) or model.medians.shape != (n_features,):
            raise ValueError(f"linear member does not have {n_features} weights")
        if not (
            np.all(np.isfinite(model.weights))
            and np.isfinite(model.bias)
            and np.all(np.isfinite(model.medians))
        ):
            raise ValueError("a linear weight, bias or median is not finite")
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_ensemble(
    path: str | os.PathLike,
    expected_schema: FeatureSchema | None = None,
) -> tuple[EnsembleClassifier, dict]:
    """Load a model container, refusing on any schema-hash mismatch."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a model object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported model format {doc.get('format_version')!r}"
        )
    try:
        schema = FeatureSchema(
            tuple(
                FeatureSpec(name, group, int(mono), bool(nameless))
                for name, group, mono, nameless in doc["schema"]["features"]
            )
        )
        stored_hash = doc["schema"]["hash"]
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
        full = _member_from_doc(doc["full"], schema.schema_hash, len(schema))
        nameless = (
            _member_from_doc(doc["nameless"], schema.schema_hash, len(schema))
            if doc.get("nameless") is not None
            else None
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model member: {exc!r}") from exc
    ens = EnsembleClassifier(full_model=full, nameless_model=nameless, schema=schema)
    meta = {
        "hyperparams": doc.get("hyperparams"),
        "seed": doc.get("seed"),
        "cluster_params": doc.get("cluster_params"),
    }
    return ens, meta
