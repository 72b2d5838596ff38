"""Gradient-boosted binary decision trees with monotone constraints.

Second-order boosting on the logistic loss. Trees are grown leaf-wise
(best split first) with exact split search over distinct feature values,
optionally thinned to ``max_bins`` candidate cuts.

Missing values are never imputed: split search runs over present values
only, and each node learns a default direction for missing rows (whichever
side yields more gain).

Monotone constraints are enforced structurally. When a node splits on a
constrained feature, the candidate is rejected unless the child values obey
the required order, and the children inherit value bounds split at the
midpoint of the two child values. Every leaf value is clipped to its node's
bounds, so the fitted tree - and therefore the whole ensemble - is exactly
monotone in each constrained feature, not just approximately.

The final prediction is ``sigmoid(base_score + learning_rate * sum of leaf
values over trees)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError

#: probabilities are clipped into the open interval (0, 1)
P_EPS = 1e-15

#: floor applied to Newton denominators so degenerate nodes stay finite
_DEN_FLOOR = 1e-6

#: a split must improve the objective by more than this to be taken
_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class HyperParams:
    """Training knobs. All eleven non-binning knobs are searchable."""

    n_trees: int = 100
    max_leaves: int = 32
    max_depth: int = 8
    learning_rate: float = 0.1
    min_samples_leaf: int = 5
    feature_fraction: float = 0.9
    row_subsample: float = 0.9
    l2_regularization: float = 1.0
    l1_regularization: float = 0.0
    min_split_gain: float = 0.0
    min_child_weight: float = 1e-3
    max_bins: int = 255

    def to_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_doc(cls, doc: dict) -> "HyperParams":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown hyperparameters: {sorted(unknown)}")
        return cls(**doc)


#: declared search ranges: (kind, low, high); kind in {int, int_log, float, float_log}
SEARCH_SPACE: dict[str, tuple[str, float, float]] = {
    "n_trees": ("int_log", 20, 300),
    "max_leaves": ("int_log", 4, 64),
    "max_depth": ("int", 3, 12),
    "learning_rate": ("float_log", 0.02, 0.3),
    "min_samples_leaf": ("int_log", 1, 50),
    "feature_fraction": ("float", 0.5, 1.0),
    "row_subsample": ("float", 0.5, 1.0),
    "l2_regularization": ("float_log", 1e-3, 10.0),
    "l1_regularization": ("float", 0.0, 1.0),
    "min_split_gain": ("float", 0.0, 0.2),
    "min_child_weight": ("float_log", 1e-4, 1.0),
}


def sample_hyperparams(rng: np.random.Generator, overrides: dict | None = None) -> HyperParams:
    """Draw one configuration uniformly (log-uniformly where declared)."""
    values: dict = {}
    for name, (kind, lo, hi) in SEARCH_SPACE.items():
        if kind == "int":
            values[name] = int(rng.integers(int(lo), int(hi) + 1))
        elif kind == "int_log":
            values[name] = int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))
        elif kind == "float":
            values[name] = float(rng.uniform(lo, hi))
        else:  # float_log
            values[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    if overrides:
        values.update(overrides)
    return HyperParams.from_doc(values)


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Tree:
    """One fitted tree as parallel node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    default_left: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                break
            cur = node[active]
            v = X[active, feat[active]]
            go_left = (v <= self.threshold[cur]) | (
                np.isnan(v) & self.default_left[cur]
            )
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def to_doc(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "default_left": [bool(b) for b in self.default_left],
            "value": self.value.tolist(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Tree":
        return cls(
            feature=np.asarray(doc["feature"], dtype=np.int32),
            threshold=np.asarray(doc["threshold"], dtype=np.float64),
            left=np.asarray(doc["left"], dtype=np.int32),
            right=np.asarray(doc["right"], dtype=np.int32),
            default_left=np.asarray(doc["default_left"], dtype=bool),
            value=np.asarray(doc["value"], dtype=np.float64),
        )


@dataclass
class TreeEnsembleModel:
    """Boosted trees plus the metadata needed to apply them safely."""

    trees: list[Tree]
    learning_rate: float
    base_score: float
    schema_hash: str
    constraints: tuple[int, ...]

    def raw_score(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        raw = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def predict_proba(self, v: np.ndarray) -> float | np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        single = v.ndim == 1
        p = np.clip(sigmoid(self.raw_score(v)), P_EPS, 1.0 - P_EPS)
        return float(p[0]) if single else p


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _optimal_value(G, H, l2: float, l1: float):
    """Newton-step leaf value with L1 soft-thresholding and L2 shrinkage."""
    G = np.asarray(G, dtype=np.float64)
    num = np.where(G > l1, G - l1, np.where(G < -l1, G + l1, 0.0))
    den = np.maximum(np.asarray(H, dtype=np.float64) + l2, _DEN_FLOOR)
    return -num / den


def _value_loss(G, H, w, l2: float, l1: float):
    """Second-order objective of assigning value w to a node with sums G, H."""
    den = np.maximum(np.asarray(H, dtype=np.float64) + l2, _DEN_FLOOR)
    return G * w + 0.5 * den * w * w + l1 * np.abs(w)


@dataclass
class _Node:
    rows: np.ndarray
    depth: int
    lo: float
    hi: float
    value: float
    split: dict | None = None
    left_child: "_Node | None" = None
    right_child: "_Node | None" = None


def _node_value(g_sum: float, h_sum: float, lo: float, hi: float, hp: HyperParams) -> float:
    w = float(_optimal_value(g_sum, h_sum, hp.l2_regularization, hp.l1_regularization))
    return min(max(w, lo), hi)


def _best_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    node: _Node,
    feats: np.ndarray,
    constraints: Sequence[int],
    hp: HyperParams,
) -> dict | None:
    """Evaluate every candidate (feature, cut, missing-direction) at once.

    Columns are sorted together (NaNs last), so prefix sums over the sorted
    gradients give left-side statistics for every cut of every feature in a
    single pass.
    """
    rows = node.rows
    m = rows.size
    if m < 2:
        return None
    g_node = g[rows]
    h_node = h[rows]
    G_all = float(g_node.sum())
    H_all = float(h_node.sum())
    l2, l1 = hp.l2_regularization, hp.l1_regularization
    parent_loss = float(_value_loss(G_all, H_all, node.value, l2, l1))

    cols = X[rows][:, feats]  # (m, F)
    order = np.argsort(cols, axis=0, kind="stable")  # NaNs sort last
    sorted_cols = np.take_along_axis(cols, order, axis=0)
    g_s = np.cumsum(g_node[order], axis=0)
    h_s = np.cumsum(h_node[order], axis=0)
    miss_mask = np.isnan(cols)
    n_miss = miss_mask.sum(axis=0)  # (F,)
    # exact per-column missing sums: a feature with no missing rows must tie
    # the two routing directions exactly, so the default is deterministic
    G_m = g_node @ miss_mask
    H_m = h_node @ miss_mask

    # cut k splits sorted rows [0..k] / [k+1..]; valid only between distinct
    # present values
    with np.errstate(invalid="ignore"):
        can_cut = (sorted_cols[1:] != sorted_cols[:-1]) & ~np.isnan(sorted_cols[1:])
    # thin to ~max_bins evenly spaced cuts per feature (rank-based, so
    # features with few distinct values keep all their cuts)
    max_cuts = max(1, hp.max_bins - 1)
    ranks = np.cumsum(can_cut, axis=0)
    totals = ranks[-1] if ranks.size else np.zeros(len(feats), dtype=np.int64)
    crowded = totals > max_cuts
    if np.any(crowded):
        keep = (ranks * max_cuts) // np.maximum(totals, 1) != (
            (ranks - 1) * max_cuts
        ) // np.maximum(totals, 1)
        can_cut[:, crowded] &= keep[:, crowded]
    n_cuts = can_cut.sum(axis=0)
    max_c = int(n_cuts.max()) if n_cuts.size else 0
    if max_c == 0:
        return None
    # compact grid: each column's valid cut positions first (ascending),
    # padded with arbitrary invalid positions that cut_ok masks out
    pos = np.argsort(~can_cut, axis=0, kind="stable")[:max_c]  # (C, F)
    cut_ok = np.take_along_axis(can_cut, pos, axis=0)

    GLp = np.take_along_axis(g_s, pos, axis=0)  # prefix sums at each cut
    HLp = np.take_along_axis(h_s, pos, axis=0)
    nLp = pos + 1

    # axis 0: missing goes left / right
    GL = np.stack([GLp + G_m, GLp])
    HL = np.stack([HLp + H_m, HLp])
    nL = np.stack([nLp + n_miss, np.broadcast_to(nLp, GLp.shape)])
    GR = G_all - GL
    HR = H_all - HL
    nR = m - nL

    wL = np.clip(_optimal_value(GL, HL, l2, l1), node.lo, node.hi)
    wR = np.clip(_optimal_value(GR, HR, l2, l1), node.lo, node.hi)
    msl, mcw = hp.min_samples_leaf, hp.min_child_weight
    valid = cut_ok[None, :, :] & (nL >= msl) & (nR >= msl) & (HL >= mcw) & (HR >= mcw)
    cvec = np.asarray([constraints[f] for f in feats], dtype=np.float64)
    constrained = cvec != 0.0
    if constrained.any():
        ok = cvec[None, None, :] * (wR - wL) >= 0.0
        valid &= ok | ~constrained[None, None, :]
    if not valid.any():
        return None

    gain = parent_loss - (_value_loss(GL, HL, wL, l2, l1) + _value_loss(GR, HR, wR, l2, l1))
    gain = np.where(valid, gain, -np.inf)
    # argmax in (feature, direction, cut) order for deterministic tie-breaks
    flat = np.transpose(gain, (2, 0, 1))
    k = int(np.argmax(flat))
    best_gain = float(flat.flat[k])
    if best_gain <= max(hp.min_split_gain, 0.0) + _GAIN_EPS:
        return None
    n_c = gain.shape[1]
    fi, rem = divmod(k, 2 * n_c)
    d, cut_i = divmod(rem, n_c)
    cut = int(pos[cut_i, fi])
    lo_v = float(sorted_cols[cut, fi])
    hi_v = float(sorted_cols[cut + 1, fi])
    thr = (lo_v + hi_v) / 2.0
    if thr >= hi_v:  # adjacent floats rounded up; keep routing exact
        thr = lo_v
    return {
        "feature": int(feats[fi]),
        "threshold": thr,
        "default_left": d == 0,
        "gain": best_gain,
        "wL": float(wL[d, cut_i, fi]),
        "wR": float(wR[d, cut_i, fi]),
    }


def _split_rows(X, rows, split) -> tuple[np.ndarray, np.ndarray]:
    col = X[rows, split["feature"]]
    go_left = col <= split["threshold"]
    if split["default_left"]:
        go_left |= np.isnan(col)
    return rows[go_left], rows[~go_left]


def _grow_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    feats: np.ndarray,
    constraints: Sequence[int],
    hp: HyperParams,
) -> Tree:
    root = _Node(
        rows=rows,
        depth=0,
        lo=-np.inf,
        hi=np.inf,
        value=_node_value(float(g[rows].sum()), float(h[rows].sum()), -np.inf, np.inf, hp),
    )
    counter = 0
    heap: list[tuple[float, int, _Node]] = []

    def consider(node: _Node) -> None:
        nonlocal counter
        if node.depth >= hp.max_depth or node.rows.size < 2 * hp.min_samples_leaf:
            return
        split = _best_split(X, g, h, node, feats, constraints, hp)
        if split is not None:
            node.split = split
            heapq.heappush(heap, (-split["gain"], counter, node))
            counter += 1

    consider(root)
    n_leaves = 1
    while heap and n_leaves < hp.max_leaves:
        _, _, node = heapq.heappop(heap)
        split = node.split
        rows_l, rows_r = _split_rows(X, node.rows, split)
        c = int(constraints[split["feature"]])
        if c == 0:
            lb_l, ub_l = node.lo, node.hi
            lb_r, ub_r = node.lo, node.hi
        else:
            mid = (split["wL"] + split["wR"]) / 2.0
            if c > 0:
                lb_l, ub_l = node.lo, mid
                lb_r, ub_r = mid, node.hi
            else:
                lb_l, ub_l = mid, node.hi
                lb_r, ub_r = node.lo, mid
        node.left_child = _Node(
            rows=rows_l, depth=node.depth + 1, lo=lb_l, hi=ub_l, value=split["wL"]
        )
        node.right_child = _Node(
            rows=rows_r, depth=node.depth + 1, lo=lb_r, hi=ub_r, value=split["wR"]
        )
        n_leaves += 1
        consider(node.left_child)
        consider(node.right_child)

    return _pack_tree(root)


def _pack_tree(root: _Node) -> Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    default_left: list[bool] = []
    value: list[float] = []

    def emit(node: _Node) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        default_left.append(True)
        value.append(0.0)
        if node.left_child is not None:
            feature[idx] = node.split["feature"]
            threshold[idx] = node.split["threshold"]
            default_left[idx] = node.split["default_left"]
            left[idx] = emit(node.left_child)
            right[idx] = emit(node.right_child)
        else:
            value[idx] = node.value
        return idx

    emit(root)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        default_left=np.asarray(default_left, dtype=bool),
        value=np.asarray(value, dtype=np.float64),
    )


def fit_boosted_trees(
    X: np.ndarray,
    y: np.ndarray,
    hp: HyperParams,
    constraints: Sequence[int],
    seed: int,
    schema_hash: str = "",
) -> TreeEnsembleModel:
    """Fit the ensemble on a feature matrix with NaN missing values."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ConfigError("X must be (n, f) with matching y of length n")
    if len(constraints) != X.shape[1]:
        raise ConfigError(
            f"{len(constraints)} constraints for {X.shape[1]} features"
        )
    pos = float(y.sum())
    if pos == 0 or pos == y.size:
        raise ConfigError("training set contains a single class")

    rng = np.random.Generator(np.random.PCG64(seed))
    n, n_feat = X.shape
    p0 = min(max(pos / y.size, P_EPS), 1.0 - P_EPS)
    base_score = float(np.log(p0 / (1.0 - p0)))
    raw = np.full(n, base_score, dtype=np.float64)
    trees: list[Tree] = []

    for _ in range(hp.n_trees):
        p = np.clip(sigmoid(raw), P_EPS, 1.0 - P_EPS)
        g = p - y
        h = p * (1.0 - p)
        if hp.row_subsample < 1.0:
            k = max(1, int(round(n * hp.row_subsample)))
            rows = np.sort(rng.permutation(n)[:k])
        else:
            rows = np.arange(n)
        if hp.feature_fraction < 1.0:
            kf = max(1, int(round(n_feat * hp.feature_fraction)))
            feats = np.sort(rng.permutation(n_feat)[:kf])
        else:
            feats = np.arange(n_feat)
        tree = _grow_tree(X, g, h, rows, feats, constraints, hp)
        trees.append(tree)
        raw += hp.learning_rate * tree.predict(X)

    return TreeEnsembleModel(
        trees=trees,
        learning_rate=hp.learning_rate,
        base_score=base_score,
        schema_hash=schema_hash,
        constraints=tuple(int(c) for c in constraints),
    )
