"""Gradient-boosted binary decision trees with monotone constraints.

Second-order boosting on the logistic loss. Trees are grown leaf-wise
(best split first) with exact split search over distinct feature values,
optionally thinned to ``max_bins`` candidate cuts.

Split search is presorted, as in SLIQ and XGBoost's exact mode: each column
is argsorted once per fit and cut down to a tree's sampled rows and features.
A node holds, for each of its live features, the row ids in sorted order and
the values read through them; a split compresses both arrays with one mask
into each child, so no node sorts or gathers values. A node takes prefix
sums of the gradients read through its order and scores a flat list of only
the real cuts (between distinct present values) in (feature, cut) order.
Every cut is scored with the missing rows sent left; a cut of a feature that
has missing rows at the node is scored again with them sent right (without
them the two directions score alike, and the tie-break takes the left).

A feature with no cut at a node - all its present values equal, or none
present - has none in any subset of the node's rows, so the node drops it
and its subtree never reads it again. Dropping keeps the features' order,
so the (feature, direction, cut) tie-break does not change. The missing-value
sums are the one place that stays at the tree's full feature width: they
are matrix-vector products with ``isnan(X[:, feats])``, and BLAS may round a
column's sum differently in a matrix with fewer columns.

After each round the sampled rows take their leaf values from the grown
partition, which routes by the same rule as prediction, and only the rows
left out by ``row_subsample`` walk the tree; both add ``learning_rate *
value`` to the raw score. A fit therefore makes the trees, to the bit, of
the padded-grid search kept in ``tests/oracles.py``.

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

Prediction walks all trees of an ensemble at once, one depth level per
step, over a chunk of rows (``_forest_leaves``); ``Tree.predict`` is the same
kernel over one tree. Leaf values are summed per tree in tree order, so a
raw score has the bytes of a tree-by-tree loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .settings import Settings, integer, is_number, number, setting

#: probabilities are clipped into the open interval (0, 1)
P_EPS = 1e-15

#: floor applied to Newton denominators so degenerate nodes stay finite
_DEN_FLOOR = 1e-6

#: a split must improve the objective by more than this to be taken
_GAIN_EPS = 1e-12

# (tree, row) cells the forest kernel moves down one level at once; each of
# its five scratch arrays then holds 256 kB or less. One 100-tree member over
# the 21,490 x 39 pair matrix of the cluster-giant bench corpus took, as the
# median of 7 runs on 2 vCPUs, 0.20 s at 2^13 cells, 0.17 s at 2^14, 0.16 s
# at 2^15, 0.165 s at 2^16 and 0.18 s at 2^17 (the per-tree loop: 0.25-0.35 s).
FOREST_STEP_CELLS = 1 << 15

# Rows of the input copied at once into the kernel's two-column layout
# (320 kB at 39 features); 256 to 2,048 rows timed 0.16-0.17 s above.
FOREST_COPY_ROWS = 512


#: a row or feature fraction
_FRACTION = (lambda v: is_number(v) and 0 < v <= 1), "a number in (0, 1]"


@dataclass(frozen=True)
class HyperParams(Settings):
    """Training knobs. All eleven non-binning knobs are searchable."""

    NOUN = "hyperparameter"
    DOC = "hyperparams"

    n_trees: int = setting(100, integer(1))
    max_leaves: int = setting(32, integer(2))  # one leaf is a constant
    max_depth: int = setting(8, integer(1))
    learning_rate: float = setting(0.1, number(0))
    min_samples_leaf: int = setting(5, integer(0))
    feature_fraction: float = setting(0.9, _FRACTION)
    row_subsample: float = setting(0.9, _FRACTION)
    l2_regularization: float = setting(1.0, number(0))
    l1_regularization: float = setting(0.0, number(0))
    min_split_gain: float = setting(0.0, number(0))
    min_child_weight: float = setting(1e-3, number(0))
    max_bins: int = setting(255, integer(2))  # 0 and 1 would thin to one cut, as 2 does


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


def probability(raw: np.ndarray) -> np.ndarray:
    """``sigmoid(raw)`` clipped into ``[P_EPS, 1 - P_EPS]``."""
    return np.clip(sigmoid(raw), P_EPS, 1.0 - P_EPS)


class EnsembleMember:
    """Base of a pairwise member: its probability is ``probability`` of the
    ``raw_score`` the subclass defines."""

    def predict_proba(self, v: np.ndarray, missing: Sequence[int] = ()) -> float | np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        single = v.ndim == 1
        p = probability(self.raw_score(v, missing))
        return float(p[0]) if single else p


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
        """The leaf value each row of ``X`` reaches: the forest kernel over
        this one tree."""
        out = np.empty(X.shape[0], dtype=np.float64)
        for start, leaves in _forest_leaves([self], X):
            out[start : start + leaves.shape[1]] = leaves[0]
        return out

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


@dataclass
class TreeEnsembleModel(EnsembleMember):
    """Boosted trees plus the metadata needed to apply them safely."""

    trees: list[Tree]
    learning_rate: float
    base_score: float
    constraints: tuple[int, ...]

    def raw_score(self, X: np.ndarray, missing: Sequence[int] = ()) -> np.ndarray:
        """Raw scores of the rows of ``X``, with the columns ``missing``
        read as NaN (``_forest_leaves``)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        raw = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for start, leaves in _forest_leaves(self.trees, X, missing):
            part = raw[start : start + leaves.shape[1]]
            # one tree at a time, in order: the bytes of a per-tree loop
            for scaled in self.learning_rate * leaves:
                part += scaled
        return raw


# ---------------------------------------------------------------------------
# prediction kernel
# ---------------------------------------------------------------------------


def _pack_forest(trees: Sequence[Tree]):
    """One node table for all ``trees``: ``(col, thr, child, value, roots,
    depth)``.

    Node ``i`` of the table owns slots ``2i`` (go left) and ``2i + 1`` (go
    right); the kernel's state is a slot, ``child[2i + go_right]`` is the
    slot of the next node, and ``col``, ``thr`` and ``value`` are repeated
    so that a node's even slot indexes them. ``col`` is the column of the
    two-column copy the node reads: ``2f`` (NaN is -inf) when missing
    values go left, ``2f + 1`` (NaN is +inf) when they go right. A leaf
    points to itself with threshold +inf, so rows that reach it stay.
    ``depth`` is the deepest leaf's level over the whole forest.
    """
    sizes = [len(t.feature) for t in trees]
    first = np.cumsum([0] + sizes[:-1], dtype=np.intp)  # each tree's root
    shift = np.repeat(first, sizes)
    feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
    leaf = feature < 0
    node = np.arange(len(feature), dtype=np.intp)
    left = np.where(leaf, node, np.concatenate([t.left for t in trees]) + shift)
    right = np.where(leaf, node, np.concatenate([t.right for t in trees]) + shift)
    go_right_on_nan = ~np.concatenate([t.default_left for t in trees])
    col = np.where(leaf, 0, 2 * feature + go_right_on_nan)
    thr = np.where(leaf, np.inf, np.concatenate([t.threshold for t in trees]))
    value = np.concatenate([t.value for t in trees])
    child = np.empty(2 * len(node), dtype=np.intp)
    child[0::2] = 2 * left
    child[1::2] = 2 * right

    depth = 0
    level = first[~leaf[first]]
    while level.size:
        depth += 1
        level = np.concatenate([left[level], right[level]])
        level = level[~leaf[level]]
    return (
        np.repeat(col, 2), np.repeat(thr, 2), child, np.repeat(value, 2),
        2 * first, depth,
    )


def _forest_leaves(trees: Sequence[Tree], X: np.ndarray, missing: Sequence[int] = ()):
    """Yield ``(start, leaves)`` over row chunks of ``X``: ``leaves[t, r]``
    is the value of the leaf that row ``start + r`` reaches in ``trees[t]``
    when the columns ``missing`` of ``X`` are read as NaN.

    Every tree of a chunk moves one level per step, so a level is seven
    array operations over ``FOREST_STEP_CELLS`` (tree, row) cells. NaN
    routing is folded into the data: each chunk of ``FOREST_COPY_ROWS`` rows
    is copied with two columns per feature, NaN as -inf in the first and
    +inf in the second, and a node reads the one its default direction
    needs. Each level is then one test, ``go_right = v > thr``, which routes
    a row as ``v <= thr or (v is NaN and default left)`` does because every
    threshold is finite (the fit writes only finite ones and
    ``load_ensemble`` refuses others). A column in ``missing`` is copied as
    if all NaN, so the trees score a masked matrix without one being made.
    """
    n, n_feat = X.shape
    if not trees:
        return
    col, thr, child, value, roots, depth = _pack_forest(trees)
    missing = list(missing)
    step = min(FOREST_COPY_ROWS, max(1, FOREST_STEP_CELLS // len(trees)))
    copy_rows = FOREST_COPY_ROWS // step * step
    for lo in range(0, n, copy_rows):
        part = X[lo : lo + copy_rows]
        nan = np.isnan(part)
        nan[:, missing] = True
        two = np.empty((len(part), n_feat, 2), dtype=np.float64)
        two[:, :, 0] = np.where(nan, -np.inf, part)
        two[:, :, 1] = np.where(nan, np.inf, part)
        flat = two.reshape(-1)
        for a in range(0, len(part), step):
            m = min(step, len(part) - a)
            row_at = np.arange(a, a + m, dtype=np.intp) * (2 * n_feat)
            slot = np.repeat(roots[:, None], m, axis=1)
            at = np.empty_like(slot)
            v = np.empty(slot.shape, dtype=np.float64)
            t = np.empty(slot.shape, dtype=np.float64)
            go_right = np.empty(slot.shape, dtype=bool)
            # every index is in range by construction; mode="raise" would
            # make numpy buffer each output
            for _ in range(depth):
                np.take(col, slot, out=at, mode="clip")
                at += row_at
                np.take(flat, at, out=v, mode="clip")
                np.take(thr, slot, out=t, mode="clip")
                np.greater(v, t, out=go_right)
                np.add(slot, go_right, out=at)  # ``at`` now holds child slots
                np.take(child, at, out=slot, mode="clip")
            yield lo + a, value[slot]


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


@dataclass(eq=False)  # nodes compare by identity
class _Node:
    # ``rows`` are kept by leaves for the in-sample update of the raw scores;
    # the three per-feature arrays only while the node may still be split
    rows: np.ndarray | None  # ascending row ids
    slots: np.ndarray | None  # positions in the tree's feature list that may still cut
    order: np.ndarray | None  # (slots, rows): each live feature's row ids, sorted
    vals: np.ndarray | None  # (slots, rows): the values ``X[order, feature]``
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


def _clip(w: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.clip(w, lo, hi)`` to the bit, without its wrapper's overhead. The
    bound goes first: with it second, ``-0.0`` clipped at a bound of ``0.0``
    (or the reverse) would come back with the bound's sign."""
    return np.minimum(hi, np.maximum(lo, w))


def _best_split(miss_t, g, h, node: _Node, feats, cvec, hp: HyperParams) -> dict | None:
    """Evaluate every candidate (feature, cut, missing-direction) at once.

    ``node.order`` and ``node.vals`` hold each live feature's row ids and
    values, already sorted (NaNs last), so prefix sums over the gradients
    read through ``order`` give left-side statistics for every cut of every
    feature in a single pass. Only real cuts - between distinct present
    values, after ``max_bins`` thinning - are scored: they form one flat
    candidate list in (feature, cut) order with the missing rows sent left,
    followed by the cuts of features with missing rows sending them right.
    Features without a cut are dropped from the node here, so neither its
    prefix sums nor its children carry them.

    ``miss_t`` is ``np.isnan(X[:, feats])``, taken once per tree; the
    missing-value sums are taken over all of its columns, whatever is live.
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
    v = node.value  # _value_loss in Python floats, operation for operation
    parent_loss = G_all * v + 0.5 * max(H_all + l2, _DEN_FLOOR) * v * v + l1 * abs(v)

    # cut k splits sorted rows [0..k] / [k+1..]; valid only between distinct
    # present values, which in ascending order with NaNs last is exactly
    # where a value is below the next one
    vals = node.vals
    can_cut = vals[:, :-1] < vals[:, 1:]
    # no finite threshold parts -inf from -max float, so that one cut is
    # no candidate; -inf values come first in a sorted column
    low = np.flatnonzero(vals[:, 0] == -np.inf)
    if low.size:
        k = np.count_nonzero(vals[low] == -np.inf, axis=1)
        at = k < m
        low, k = low[at], k[at]
        stuck = vals[low, k] == -np.finfo(np.float64).max
        can_cut[low[stuck], k[stuck] - 1] = False
    totals = can_cut.sum(axis=1)
    live = totals > 0
    if not live.any():
        return None
    if not live.all():
        # a subset of these rows has no cut on these features either
        node.slots, node.order, node.vals = node.slots[live], node.order[live], vals[live]
        can_cut, totals, vals = can_cut[live], totals[live], node.vals
    slots, order = node.slots, node.order
    # thin to ~max_bins evenly spaced cuts per feature (rank-based, so
    # features with few distinct values keep all their cuts)
    max_cuts = max(1, hp.max_bins - 1)
    crowded = np.nonzero(totals > max_cuts)[0]
    if crowded.size:
        ranks = np.cumsum(can_cut[crowded], axis=1)
        total = totals[crowded, None]
        keep = (ranks * max_cuts) // total != ((ranks - 1) * max_cuts) // total
        can_cut[crowded] &= keep
    fi, cut = np.nonzero(can_cut)  # candidates in (feature, cut) order

    # per-column missing sums, over the tree's full feature list and then
    # indexed: BLAS may round a column's sum differently in a matrix of fewer
    # columns. A column without missing rows sums to exactly zero.
    miss_mask = miss_t[rows]
    n_miss = miss_mask.sum(axis=0)[slots]
    G_m = (g_node @ miss_mask)[slots]
    H_m = (h_node @ miss_mask)[slots]

    # candidates: every cut with the missing rows sent left (direction 0),
    # then the cuts of features with missing rows here, sending them right
    # (direction 1). Without missing rows the two directions score alike,
    # and the tie-break would take direction 0.
    K = fi.size
    both = np.nonzero(n_miss[fi] > 0)[0]
    if both.size:
        fi, cut = np.concatenate([fi, fi[both]]), np.concatenate([cut, cut[both]])
    # axis 0: the left child, then the right one
    G = np.empty((2, fi.size))
    H = np.empty((2, fi.size))
    N = np.empty((2, fi.size), dtype=np.intp)
    G[0] = np.cumsum(g[order], axis=1)[fi, cut]  # prefix sums at each cut
    H[0] = np.cumsum(h[order], axis=1)[fi, cut]
    N[0] = cut + 1
    G[0, :K] += G_m[fi[:K]]
    H[0, :K] += H_m[fi[:K]]
    N[0, :K] += n_miss[fi[:K]]
    np.subtract(G_all, G[0], out=G[1])
    np.subtract(H_all, H[0], out=H[1])
    np.subtract(m, N[0], out=N[1])

    w = _clip(_optimal_value(G, H, l2, l1), node.lo, node.hi)
    valid = ((N >= hp.min_samples_leaf) & (H >= hp.min_child_weight)).all(axis=0)
    c = cvec[feats[slots[fi]]]
    constrained = c != 0.0
    if constrained.any():
        valid &= (c * (w[1] - w[0]) >= 0.0) | ~constrained
    if not valid.any():
        return None

    loss = _value_loss(G, H, w, l2, l1)
    gain = np.where(valid, parent_loss - (loss[0] + loss[1]), -np.inf)
    best_gain = float(gain.max())
    if best_gain <= max(hp.min_split_gain, 0.0) + _GAIN_EPS:
        return None
    # first best in (feature, direction, cut) order for deterministic
    # tie-breaks; hits are listed direction-major, cuts ascending
    hits = np.nonzero(gain == best_gain)[0]
    k = int(hits[np.argmin(2 * fi[hits] + (hits >= K))])
    lo_v = float(vals[fi[k], cut[k]])
    hi_v = float(vals[fi[k], cut[k] + 1])
    thr = (lo_v + hi_v) / 2.0
    # adjacent floats rounded up, or -inf and +inf averaged to NaN: cut at
    # the lower value, so rows route as the cut's statistics assumed
    if not thr < hi_v:
        thr = lo_v
    # a cut above -inf (or a midpoint that overflowed to it): the largest
    # float below the upper value, so every threshold is finite
    if thr == -np.inf:
        thr = float(np.nextafter(hi_v, -np.inf))
    return {
        "feature": int(feats[slots[fi[k]]]),
        "threshold": thr,
        "default_left": k < K,
        "gain": best_gain,
        "wL": float(w[0, k]),
        "wR": float(w[1, k]),
    }


def _compress(keep: np.ndarray, order: np.ndarray, vals: np.ndarray):
    """``order`` and ``vals`` cut down to the cells where ``keep`` is set,
    the same number in each feature's row, so each row stays sorted. (A
    flat take: numpy's 2-D boolean indexing took 4-5x longer here.)"""
    at = np.flatnonzero(keep)
    return order.take(at).reshape(len(order), -1), vals.take(at).reshape(len(order), -1)


def _split_rows(X, node: _Node, split) -> list[tuple]:
    """Each child's ``(rows, slots, order, vals)``: the parent's arrays,
    compressed by one mask."""
    rows = node.rows
    col = X[rows, split["feature"]]
    go_left = col <= split["threshold"]
    if split["default_left"]:
        go_left |= np.isnan(col)
    left = np.zeros(X.shape[0], dtype=bool)
    left[rows[go_left]] = True
    mask = left[node.order]
    return [
        (rows[go_left], node.slots, *_compress(mask, node.order, node.vals)),
        (rows[~go_left], node.slots, *_compress(~mask, node.order, node.vals)),
    ]


def _grow_tree(X, miss_t, g, h, rows, order, vals, feats, cvec, hp: HyperParams):
    """Grow one tree leaf-wise over ``rows``, with ``order`` and ``vals``
    presorted for ``feats``; returns the tree and its leaves."""
    G, H = float(g[rows].sum()), float(h[rows].sum())
    value = _node_value(G, H, -np.inf, np.inf, hp)
    slots = np.arange(len(feats))
    root = _Node(rows, slots, order, vals, depth=0, lo=-np.inf, hi=np.inf, value=value)
    counter = 0
    heap: list[tuple[float, int, _Node]] = []
    leaves = [root]

    def consider(node: _Node) -> None:
        nonlocal counter
        if node.depth < hp.max_depth and node.rows.size >= 2 * hp.min_samples_leaf:
            node.split = _best_split(miss_t, g, h, node, feats, cvec, hp)
        if node.split is None:  # a leaf for good: it needs only its rows
            node.slots = node.order = node.vals = None
            return
        heapq.heappush(heap, (-node.split["gain"], counter, node))
        counter += 1

    consider(root)
    while heap and len(leaves) < hp.max_leaves:
        _, _, node = heapq.heappop(heap)
        split = node.split
        parts = _split_rows(X, node, split)
        node.rows = node.slots = node.order = node.vals = None
        leaves.remove(node)
        # a constrained split caps each child's values at the children's midpoint
        c, mid = cvec[split["feature"]], (split["wL"] + split["wR"]) / 2.0
        lb_l, ub_l, lb_r, ub_r = node.lo, node.hi, node.lo, node.hi
        if c > 0:
            ub_l = lb_r = mid
        elif c < 0:
            lb_l = ub_r = mid
        depth = node.depth + 1
        node.left_child = _Node(*parts[0], depth, lb_l, ub_l, split["wL"])
        node.right_child = _Node(*parts[1], depth, lb_r, ub_r, split["wR"])
        leaves += [node.left_child, node.right_child]
        consider(node.left_child)
        consider(node.right_child)

    return _pack_tree(root), leaves


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
    presorted = np.argsort(X.T, axis=1, kind="stable")  # NaNs sort last
    missing = np.isnan(X)
    cvec = np.asarray(constraints, dtype=np.float64)
    p0 = min(max(pos / y.size, P_EPS), 1.0 - P_EPS)
    base_score = float(np.log(p0 / (1.0 - p0)))
    raw = np.full(n, base_score, dtype=np.float64)
    trees: list[Tree] = []
    step = np.empty(n, dtype=np.float64)

    for _ in range(hp.n_trees):
        p = probability(raw)
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
        order = presorted[feats]
        if rows.size < n:
            member = np.zeros(n, dtype=bool)
            member[rows] = True
            order = order.take(np.flatnonzero(member[order])).reshape(len(feats), -1)
        vals = X[order, feats[:, None]]  # once per tree; nodes compress it
        tree, leaves = _grow_tree(
            X, missing[:, feats], g, h, rows, order, vals, feats, cvec, hp
        )
        trees.append(tree)
        # sampled rows take their leaf from the partition; the rest walk the tree
        for leaf in leaves:
            step[leaf.rows] = leaf.value
        if rows.size < n:
            rest = np.nonzero(~member)[0]
            step[rest] = tree.predict(X[rest])
        raw += hp.learning_rate * step

    return TreeEnsembleModel(
        trees=trees,
        learning_rate=hp.learning_rate,
        base_score=base_score,
        constraints=tuple(int(c) for c in constraints),
    )
