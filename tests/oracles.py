"""Independent brute-force reference implementations used by the tests.

Everything here is written straight from the definitions, favoring clarity
over speed, and deliberately shares no code with the library paths it
checks. The exceptions are the GBT split-search reference, the per-tree
prediction loop, the string-set signature profile and the per-pair
featurizer, which are the library's earlier implementations and reuse its
tree container, loss helpers, name folding and string kernels.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from andlib import blocking
from andlib.corpus import Dataset, NameCountsTable, Signature
from andlib.errors import IntegrityError
from andlib.features import (
    _COUNT_FEATURES,
    _NAME_FEATURES,
    MISSING,
    _name_features,
    mask_nameless,
    set_jaccard,
    word_grams,
)
from andlib.gbt import (
    _GAIN_EPS,
    P_EPS,
    HyperParams,
    Tree,
    TreeEnsembleModel,
    _node_value,
    _optimal_value,
    _pack_tree,
    _value_loss,
    sigmoid,
)


# ---------------------------------------------------------------------------
# clustering metrics
# ---------------------------------------------------------------------------


def naive_b3(pred: dict[str, str], gold: dict[str, str]) -> tuple[float, float, float]:
    """Per-record precision/recall from explicit cluster set intersections."""
    pred_clusters: dict[str, set[str]] = {}
    gold_clusters: dict[str, set[str]] = {}
    for sig, cid in pred.items():
        pred_clusters.setdefault(cid, set()).add(sig)
    for sig, cid in gold.items():
        gold_clusters.setdefault(cid, set()).add(sig)
    ps, rs, fs = [], [], []
    for sig in pred:
        mine_pred = pred_clusters[pred[sig]]
        mine_gold = gold_clusters[gold[sig]]
        overlap = len(mine_pred & mine_gold)
        p = overlap / len(mine_pred)
        r = overlap / len(mine_gold)
        ps.append(p)
        rs.append(r)
        fs.append(2 * p * r / (p + r))
    return float(np.mean(ps)), float(np.mean(rs)), float(np.mean(fs))


def naive_pairwise_macro_f1(
    pred: dict[str, str], gold: dict[str, str], blocks: list[list[str]]
) -> float:
    f1s = []
    for members in blocks:
        if len(members) < 2:
            continue
        tp = fp = fn = 0
        for a, b in itertools.combinations(members, 2):
            same_pred = pred[a] == pred[b]
            same_gold = gold[a] == gold[b]
            if same_pred and same_gold:
                tp += 1
            elif same_pred:
                fp += 1
            elif same_gold:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
    return float(np.mean(f1s))


def naive_auroc(scores, labels) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def naive_average_precision(scores, labels) -> float:
    """Precision-at-rank walk with stable descending order, O(n^2)."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    total = 0.0
    n_pos = sum(labels)
    for rank_idx, i in enumerate(order):
        if labels[i] != 1:
            continue
        top = order[: rank_idx + 1]
        precision_here = sum(1 for j in top if labels[j] == 1) / (rank_idx + 1)
        total += precision_here
    return total / n_pos


# ---------------------------------------------------------------------------
# clustering algorithms
# ---------------------------------------------------------------------------


def _cross_vetoed(veto: np.ndarray, a: list[int], b: list[int]) -> bool:
    return any(veto[i, j] for i in a for j in b)


def naive_hac_merges(
    d: np.ndarray, veto: np.ndarray, linkage: str
) -> list[tuple[int, int, float]]:
    """Run greedy merging to exhaustion, recomputing every cluster-pair
    dissimilarity from the original matrix at every step. Returns the merge
    sequence as (keep position, absorbed position, height); eps only decides
    where the sequence is cut, never which merge happens, so one full run
    serves any eps."""
    n = d.shape[0]
    clusters: list[list[int]] = [[i] for i in range(n)]
    merges: list[tuple[int, int, float]] = []
    while len(clusters) > 1:
        best = None
        best_val = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                if _cross_vetoed(veto, clusters[a], clusters[b]):
                    continue
                sub = d[np.ix_(clusters[a], clusters[b])]
                if linkage == "single":
                    val = float(sub.min())
                elif linkage == "complete":
                    val = float(sub.max())
                elif linkage == "average":
                    val = float(sub.mean())
                else:
                    raise ValueError(linkage)
                if best_val is None or val < best_val:
                    best, best_val = (a, b), val
        if best is None:
            break
        a, b = best
        clusters[a].extend(clusters[b])
        del clusters[b]
        merges.append((a, b, best_val))
    return merges


def replay_hac(
    n: int, merges: list[tuple[int, int, float]], eps: float
) -> set[frozenset[int]]:
    """Partition after the maximal prefix of merges with height <= eps
    (first exceedance stops merging, matching the clusterer's stop rule)."""
    clusters: list[list[int]] = [[i] for i in range(n)]
    for a, b, height in merges:
        if height > eps:
            break
        clusters[a].extend(clusters[b])
        del clusters[b]
    return {frozenset(c) for c in clusters}


def naive_hac(
    d: np.ndarray,
    veto: np.ndarray,
    linkage: str,
    eps: float,
) -> set[frozenset[int]]:
    """Single-eps convenience wrapper over naive_hac_merges."""
    return replay_hac(d.shape[0], naive_hac_merges(d, veto, linkage), eps)


def naive_ward_merges(
    d: np.ndarray, veto: np.ndarray
) -> list[tuple[int, int, float]]:
    """Ward via the variance-increase recurrence, maintained with plain
    scalar updates and a full scan at every step, run to exhaustion.
    Returns (keep position, absorbed position, height) over the live
    cluster list, replayable with replay_hac."""
    n = d.shape[0]
    w = {(i, j): float(d[i, j]) for i in range(n) for j in range(n) if i < j}
    vet = {
        (i, j): bool(veto[i, j]) for i in range(n) for j in range(n) if i < j
    }
    sizes: dict[int, float] = {i: 1.0 for i in range(n)}
    active = list(range(n))
    merges: list[tuple[int, int, float]] = []

    def get(i, j):
        return w[(i, j)] if i < j else w[(j, i)]

    def vetoed(i, j):
        return vet[(i, j)] if i < j else vet[(j, i)]

    while len(active) > 1:
        best = None
        best_val = None
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                i, j = active[ai], active[bi]
                if vetoed(i, j):
                    continue
                val = get(i, j)
                if best_val is None or val < best_val:
                    best, best_val = (ai, bi), val
        if best is None:
            break
        ai, bi = best
        i, j = active[ai], active[bi]
        d_ij = get(i, j)
        si, sj = sizes[i], sizes[j]
        for k in active:
            if k in (i, j):
                continue
            sk = sizes[k]
            num = (si + sk) * get(i, k) ** 2 + (sj + sk) * get(j, k) ** 2 - sk * d_ij**2
            val = np.sqrt(max(num / (si + sj + sk), 0.0))
            key = (i, k) if i < k else (k, i)
            w[key] = float(val)
            vkey_j = (j, k) if j < k else (k, j)
            if vet[vkey_j]:
                vet[key] = True
        sizes[i] += sizes[j]
        active.remove(j)
        merges.append((ai, bi, best_val))
    return merges


def naive_ward(
    d: np.ndarray, veto: np.ndarray, eps: float
) -> set[frozenset[int]]:
    """Single-eps convenience wrapper over naive_ward_merges."""
    return replay_hac(d.shape[0], naive_ward_merges(d, veto), eps)


def naive_dbscan(d: np.ndarray, eps: float, min_samples: int) -> set[frozenset[int]]:
    """Textbook DBSCAN over a precomputed matrix; noise becomes singletons."""
    n = d.shape[0]
    neighbors = [
        [j for j in range(n) if d[i, j] <= eps] for i in range(n)
    ]
    core = [len(neighbors[i]) >= min_samples for i in range(n)]
    assigned = [None] * n
    clusters: list[set[int]] = []
    for seed in range(n):
        if assigned[seed] is not None or not core[seed]:
            continue
        group = set()
        cid = len(clusters)
        queue = deque([seed])
        assigned[seed] = cid
        group.add(seed)
        while queue:
            p = queue.popleft()
            if not core[p]:
                continue
            for q in neighbors[p]:
                if assigned[q] is None:
                    assigned[q] = cid
                    group.add(q)
                    queue.append(q)
        clusters.append(group)
    out = {frozenset(c) for c in clusters}
    for i in range(n):
        if assigned[i] is None:
            out.add(frozenset([i]))
    return out


# ---------------------------------------------------------------------------
# tree prediction
# ---------------------------------------------------------------------------


def reference_tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The per-tree prediction loop ``Tree.predict`` ran before the forest
    kernel: each level gathers the active rows and routes them."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = np.nonzero(feat >= 0)[0]
        if active.size == 0:
            break
        cur = node[active]
        v = X[active, feat[active]]
        go_left = (v <= tree.threshold[cur]) | (
            np.isnan(v) & tree.default_left[cur]
        )
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def reference_raw_score(model: TreeEnsembleModel, X: np.ndarray) -> np.ndarray:
    """``TreeEnsembleModel.raw_score`` as a loop over the trees."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    raw = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        raw += model.learning_rate * reference_tree_predict(tree, X)
    return raw


def reference_ensemble_proba(ens, X: np.ndarray) -> np.ndarray:
    """``EnsembleClassifier.predict_from_features`` with every nameless
    member, tree or linear, scoring the masked copy ``mask_nameless(X)``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    p_full = ens.full_model.predict_proba(X)
    if ens.nameless_model is None:
        return p_full
    return (p_full + ens.nameless_model.predict_proba(mask_nameless(X, ens.schema))) / 2.0


def trace_tree(doc: dict, x: np.ndarray) -> float:
    """Walk one serialized tree node by node for a single vector."""
    idx = 0
    while doc["feature"][idx] >= 0:
        f = doc["feature"][idx]
        v = x[f]
        if np.isnan(v):
            go_left = doc["default_left"][idx]
        else:
            go_left = v <= doc["threshold"][idx]
        idx = doc["left"][idx] if go_left else doc["right"][idx]
    return doc["value"][idx]


def trace_ensemble_raw(model_doc: dict, x: np.ndarray) -> float:
    raw = model_doc["base_score"]
    for tree_doc in model_doc["trees"]:
        raw += model_doc["learning_rate"] * trace_tree(tree_doc, x)
    return raw


def tree_monotone_gap(doc: dict, constraints) -> float:
    """Structural audit: smallest slack of the ordering between left and
    right subtree leaf values over all constrained splits (negative =
    violation)."""

    def leaf_range(idx: int) -> tuple[float, float]:
        if doc["feature"][idx] < 0:
            v = doc["value"][idx]
            return v, v
        lo_l, hi_l = leaf_range(doc["left"][idx])
        lo_r, hi_r = leaf_range(doc["right"][idx])
        return min(lo_l, lo_r), max(hi_l, hi_r)

    gap = float("inf")
    for idx in range(len(doc["feature"])):
        f = doc["feature"][idx]
        if f < 0 or constraints[f] == 0:
            continue
        lo_l, hi_l = leaf_range(doc["left"][idx])
        lo_r, hi_r = leaf_range(doc["right"][idx])
        if constraints[f] > 0:
            gap = min(gap, lo_r - hi_l)
        else:
            gap = min(gap, lo_l - hi_r)
    return gap


# ---------------------------------------------------------------------------
# GBT split search
# ---------------------------------------------------------------------------
#
# The padded-grid exact split search that ``andlib.gbt`` used before it
# presorted each column once per fit: every node argsorts its whole
# (rows x features) matrix and scores a (2, max_cuts, F) grid. Kept verbatim
# (names prefixed ``_ref``) as the reference the presorted search must match
# byte for byte; it reuses the library's tree container, tree packer and
# loss helpers, which the two searches share by design.


@dataclass
class _RefNode:
    rows: np.ndarray
    depth: int
    lo: float
    hi: float
    value: float
    split: dict | None = None
    left_child: "_RefNode | None" = None
    right_child: "_RefNode | None" = None


def _ref_best_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    node: _RefNode,
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
    # no finite threshold lies between -inf and -max float
    can_cut &= ~((sorted_cols[:-1] == -np.inf) & (sorted_cols[1:] == -np.finfo(np.float64).max))
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
    # adjacent floats rounded up, or -inf and +inf averaged to NaN: cut at
    # the lower value, so rows route as the cut's statistics assumed
    if not thr < hi_v:
        thr = lo_v
    # every threshold is finite: above -inf, cut just below the upper value
    if thr == -np.inf:
        thr = float(np.nextafter(hi_v, -np.inf))
    return {
        "feature": int(feats[fi]),
        "threshold": thr,
        "default_left": d == 0,
        "gain": best_gain,
        "wL": float(wL[d, cut_i, fi]),
        "wR": float(wR[d, cut_i, fi]),
    }


def _ref_split_rows(X, rows, split) -> tuple[np.ndarray, np.ndarray]:
    col = X[rows, split["feature"]]
    go_left = col <= split["threshold"]
    if split["default_left"]:
        go_left |= np.isnan(col)
    return rows[go_left], rows[~go_left]


def _ref_grow_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    feats: np.ndarray,
    constraints: Sequence[int],
    hp: HyperParams,
) -> Tree:
    root = _RefNode(
        rows=rows,
        depth=0,
        lo=-np.inf,
        hi=np.inf,
        value=_node_value(float(g[rows].sum()), float(h[rows].sum()), -np.inf, np.inf, hp),
    )
    counter = 0
    heap: list[tuple[float, int, _RefNode]] = []

    def consider(node: _RefNode) -> None:
        nonlocal counter
        if node.depth >= hp.max_depth or node.rows.size < 2 * hp.min_samples_leaf:
            return
        split = _ref_best_split(X, g, h, node, feats, constraints, hp)
        if split is not None:
            node.split = split
            heapq.heappush(heap, (-split["gain"], counter, node))
            counter += 1

    consider(root)
    n_leaves = 1
    while heap and n_leaves < hp.max_leaves:
        _, _, node = heapq.heappop(heap)
        split = node.split
        rows_l, rows_r = _ref_split_rows(X, node.rows, split)
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
        node.left_child = _RefNode(
            rows=rows_l, depth=node.depth + 1, lo=lb_l, hi=ub_l, value=split["wL"]
        )
        node.right_child = _RefNode(
            rows=rows_r, depth=node.depth + 1, lo=lb_r, hi=ub_r, value=split["wR"]
        )
        n_leaves += 1
        consider(node.left_child)
        consider(node.right_child)

    return _pack_tree(root)


def reference_fit_boosted_trees(
    X: np.ndarray,
    y: np.ndarray,
    hp: HyperParams,
    constraints: Sequence[int],
    seed: int,
) -> TreeEnsembleModel:
    """``fit_boosted_trees`` over the padded-grid split search."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pos = float(y.sum())
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
        tree = _ref_grow_tree(X, g, h, rows, feats, constraints, hp)
        trees.append(tree)
        raw += hp.learning_rate * reference_tree_predict(tree, X)

    return TreeEnsembleModel(
        trees=trees,
        learning_rate=hp.learning_rate,
        base_score=base_score,
        constraints=tuple(int(c) for c in constraints),
    )


# ---------------------------------------------------------------------------
# string kernels
# ---------------------------------------------------------------------------


def brute_force_lcs_length(a: str, b: str) -> int:
    """Enumerate all subsequences of the shorter string."""
    if len(a) > len(b):
        a, b = b, a
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(c in it for c in sub):
            best = max(best, len(sub))
    return best


def recursive_levenshtein(a: str, b: str) -> int:
    """Edit distance straight from the recursive definition."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = a[0] != b[0]
    return min(
        recursive_levenshtein(a[1:], b) + 1,
        recursive_levenshtein(a, b[1:]) + 1,
        recursive_levenshtein(a[1:], b[1:]) + cost,
    )


def textbook_jaro_winkler(a: str, b: str) -> float:
    """Direct transcription of the Jaro and Winkler formulas."""
    if not a and not b:
        return 0.0
    if a == b:
        return 1.0
    window = max(0, max(len(a), len(b)) // 2 - 1)
    taken = [False] * len(b)
    matched_a = []
    for i, ca in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not taken[j] and b[j] == ca:
                taken[j] = True
                matched_a.append((i, j))
                break
    m = len(matched_a)
    if m == 0:
        return 0.0
    a_seq = [a[i] for i, _ in matched_a]
    b_seq = [b[j] for _, j in sorted(matched_a, key=lambda t: t[1])]
    # half the out-of-order matches, floored (the original reference
    # implementation's integer halving)
    t = sum(1 for x, y in zip(a_seq, b_seq) if x != y) // 2
    jaro = (m / len(a) + m / len(b) + (m - t) / m) / 3
    ell = 0
    for ca, cb in zip(a, b):
        if ca != cb or ell == 4:
            break
        ell += 1
    return jaro + ell * 0.1 * (1 - jaro)


# ---------------------------------------------------------------------------
# pair features
# ---------------------------------------------------------------------------


def reference_char_grams(text: str, lo: int, hi: int) -> frozenset[str]:
    """features.char_grams as a loop over lengths and starts: the union of
    the contiguous n-grams of the lowercased text for n in [lo, hi]."""
    s = text.lower()
    grams: set[str] = set()
    for n in range(lo, hi + 1):
        grams.update(s[i : i + n] for i in range(len(s) - n + 1))
    return frozenset(grams)


def reference_profile(sig: Signature, dataset: Dataset) -> SimpleNamespace:
    """One signature's fields as plain strings and string sets: the
    library's earlier SignatureProfile, which reference_pair_features
    reads, with the reference n-gram and folding kernels."""
    prof = SimpleNamespace()
    paper = dataset.papers.get(sig.paper_id)
    if paper is None:
        raise IntegrityError(
            f"signature {sig.signature_id!r} references missing paper"
        )
    prof.paper_id = sig.paper_id
    prof.name = name = sig.name

    coauthors = [
        raw
        for i, raw in enumerate(paper.author_names, start=1)
        if i != sig.author_position
    ]
    keys: set[str] = set()
    names: set[str] = set()
    joined: list[str] = []
    for raw in coauthors:
        folded = blocking.fold_text(raw)
        if not folded:
            continue
        parts = folded.split()
        keys.add(f"{parts[0][0] if len(parts) > 1 else blocking.EMPTY_INITIAL} {parts[-1]}")
        names.add(folded)
        joined.append(folded)
    prof.coauthor_keys = frozenset(keys)
    prof.coauthor_names = frozenset(names)
    prof.coauthor_grams = reference_char_grams(" ".join(joined), 2, 4) if joined else frozenset()

    prof.affiliation_grams = (
        word_grams(blocking.fold_text(" ".join(sig.affiliations)), 1, 3)
        if sig.affiliations
        else None
    )

    if sig.email and "@" in sig.email:
        prefix, _, suffix = sig.email.lower().partition("@")
        prof.email_prefix, prof.email_suffix = prefix, suffix
    elif sig.email:
        prof.email_prefix, prof.email_suffix = sig.email.lower(), ""
    else:
        prof.email_prefix = prof.email_suffix = None

    prof.venue_grams = reference_char_grams(paper.venue, 2, 4) if paper.venue else None
    prof.journal_grams = reference_char_grams(paper.journal, 2, 4) if paper.journal else None
    title = paper.title or ""
    prof.title_word_g = word_grams(title, 1, 3) if title else None
    prof.title_char_g = reference_char_grams(title, 2, 4) if title else None
    prof.year = paper.year
    prof.position = sig.author_position
    prof.has_abstract = bool(paper.abstract)
    prof.language = paper.language.lower() if paper.language else None

    prof.ref_ids = paper.reference_ids
    if paper.reference_ids:
        authors: list[str] = []
        titles: list[str] = []
        venues: list[str] = []
        ref_keys: list[str] = []
        for rid in sorted(paper.reference_ids):
            ref = dataset.papers.get(rid)
            if ref is None:
                continue
            for raw in ref.author_names:
                folded = blocking.fold_text(raw)
                if not folded:
                    continue
                authors.append(folded)
                parts = folded.split()
                initial = parts[0][0] if len(parts) > 1 else blocking.EMPTY_INITIAL
                ref_keys.append(f"{initial} {parts[-1]}")
            if ref.title:
                titles.append(ref.title)
            if ref.venue:
                venues.append(ref.venue)
            if ref.journal:
                venues.append(ref.journal)
        prof.ref_author_grams = reference_char_grams(" ".join(authors), 2, 4)
        prof.ref_title_grams = reference_char_grams(" ".join(titles), 2, 4)
        prof.ref_venue_grams = reference_char_grams(" ".join(venues), 2, 4)
        prof.ref_key_grams = reference_char_grams(" ".join(ref_keys), 2, 4)
    else:
        prof.ref_author_grams = None
        prof.ref_title_grams = None
        prof.ref_venue_grams = None
        prof.ref_key_grams = None

    if paper.embedding is not None:
        vec = np.asarray(paper.embedding, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        prof.embedding = vec / norm if norm > 0 else None
    else:
        prof.embedding = None

    first, last = name.first, name.last
    prof.count_keys = {
        "first": first or None,
        "last": last,
        "first_last": f"{first} {last}" if first else None,
        "first_initial_last": f"{name.first_initial} {last}" if first else None,
    }
    return prof


def _equal01(a, b) -> float:
    if a is None or b is None:
        return MISSING
    return 1.0 if a == b else 0.0


def reference_pair_features(
    pa: SimpleNamespace,
    pb: SimpleNamespace,
    counts: NameCountsTable,
) -> dict[str, float]:
    """Every feature of one pair, computed pair by pair: the library's
    earlier per-pair kernel, which featurize_pairs must match byte for
    byte."""
    out = dict(
        zip(
            _NAME_FEATURES,
            _name_features(pa.name.first, pa.name.middle, pb.name.first, pb.name.middle),
        )
    )

    if pa.affiliation_grams is not None and pb.affiliation_grams is not None:
        out["affiliation_word_jaccard"] = set_jaccard(
            pa.affiliation_grams, pb.affiliation_grams
        )
    else:
        out["affiliation_word_jaccard"] = MISSING

    out["email_prefix_equal"] = _equal01(pa.email_prefix, pb.email_prefix)
    out["email_suffix_equal"] = _equal01(pa.email_suffix, pb.email_suffix)

    out["coauthor_key_jaccard"] = set_jaccard(pa.coauthor_keys, pb.coauthor_keys)
    out["coauthor_name_jaccard"] = set_jaccard(pa.coauthor_names, pb.coauthor_names)
    out["coauthor_char_jaccard"] = set_jaccard(pa.coauthor_grams, pb.coauthor_grams)

    out["venue_char_jaccard"] = (
        set_jaccard(pa.venue_grams, pb.venue_grams)
        if pa.venue_grams is not None and pb.venue_grams is not None
        else MISSING
    )
    out["journal_char_jaccard"] = (
        set_jaccard(pa.journal_grams, pb.journal_grams)
        if pa.journal_grams is not None and pb.journal_grams is not None
        else MISSING
    )

    if pa.year is not None and pb.year is not None:
        out["year_diff"] = float(abs(pa.year - pb.year))
    else:
        out["year_diff"] = MISSING

    out["title_word_jaccard"] = (
        set_jaccard(pa.title_word_g, pb.title_word_g)
        if pa.title_word_g is not None and pb.title_word_g is not None
        else MISSING
    )
    out["title_char_jaccard"] = (
        set_jaccard(pa.title_char_g, pb.title_char_g)
        if pa.title_char_g is not None and pb.title_char_g is not None
        else MISSING
    )

    have_refs = bool(pa.ref_ids) and bool(pb.ref_ids)
    for name, attr in (
        ("ref_author_char_jaccard", "ref_author_grams"),
        ("ref_title_char_jaccard", "ref_title_grams"),
        ("ref_venue_char_jaccard", "ref_venue_grams"),
        ("ref_key_char_jaccard", "ref_key_grams"),
    ):
        out[name] = (
            set_jaccard(getattr(pa, attr), getattr(pb, attr))
            if have_refs
            else MISSING
        )
    out["cite_each_other"] = float(
        pa.paper_id in pb.ref_ids or pb.paper_id in pa.ref_ids
    )
    if pa.ref_ids or pb.ref_ids:
        out["ref_cocitation_jaccard"] = set_jaccard(pa.ref_ids, pb.ref_ids)
    else:
        out["ref_cocitation_jaccard"] = MISSING

    out["position_diff"] = float(abs(pa.position - pb.position))
    out["abstract_count"] = float(pa.has_abstract + pb.has_abstract)

    out["english_count"] = float(
        (pa.language == "en") + (pb.language == "en")
    )
    out["same_language"] = _equal01(pa.language, pb.language)
    out["language_count"] = float(
        (pa.language is not None) + (pb.language is not None)
    )

    for feat, key, agg in _COUNT_FEATURES:
        table = getattr(counts, key)
        ca = table.get(pa.count_keys[key]) if pa.count_keys[key] else None
        cb = table.get(pb.count_keys[key]) if pb.count_keys[key] else None
        out[feat] = float(agg(ca, cb)) if ca is not None and cb is not None else MISSING

    if pa.embedding is not None and pb.embedding is not None:
        out["embedding_cosine"] = float(np.dot(pa.embedding, pb.embedding))
    else:
        out["embedding_cosine"] = MISSING

    return out
