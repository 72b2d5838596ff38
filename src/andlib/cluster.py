"""Per-block distance matrices and agglomerative/density clustering.

Distances are the complement of the ensemble's same-author probability.
Incompatible-first-name pairs (e.g. normalized "john" vs "james") are both
overridden to distance 1 and recorded as hard vetoes: under hierarchical
clustering a merge is skipped whenever any cross-pair between the two
clusters is vetoed, which guarantees two incompatible names never share a
predicted cluster regardless of linkage arithmetic.

Merging stops once the smallest linkage dissimilarity exceeds ``eps``. Ties
are broken toward the pair with the lowest cluster slot (then the lowest
partner slot), which makes runs reproducible bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import blocking, features
from .blocking import Block
from .corpus import Dataset, NameCountsTable, Partition
from .errors import ConfigError
from .model import EnsembleClassifier
from .settings import FLAG, UNIT, Settings, integer, one_of, setting

LINKAGES = ("average", "single", "complete", "ward")
METHODS = ("hac", "dbscan")

# Pairs featurized and scored per ensemble call (a band): the per-call cost
# of tree prediction is paid once per band instead of once per block, and
# the feature matrix of a band, not of a block, bounds scoring memory. At
# 4,096 rows of 39 features a band is 1.25 MB.
SCORE_BATCH_PAIRS = 4096


@dataclass(frozen=True)
class ClusterParams(Settings):
    NOUN = "cluster parameter"
    DOC = "cluster_params"

    linkage: str = setting("average", one_of(*LINKAGES))
    eps: float = setting(0.5, UNIT)
    method: str = setting("hac", one_of(*METHODS))
    dbscan_min_samples: int = setting(2, integer(1))
    # veto merges of records with incompatible full first names
    name_rules: bool = setting(True, FLAG)


#: the ClusterParams values a model file stores; name_rules is set per run
STORED_CLUSTER_PARAMS = ("linkage", "eps", "method", "dbscan_min_samples")


@dataclass
class DistanceMatrix:
    block: Block
    d: np.ndarray
    veto: np.ndarray


def names_compatible(first_a: str, first_b: str) -> bool:
    """Normalized full first names are compatible iff equal, one prefixes
    the other, or either is missing."""
    if not first_a or not first_b:
        return True
    return first_a.startswith(first_b) or first_b.startswith(first_a)


def distance_matrix(
    block: Block,
    p: np.ndarray,
    dataset: Dataset,
    name_rules: bool = True,
) -> DistanceMatrix:
    """One block's distances from the same-author probabilities ``p`` of its
    ``triu_indices(n, k=1)`` pairs, with the first-name vetoes applied
    when ``name_rules`` is on."""
    n = len(block.members)
    d = np.zeros((n, n), dtype=np.float64)
    veto = np.zeros((n, n), dtype=bool)
    if n > 1:
        ii, jj = np.triu_indices(n, k=1)
        d[ii, jj] = d[jj, ii] = 1.0 - p
        if name_rules:
            firsts = [dataset.signatures[m].name.first for m in block.members]
            # names_compatible once per pair of distinct first names, then
            # one gather; a name is compatible with itself, so the diagonal
            # stays unvetoed
            slot = {name: k for k, name in enumerate(dict.fromkeys(firsts))}
            compatible = np.array(
                [[names_compatible(x, y) for y in slot] for x in slot], dtype=bool
            )
            idx = np.array([slot[f] for f in firsts])
            veto = ~compatible[np.ix_(idx, idx)]
            d[veto] = 1.0
    return DistanceMatrix(block=block, d=d, veto=veto)


def _n_pairs(block: Block) -> int:
    n = len(block.members)
    return n * (n - 1) // 2


def _score_groups(blocks: Sequence[Block]) -> list[list[Block]]:
    """Consecutive runs of whole blocks, the units of work of
    ``cluster_corpus(jobs > 1)``, each closed once it holds at least
    ``SCORE_BATCH_PAIRS`` pairs (the last run may hold fewer)."""
    groups: list[list[Block]] = []
    group: list[Block] = []
    pairs = 0
    for block in blocks:
        group.append(block)
        pairs += _n_pairs(block)
        if pairs >= SCORE_BATCH_PAIRS:
            groups.append(group)
            group, pairs = [], 0
    if group:
        groups.append(group)
    return groups


def distance_matrices(
    blocks: Sequence[Block],
    classifier: EnsembleClassifier,
    dataset: Dataset,
    counts: NameCountsTable,
    name_rules: bool = True,
) -> list[DistanceMatrix]:
    """Pairwise not-same-author distances for each block, in order
    (_scored_blocks)."""
    return list(_scored_blocks(blocks, classifier, dataset, counts, name_rules))


def _triu_band(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``lo`` to ``hi - 1`` of ``triu_indices(n, k=1)``."""
    row = np.arange(n)
    start = row * (2 * n - row - 1) // 2  # the position of row i's first pair
    k = np.arange(lo, hi)
    a = np.searchsorted(start, k, side="right") - 1
    return a, k - start[a] + a + 1


def _scored_blocks(
    blocks: Sequence[Block],
    classifier: EnsembleClassifier,
    dataset: Dataset,
    counts: NameCountsTable,
    name_rules: bool,
) -> Iterator[DistanceMatrix]:
    """Each block's distance matrix, in order, once all its pairs are scored.

    Pairs are walked in block order, ``triu_indices`` order inside a block,
    and featurized into one ``(SCORE_BATCH_PAIRS, n_features)`` matrix that
    every band reuses. Each full band, and the last, shorter one, is one
    ensemble call, so a band spans many small blocks or holds one slice of
    a big one. A block's signatures are prepared once, and only one block's
    are alive at a time, against one PaperGrams table for the whole call, so
    each cited paper is n-grammed once.
    """
    columns = features.schema_columns(classifier.schema)
    grams = features.PaperGrams(dataset)
    X = np.empty((min(SCORE_BATCH_PAIRS, sum(map(_n_pairs, blocks))), len(columns)))
    band: list[tuple] = []  # (p, lo, row, k): p[lo:lo + k] is scored in X[row:row + k]
    waiting: list[tuple] = []  # (block, p) whose pairs are all in bands
    rows = 0
    for block in blocks:
        n = len(block.members)
        p = np.empty(n * (n - 1) // 2)
        if len(p):
            sigs = [dataset.signatures[m] for m in block.members]
            prepared = features.PreparedBlock(sigs, dataset, counts, grams)
            done = 0
            while done < len(p):
                k = min(len(p) - done, len(X) - rows)
                prepared.fill(*_triu_band(n, done, done + k), columns, X[rows : rows + k])
                band.append((p, done, rows, k))
                done, rows = done + k, rows + k
                if rows == len(X):
                    _score_band(classifier, X, band)
                    rows = 0
                    yield from (distance_matrix(*w, dataset, name_rules) for w in waiting)
                    waiting.clear()
            del prepared
        waiting.append((block, p))
    _score_band(classifier, X[:rows], band)
    yield from (distance_matrix(*w, dataset, name_rules) for w in waiting)


def _score_band(classifier: EnsembleClassifier, X: np.ndarray, band: list[tuple]) -> None:
    """Score the rows of ``X`` with one ensemble call, write each slice's
    probabilities into its block's ``p``, and empty ``band``."""
    if band:
        q = classifier.predict_from_features(X)
        for p, lo, row, k in band:
            p[lo : lo + k] = q[row : row + k]
        band.clear()


# ---------------------------------------------------------------------------
# hierarchical agglomerative clustering
# ---------------------------------------------------------------------------


def _lance_williams(linkage, w_ik, w_jk, d_ij, si, sj, sk):
    if linkage == "single":
        return np.minimum(w_ik, w_jk)
    if linkage == "complete":
        return np.maximum(w_ik, w_jk)
    if linkage == "average":
        return (si * w_ik + sj * w_jk) / (si + sj)
    # ward: variance-increase recurrence applied to the distances as given
    num = (si + sk) * w_ik**2 + (sj + sk) * w_jk**2 - sk * d_ij**2
    return np.sqrt(np.maximum(num / (si + sj + sk), 0.0))


def hac_merge_order(
    D: DistanceMatrix, linkage: str, eps: float
) -> list[tuple[int, int, float]]:
    """Run the merge loop; returns (slot_i, slot_j, height) per merge."""
    if linkage not in LINKAGES:
        raise ConfigError(f"unknown linkage {linkage!r}")
    n = D.d.shape[0]
    if n < 2:
        return []
    # the linkage distance of every two live clusters, +inf where they may
    # not merge: a veto, a slot merged away, or the diagonal
    W = np.where(D.veto, np.inf, D.d.astype(np.float64, copy=False))
    np.fill_diagonal(W, np.inf)
    sizes = np.ones(n, dtype=np.float64)
    merges: list[tuple[int, int, float]] = []

    while True:
        # W is symmetric, so the first minimum in row-major order is the
        # lowest slot and then its lowest partner
        i, j = divmod(int(W.argmin()), n)
        height = float(W[i, j])
        if height == np.inf or height > eps:
            break
        new_row = _lance_williams(linkage, W[i], W[j], W[i, j], sizes[i], sizes[j], sizes)
        # a pair vetoed for either parent stays vetoed for the merged cluster
        new_row[np.isinf(W[i]) | np.isinf(W[j])] = np.inf
        W[i] = W[:, i] = new_row
        W[j] = W[:, j] = np.inf
        sizes[i] += sizes[j]
        merges.append((i, j, height))
    return merges


def _partition_from_merges(
    members: Sequence[str], merges: Sequence[tuple[int, int, float]]
) -> Partition:
    n = len(members)
    groups: dict[int, list[int]] = {i: [i] for i in range(n)}
    for i, j, _ in merges:
        groups[i].extend(groups.pop(j))
    assignment: dict[str, str] = {}
    for label, slot in enumerate(sorted(groups)):
        for idx in groups[slot]:
            assignment[members[idx]] = str(label)
    return Partition(assignment)


def hac_cluster(D: DistanceMatrix, linkage: str = "average", eps: float = 0.5) -> Partition:
    """Cluster one block by agglomerative merging up to the eps threshold."""
    merges = hac_merge_order(D, linkage, eps)
    return _partition_from_merges(D.block.members, merges)


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------

_UNVISITED = -1
_NOISE = -2


def dbscan_cluster(D: DistanceMatrix, eps: float, min_samples: int = 2) -> Partition:
    """Density clustering over the precomputed matrix; noise points become
    singleton clusters so every record receives a label. A vetoed pair is
    never in one neighbourhood, even at ``eps`` = 1, though a third record
    can still join it."""
    if min_samples < 1:
        raise ConfigError("min_samples must be >= 1")
    n = D.d.shape[0]
    neigh = [np.nonzero((D.d[i] <= eps) & ~D.veto[i])[0] for i in range(n)]
    core = [len(neigh[i]) >= min_samples for i in range(n)]
    labels = np.full(n, _UNVISITED, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        if not core[i]:
            labels[i] = _NOISE
            continue
        labels[i] = cluster
        queue = deque(int(q) for q in neigh[i])
        while queue:
            q = queue.popleft()
            if labels[q] == _NOISE:
                labels[q] = cluster  # border point
            if labels[q] != _UNVISITED:
                continue
            labels[q] = cluster
            if core[q]:
                queue.extend(int(r) for r in neigh[q])
        cluster += 1
    assignment: dict[str, str] = {}
    for idx, member in enumerate(D.block.members):
        if labels[idx] == _NOISE:
            assignment[member] = f"noise_{idx}"
        else:
            assignment[member] = str(int(labels[idx]))
    return Partition(assignment)


def cluster_block(D: DistanceMatrix, params: ClusterParams) -> Partition:
    if params.method == "dbscan":
        return dbscan_cluster(D, params.eps, params.dbscan_min_samples)
    return hac_cluster(D, params.linkage, params.eps)


# ---------------------------------------------------------------------------
# eps tuning
# ---------------------------------------------------------------------------


def tune_eps(
    val_blocks: Sequence[Block],
    classifier: EnsembleClassifier,
    dataset: Dataset,
    counts: NameCountsTable,
    gold: Partition,
    params: ClusterParams = ClusterParams(),
    budget: int = 24,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded random search (with local refinement) for the merge threshold,
    maximizing B-cubed F1 over the validation blocks; every other setting
    comes from ``params``, whose own eps is not read."""
    from .metrics import b3

    if budget < 1:
        raise ConfigError("eps search budget must be >= 1")
    if not val_blocks:
        raise ConfigError("no validation blocks to tune on")
    matrices = distance_matrices(val_blocks, classifier, dataset, counts, params.name_rules)
    members = [m for b in val_blocks for m in b.members]
    gold_sub = gold.restrict(members)
    if len(gold_sub) != len(members):
        raise ConfigError("gold partition does not cover the validation blocks")

    def score(eps: float) -> float:
        trial = replace(params, eps=eps)
        assignment: dict[str, str] = {}
        for bi, D in enumerate(matrices):
            part = cluster_block(D, trial)
            for sig_id, local in part.assignment.items():
                assignment[sig_id] = f"{bi}:{local}"
        return b3(Partition(assignment), gold_sub).f1

    rng = np.random.Generator(np.random.PCG64(seed))
    n_random = max(1, budget - budget // 3)
    best_eps, best_f1 = 0.0, -1.0
    for _ in range(n_random):
        eps = float(rng.uniform(0.0, 1.0))
        f1 = score(eps)
        if f1 > best_f1:
            best_eps, best_f1 = eps, f1
    radius = 0.12
    for _ in range(budget - n_random):
        eps = float(np.clip(best_eps + rng.uniform(-radius, radius), 0.0, 1.0))
        f1 = score(eps)
        if f1 > best_f1:
            best_eps, best_f1 = eps, f1
        radius *= 0.6
    return best_eps, best_f1


# ---------------------------------------------------------------------------
# whole-corpus clustering
# ---------------------------------------------------------------------------

# The arguments of _cluster_blocks, set in pool worker processes only.
_WORKER_STATE: dict = {}


def _init_worker(*args) -> None:
    _WORKER_STATE["args"] = args


def _cluster_one(D: DistanceMatrix, params: ClusterParams) -> Partition:
    """Cluster one scored block."""
    return cluster_block(D, params)


def _cluster_blocks(blocks: Sequence[Block], state: tuple | None = None) -> list[Partition]:
    """Score and cluster blocks, each as soon as it is scored; ``state``
    defaults to a pool worker's."""
    classifier, dataset, counts, params = state or _WORKER_STATE["args"]
    scored = _scored_blocks(blocks, classifier, dataset, counts, params.name_rules)
    return [_cluster_one(D, params) for D in scored]


def cluster_corpus(
    dataset: Dataset,
    classifier: EnsembleClassifier,
    params: ClusterParams,
    counts: NameCountsTable,
    blocks: Sequence[Block] | None = None,
    jobs: int = 1,
) -> Partition:
    """Cluster every block and concatenate with globally unique cluster ids.

    Results are independent of ``jobs``: blocks are processed in sorted-key
    order, a pair's score does not depend on the band it is scored in,
    workers take whole groups of blocks (_score_groups), and each block's
    clustering is deterministic. A serial run scores all blocks in one
    walk of bands; a parallel one starts no more workers than groups.
    """
    if blocks is None:
        blocks = blocking.build_blocks(dataset)
    state = (classifier, dataset, counts, params)
    groups = _score_groups(blocks) if jobs > 1 else []
    if len(groups) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context()
        with ctx.Pool(min(jobs, len(groups)), initializer=_init_worker, initargs=state) as pool:
            parts = [part for group in pool.map(_cluster_blocks, groups) for part in group]
    else:
        parts = _cluster_blocks(blocks, state)

    assignment: dict[str, str] = {}
    counter = 0
    for part in parts:
        relabel: dict[str, str] = {}
        for sig_id in sorted(part.assignment):
            local = part.assignment[sig_id]
            if local not in relabel:
                relabel[local] = f"c{counter}"
                counter += 1
            assignment[sig_id] = relabel[local]
    return Partition(assignment)
