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
from typing import Sequence

import numpy as np

from . import blocking, features
from .blocking import Block
from .corpus import Dataset, NameCountsTable, Partition
from .errors import ConfigError
from .features import FeatureSchema
from .model import EnsembleClassifier

LINKAGES = ("average", "single", "complete", "ward")

# Pairs the ensemble scores per call: blocks are gathered, whole, until a
# group holds at least this many, so the per-call cost of tree prediction
# is paid once per group instead of once per block.
SCORE_BATCH_PAIRS = 8192


@dataclass(frozen=True)
class NameRules:
    """Cannot-link configuration for incompatible full first names."""

    enabled: bool = True


@dataclass(frozen=True)
class ClusterParams:
    linkage: str = "average"
    eps: float = 0.5
    method: str = "hac"
    dbscan_min_samples: int = 2

    def __post_init__(self):
        if self.linkage not in LINKAGES:
            raise ConfigError(f"unknown linkage {self.linkage!r}")
        if self.method not in ("hac", "dbscan"):
            raise ConfigError(f"unknown clustering method {self.method!r}")
        if not 0.0 <= self.eps <= 1.0:
            raise ConfigError(f"eps must be in [0,1], got {self.eps}")
        if self.dbscan_min_samples < 1:
            raise ConfigError("dbscan_min_samples must be >= 1")


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
    rules: NameRules = NameRules(),
) -> DistanceMatrix:
    """One block's distances from the same-author probabilities ``p`` of its
    ``triu_indices(n, k=1)`` pairs, with the first-name vetoes applied."""
    n = len(block.members)
    d = np.zeros((n, n), dtype=np.float64)
    veto = np.zeros((n, n), dtype=bool)
    if n > 1:
        ii, jj = np.triu_indices(n, k=1)
        d[ii, jj] = d[jj, ii] = 1.0 - p
        if rules.enabled:
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
    """Consecutive runs of whole blocks, each closed once it holds at least
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
    schema: FeatureSchema,
    rules: NameRules = NameRules(),
) -> list[DistanceMatrix]:
    """Pairwise not-same-author distances for each block, in order.

    Features are built one block at a time, so only one block's signature
    profiles are alive at once, against one PaperGrams table for the whole
    call, so each cited paper is n-grammed once; the ensemble then scores a
    whole group of blocks in one call.
    """
    classifier.check_hash(schema)
    grams = features.PaperGrams(dataset)
    out: list[DistanceMatrix] = []
    for group in _score_groups(blocks):
        X = np.concatenate([_block_features(b, dataset, counts, schema, grams) for b in group])
        p = classifier.predict_from_features(X)
        bounds = np.cumsum([_n_pairs(b) for b in group])[:-1]
        for block, p_block in zip(group, np.split(p, bounds)):
            out.append(distance_matrix(block, p_block, dataset, rules))
    return out


def _block_features(
    block: Block,
    dataset: Dataset,
    counts: NameCountsTable,
    schema: FeatureSchema,
    grams: features.PaperGrams,
) -> np.ndarray:
    """Features of one block's ``triu_indices(n, k=1)`` pairs."""
    sigs = [dataset.signatures[m] for m in block.members]
    a, b = np.triu_indices(len(sigs), k=1)
    return features.featurize_pairs(sigs, a, b, dataset, counts, schema, grams)


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
    W = D.d.astype(np.float64).copy()
    V = D.veto.copy()
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.float64)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    merges: list[tuple[int, int, float]] = []

    while True:
        ok = upper & active[:, None] & active[None, :] & ~V
        if not ok.any():
            break
        masked = np.where(ok, W, np.inf)
        k = int(masked.argmin())
        i, j = divmod(k, n)
        height = float(masked[i, j])
        if height > eps:
            break
        d_ij = W[i, j]
        others = active.copy()
        others[i] = others[j] = False
        new_row = _lance_williams(
            linkage, W[i], W[j], d_ij, sizes[i], sizes[j], sizes
        )
        W[i, others] = new_row[others]
        W[others, i] = new_row[others]
        W[i, i] = 0.0
        V[i] |= V[j]
        V[:, i] |= V[:, j]
        sizes[i] += sizes[j]
        active[j] = False
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
    singleton clusters so every record receives a label."""
    if min_samples < 1:
        raise ConfigError("min_samples must be >= 1")
    n = D.d.shape[0]
    neigh = [np.nonzero(D.d[i] <= eps)[0] for i in range(n)]
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
    schema: FeatureSchema,
    gold: Partition,
    linkage: str = "average",
    budget: int = 24,
    seed: int = 0,
    rules: NameRules = NameRules(),
    method: str = "hac",
    dbscan_min_samples: int = 2,
) -> tuple[float, float]:
    """Seeded random search (with local refinement) for the merge threshold,
    maximizing B-cubed F1 over the validation blocks."""
    from .metrics import b3

    if budget < 1:
        raise ConfigError("eps search budget must be >= 1")
    if not val_blocks:
        raise ConfigError("no validation blocks to tune on")
    matrices = distance_matrices(val_blocks, classifier, dataset, counts, schema, rules)
    members = [m for b in val_blocks for m in b.members]
    gold_sub = gold.restrict(members)
    if len(gold_sub) != len(members):
        raise ConfigError("gold partition does not cover the validation blocks")

    def score(eps: float) -> float:
        assignment: dict[str, str] = {}
        for bi, D in enumerate(matrices):
            params = ClusterParams(
                linkage=linkage,
                eps=eps,
                method=method,
                dbscan_min_samples=dbscan_min_samples,
            )
            part = cluster_block(D, params)
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

# The arguments of _cluster_group, set in pool worker processes only.
_WORKER_STATE: dict = {}


def _init_worker(*args) -> None:
    _WORKER_STATE["args"] = args


def _cluster_one(D: DistanceMatrix, params: ClusterParams) -> Partition:
    """Cluster one scored block."""
    return cluster_block(D, params)


def _cluster_group(group: list[Block], state: tuple | None = None) -> list[Partition]:
    """Score and cluster one group; ``state`` defaults to a pool worker's."""
    classifier, dataset, counts, schema, rules, params = state or _WORKER_STATE["args"]
    matrices = distance_matrices(group, classifier, dataset, counts, schema, rules)
    return [_cluster_one(D, params) for D in matrices]


def cluster_corpus(
    dataset: Dataset,
    classifier: EnsembleClassifier,
    params: ClusterParams,
    counts: NameCountsTable,
    schema: FeatureSchema,
    rules: NameRules = NameRules(),
    blocks: Sequence[Block] | None = None,
    jobs: int = 1,
) -> Partition:
    """Cluster every block and concatenate with globally unique cluster ids.

    Results are independent of ``jobs``: blocks are processed in sorted-key
    order, workers take whole scoring groups, and each block's clustering
    is deterministic.
    """
    if blocks is None:
        blocks = blocking.build_blocks(dataset)
    groups = _score_groups(blocks)
    state = (classifier, dataset, counts, schema, rules, params)
    if jobs > 1 and len(groups) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=jobs, initializer=_init_worker, initargs=state) as pool:
            per_group = pool.map(_cluster_group, groups)
    else:
        per_group = [_cluster_group(g, state) for g in groups]
    parts = [part for group_parts in per_group for part in group_parts]

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
