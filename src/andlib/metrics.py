"""Clustering and ranking metrics, plus facet-sliced reports.

B-cubed scores average each record's own precision/recall/F1, where a
record's precision compares its predicted cluster against its gold cluster
membership. Pairwise F1 treats "same predicted cluster" as a positive
prediction over within-block record pairs and macro-averages F1 over blocks
with at least two records. AUROC follows the rank-statistic definition
(ties count one half); average precision walks the descending-score ranking
with stable tie order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import blocking
from .blocking import Block
from .corpus import Dataset, Partition
from .errors import IntegrityError

#: degenerate-precision convention: no predicted positives -> precision 1
#: (and symmetrically for recall); an all-negative block with no predicted
#: positives therefore scores F1 = 1.


@dataclass
class B3Result:
    precision: float
    recall: float
    f1: float
    per_record_f1: dict[str, float]


def _check_coverage(pred: Partition, gold: Partition) -> None:
    if set(pred.assignment) != set(gold.assignment):
        raise IntegrityError("pred and gold cover different signature sets")


def b3(pred: Partition, gold: Partition) -> B3Result:
    """B-cubed precision/recall/F1 (means of the per-record scores)."""
    _check_coverage(pred, gold)
    pred_sizes: dict[str, int] = {}
    gold_sizes: dict[str, int] = {}
    joint: dict[tuple[str, str], int] = {}
    for sig_id, pc in pred.assignment.items():
        gc = gold.assignment[sig_id]
        pred_sizes[pc] = pred_sizes.get(pc, 0) + 1
        gold_sizes[gc] = gold_sizes.get(gc, 0) + 1
        joint[(pc, gc)] = joint.get((pc, gc), 0) + 1
    if not pred.assignment:
        raise IntegrityError("cannot score an empty partition")
    per_f1: dict[str, float] = {}
    precisions, recalls, f1s = [], [], []
    for sig_id, pc in pred.assignment.items():
        gc = gold.assignment[sig_id]
        overlap = joint[(pc, gc)]
        p = overlap / pred_sizes[pc]
        r = overlap / gold_sizes[gc]
        f = 2 * p * r / (p + r)
        per_f1[sig_id] = f
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return B3Result(
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        f1=float(np.mean(f1s)),
        per_record_f1=per_f1,
    )


def _pair_counts(labels: Iterable[str]) -> int:
    sizes: dict[str, int] = {}
    for lab in labels:
        sizes[lab] = sizes.get(lab, 0) + 1
    return sum(k * (k - 1) // 2 for k in sizes.values())


def pairwise_macro_f1(
    pred: Partition, gold: Partition, blocks: Sequence[Block]
) -> float:
    """Within-block pairwise F1, macro-averaged over blocks of size >= 2."""
    _check_coverage(pred, gold)
    f1s: list[float] = []
    for block in blocks:
        if len(block.members) < 2:
            continue
        pred_labels = [pred.assignment[m] for m in block.members]
        gold_labels = [gold.assignment[m] for m in block.members]
        joint: dict[tuple[str, str], int] = {}
        for pl, gl in zip(pred_labels, gold_labels):
            joint[(pl, gl)] = joint.get((pl, gl), 0) + 1
        tp = sum(k * (k - 1) // 2 for k in joint.values())
        pred_pos = _pair_counts(pred_labels)
        gold_pos = _pair_counts(gold_labels)
        precision = tp / pred_pos if pred_pos else 1.0
        recall = tp / gold_pos if gold_pos else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
    if not f1s:
        raise IntegrityError("no blocks with two or more records to score")
    return float(np.mean(f1s))


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank statistic: P(score_pos > score_neg) with ties counted 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def average_precision(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mean precision-at-rank over positives, descending scores, stable ties."""
    scores = list(scores)
    labels = list(labels)
    n_pos = sum(1 for y in labels if y == 1)
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


# ---------------------------------------------------------------------------
# block difficulty measures
# ---------------------------------------------------------------------------


def _flagged_share(block: Block, gold: Partition, dataset: Dataset, same_name: bool) -> float:
    """Fraction of block records with another record in a different gold
    cluster under the same full name (``same_name``), or in the same gold
    cluster under a different full name: those whose name (or gold
    cluster) is held by more records than their (name, cluster) pair."""
    pairs = [(dataset.signatures[m].name.full, gold.assignment[m]) for m in block.members]
    side = Counter(name if same_name else cl for name, cl in pairs)
    both = Counter(pairs)
    flagged = sum(side[name if same_name else cl] > both[name, cl] for name, cl in pairs)
    return flagged / len(pairs) if pairs else 0.0


def homonymity(block: Block, gold: Partition, dataset: Dataset) -> float:
    """Fraction of block records sharing a full name with a record from a
    different gold cluster."""
    return _flagged_share(block, gold, dataset, same_name=True)


def synonymity(block: Block, gold: Partition, dataset: Dataset) -> float:
    """Fraction of block records sharing a gold cluster with a record whose
    full name differs."""
    return _flagged_share(block, gold, dataset, same_name=False)


# ---------------------------------------------------------------------------
# facet reports
# ---------------------------------------------------------------------------

FACETS = (
    "block_size",
    "cluster_size",
    "num_authors",
    "year",
    "homonymity",
    "synonymity",
)

DEFAULT_FACET_BINS: dict[str, tuple[float, ...]] = {
    "block_size": (2, 4, 8, 16, 32, 64),
    "cluster_size": (2, 4, 8, 16, 32, 64),
    "num_authors": (2, 3, 5, 8, 11),
    "year": (1970, 1980, 1990, 2000, 2010, 2020),
    "homonymity": (0.01, 0.2, 0.4, 0.6, 0.8),
    "synonymity": (0.01, 0.2, 0.4, 0.6, 0.8),
}


@dataclass
class FacetBin:
    label: str
    count: int
    mean_f1: float


@dataclass
class FacetReport:
    facet: str
    bins: list[FacetBin]


def _facet_values(
    facet: str,
    dataset: Dataset,
    gold: Partition,
    blocks: Sequence[Block],
) -> dict[str, float | None]:
    values: dict[str, float | None] = {}
    if facet == "block_size":
        for block in blocks:
            for m in block.members:
                values[m] = float(len(block.members))
    elif facet == "cluster_size":
        sizes: dict[str, int] = {}
        for cid in gold.assignment.values():
            sizes[cid] = sizes.get(cid, 0) + 1
        for sig_id, cid in gold.assignment.items():
            values[sig_id] = float(sizes[cid])
    elif facet == "num_authors":
        for sig_id, sig in dataset.signatures.items():
            values[sig_id] = float(len(dataset.papers[sig.paper_id].author_names))
    elif facet == "year":
        for sig_id, sig in dataset.signatures.items():
            year = dataset.papers[sig.paper_id].year
            values[sig_id] = float(year) if year is not None else None
    elif facet in ("homonymity", "synonymity"):
        fn = homonymity if facet == "homonymity" else synonymity
        for block in blocks:
            v = fn(block, gold, dataset)
            for m in block.members:
                values[m] = v
    else:
        raise ValueError(f"unknown facet {facet!r}")
    return values


def _bin_label(edges: Sequence[float], idx: int) -> str:
    if idx == 0:
        return f"<{edges[0]:g}"
    if idx == len(edges):
        return f">={edges[-1]:g}"
    return f"[{edges[idx - 1]:g},{edges[idx]:g})"


def facet_report(
    pred: Partition,
    gold: Partition,
    dataset: Dataset,
    facet: str,
    bins: Sequence[float] | None = None,
    blocks: Sequence[Block] | None = None,
) -> FacetReport:
    """Mean per-record B-cubed F1 broken out by one facet.

    Bin edges define right-open intervals, with open-ended bins below the
    first and above the last edge; records whose facet value is undefined
    (e.g. missing year) land in an "unknown" bin so counts always total the
    evaluated records.
    """
    if facet not in FACETS:
        raise ValueError(f"unknown facet {facet!r}")
    edges = tuple(bins) if bins is not None else DEFAULT_FACET_BINS[facet]
    if not edges:
        raise ValueError("facet bins must list at least one edge")
    if list(edges) != sorted(edges):
        raise ValueError("facet bin edges must be sorted")
    if blocks is None:
        blocks = blocking.build_blocks(dataset)
    blocks = [b for b in blocks if all(m in gold.assignment for m in b.members)]
    result = b3(pred, gold)
    values = _facet_values(facet, dataset, gold, blocks)

    assigned: dict[str, list[float]] = {}
    for sig_id, f1 in result.per_record_f1.items():
        v = values.get(sig_id)
        if v is None:
            label = "unknown"
        else:
            idx = int(np.searchsorted(edges, v, side="right"))
            label = _bin_label(edges, idx)
        assigned.setdefault(label, []).append(f1)

    ordered_labels = [_bin_label(edges, i) for i in range(len(edges) + 1)]
    ordered_labels.append("unknown")
    out_bins = [
        FacetBin(label=lab, count=len(assigned[lab]), mean_f1=float(np.mean(assigned[lab])))
        for lab in ordered_labels
        if lab in assigned
    ]
    return FacetReport(facet=facet, bins=out_bins)
