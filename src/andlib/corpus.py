"""Corpus data model, on-disk schema, block splits, and augmentation.

A corpus is three-to-five JSON files:

* ``papers.json``      map paper_id -> paper metadata
* ``signatures.json``  array of author-name-on-paper records
* ``clusters.json``    (optional) map cluster_id -> [signature_id], the gold
  partition
* ``embeddings.json``  (optional) ``{"dim": D, "vectors": {paper_id: [...]}}``
* ``name_counts.json`` (optional sidecar) precomputed name-count tables,
  used to emulate counts taken from a corpus much larger than the one being
  clustered

Datasets are immutable after load; every transformation returns a new one.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import blocking
from .errors import (
    ConfigError,
    DegenerateSplitError,
    DimensionError,
    IntegrityError,
    ParseError,
)

SPLITS = ("train", "val", "test")

#: feature groups that knockout_augment knows how to delete
KNOCKOUT_GROUPS = (
    "affiliation",
    "email",
    "abstract",
    "venue",
    "embedding",
    "references",
    "first_name",
)


@dataclass(frozen=True)
class Paper:
    paper_id: str
    title: str
    abstract: str | None = None
    venue: str | None = None
    journal: str | None = None
    year: int | None = None
    author_names: tuple[str, ...] = ()
    reference_ids: frozenset[str] = frozenset()
    language: str | None = None
    embedding: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Signature:
    signature_id: str
    paper_id: str
    author_position: int  # 1-based
    first: str | None
    middle: str | None
    last: str
    suffix: str | None = None
    affiliations: tuple[str, ...] = ()
    email: str | None = None
    # normalized once, here: a last name that folds to nothing raises
    # IntegrityError
    name: blocking.NormalizedName = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        name = blocking.normalize_name(self.first, self.middle, self.last)
        object.__setattr__(self, "name", name)


@dataclass(frozen=True)
class Partition:
    """Assignment of signature ids to opaque cluster labels."""

    assignment: Mapping[str, str]

    def clusters(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for sig_id, cid in self.assignment.items():
            out.setdefault(cid, set()).add(sig_id)
        return {cid: frozenset(members) for cid, members in out.items()}

    def restrict(self, sig_ids: Iterable[str]) -> "Partition":
        keep = set(sig_ids)
        return Partition({s: c for s, c in self.assignment.items() if s in keep})

    def __len__(self) -> int:
        return len(self.assignment)


@dataclass(eq=False)
class Dataset:
    papers: dict[str, Paper]
    signatures: dict[str, Signature]
    gold: Partition | None = None
    splits: dict[str, str] | None = None  # block key -> train|val|test


@dataclass
class NameCountsTable:
    """Occurrence counts of normalized name keys over a corpus.

    Lookups of absent keys return None (the missing sentinel); featurization
    maps that to NaN rather than imputing a value.
    """

    first: dict[str, int] = field(default_factory=dict)
    last: dict[str, int] = field(default_factory=dict)
    first_last: dict[str, int] = field(default_factory=dict)
    first_initial_last: dict[str, int] = field(default_factory=dict)

    def get_first(self, key: str | None) -> int | None:
        return self.first.get(key) if key else None

    def get_last(self, key: str | None) -> int | None:
        return self.last.get(key) if key else None

    def get_first_last(self, key: str | None) -> int | None:
        return self.first_last.get(key) if key else None

    def get_first_initial_last(self, key: str | None) -> int | None:
        return self.first_initial_last.get(key) if key else None


# ---------------------------------------------------------------------------
# loading / saving
# ---------------------------------------------------------------------------


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise IntegrityError(f"duplicate id {key!r}")
        seen[key] = value
    return seen


def _load_json(path: str | os.PathLike, check_duplicates: bool = False):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if check_duplicates:
                return json.load(fh, object_pairs_hook=_reject_duplicate_keys)
            return json.load(fh)
    except IntegrityError:
        raise
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _opt_str(value) -> str | None:
    """Absent or empty string means missing."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise ParseError(f"expected string or null, got {value!r}")
    return value or None


def _str_list(raw: dict, key: str, owner: str) -> list[str]:
    """``raw[key]`` as an array of strings; absent or null means empty."""
    value = [] if raw.get(key) is None else raw[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{owner}: {key} must be an array of strings, got {value!r}")
    return value


def _parse_paper(paper_id: str, raw: dict) -> Paper:
    if not isinstance(raw, dict):
        raise ParseError(f"paper {paper_id!r}: expected object")
    authors = raw.get("authors", [])
    if not isinstance(authors, list):
        raise ParseError(f"paper {paper_id!r}: authors must be an array")
    by_pos: dict[int, str] = {}
    for entry in authors:
        entry = entry if isinstance(entry, dict) else {}
        pos, name = entry.get("position"), entry.get("name")
        if type(pos) is not int or not isinstance(name, str):  # bool is an int
            raise ParseError(
                f"paper {paper_id!r}: author entry needs an integer position "
                "and a string name"
            )
        if pos in by_pos:
            raise IntegrityError(f"paper {paper_id!r}: duplicate author position {pos}")
        by_pos[pos] = name
    if not by_pos:
        raise IntegrityError(f"paper {paper_id!r}: author list is empty")
    if sorted(by_pos) != list(range(1, len(by_pos) + 1)):
        raise IntegrityError(f"paper {paper_id!r}: author positions not 1..n")
    references = frozenset(_str_list(raw, "references", f"paper {paper_id!r}"))
    if paper_id in references:
        raise IntegrityError(f"paper {paper_id!r} lists itself as a reference")
    year = raw.get("year")
    if year is not None and type(year) is not int:  # bool is an int subclass
        raise ParseError(f"paper {paper_id!r}: year must be an integer")
    return Paper(
        paper_id=paper_id,
        title=_opt_str(raw.get("title")) or "",
        abstract=_opt_str(raw.get("abstract")),
        venue=_opt_str(raw.get("venue")),
        journal=_opt_str(raw.get("journal")),
        year=year,
        author_names=tuple(by_pos[i] for i in sorted(by_pos)),
        reference_ids=references,
        language=_opt_str(raw.get("language")),
    )


def _parse_signature(raw: dict) -> Signature:
    try:
        sig_id = raw["signature_id"]
        paper_id = raw["paper_id"]
        position = raw["author_position"]
        last = raw["last"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed signature record: {raw!r}") from exc
    if not all(isinstance(v, str) for v in (sig_id, paper_id, last)):
        raise ParseError(f"signature ids and last name must be strings: {raw!r}")
    if type(position) is not int or position < 1:  # bool is an int subclass
        raise IntegrityError(f"signature {sig_id!r}: bad author_position {position!r}")
    affiliations = _str_list(raw, "affiliations", f"signature {sig_id!r}")
    return Signature(
        signature_id=sig_id,
        paper_id=paper_id,
        author_position=position,
        first=_opt_str(raw.get("first")),
        middle=_opt_str(raw.get("middle")),
        last=last,
        suffix=_opt_str(raw.get("suffix")),
        affiliations=tuple(a for a in affiliations if a),
        email=_opt_str(raw.get("email")),
    )


def load_partition(path: str | os.PathLike) -> Partition:
    """Read a clusters.json file (map cluster_id -> [signature_id])."""
    raw = _load_json(path, check_duplicates=True)
    assignment: dict[str, str] = {}
    for cid, members in raw.items():
        for sig_id in members:
            if sig_id in assignment:
                raise IntegrityError(f"signature {sig_id!r} in more than one cluster")
            assignment[sig_id] = cid
    return Partition(assignment)


def load_dataset(
    papers_file: str | os.PathLike,
    signatures_file: str | os.PathLike,
    clusters_file: str | os.PathLike | None = None,
    embeddings_file: str | os.PathLike | None = None,
    splits_file: str | os.PathLike | None = None,
) -> Dataset:
    """Load and validate a corpus.

    Rejects duplicate ids, dangling references from signatures to papers,
    inconsistent embedding dimensions, (when gold clusters are given)
    partitions that do not cover every signature, and a splits file that is
    not an object of ``SPLITS`` values. Its keys are checked against the
    blocks where those are built (``pipeline.sample_train_val``).
    """
    papers_raw = _load_json(papers_file, check_duplicates=True)
    if not isinstance(papers_raw, dict):
        raise ParseError(f"{papers_file}: expected an object of papers")
    papers = {pid: _parse_paper(pid, raw) for pid, raw in papers_raw.items()}

    sigs_raw = _load_json(signatures_file)
    if not isinstance(sigs_raw, list):
        raise ParseError(f"{signatures_file}: expected an array of signatures")
    signatures: dict[str, Signature] = {}
    for raw in sigs_raw:
        sig = _parse_signature(raw)
        if sig.signature_id in signatures:
            raise IntegrityError(f"duplicate id {sig.signature_id!r}")
        signatures[sig.signature_id] = sig

    if embeddings_file is not None:
        emb_raw = _load_json(embeddings_file)
        try:
            dim = emb_raw["dim"]
            vectors = emb_raw["vectors"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{embeddings_file}: missing dim/vectors header") from exc
        if type(dim) is not int or dim < 0:
            raise ParseError(f"{embeddings_file}: dim must be an integer >= 0, got {dim!r}")
        if not isinstance(vectors, dict):
            raise ParseError(f"{embeddings_file}: vectors must be an object")
        for pid, vec in vectors.items():
            if pid not in papers:
                raise IntegrityError(f"embedding for unknown paper {pid!r}")
            if not isinstance(vec, list) or not all(
                type(x) in (int, float) for x in vec  # bool is an int subclass
            ):
                raise ParseError(f"embedding for {pid!r} is not a list of numbers")
            if len(vec) != dim:
                raise DimensionError(
                    f"embedding for {pid!r} has length {len(vec)}, expected {dim}"
                )
            papers[pid] = dataclasses.replace(
                papers[pid], embedding=tuple(float(x) for x in vec)
            )

    gold = None
    if clusters_file is not None:
        gold = load_partition(clusters_file)

    splits = None
    if splits_file is not None and os.path.exists(splits_file):
        splits = _load_json(splits_file)
        if not isinstance(splits, dict) or any(
            v not in SPLITS for v in splits.values()
        ):
            raise ParseError(f"{splits_file}: expected block key -> one of {SPLITS}")

    dataset = Dataset(papers=papers, signatures=signatures, gold=gold, splits=splits)
    validate_dataset(dataset)
    return dataset


def validate_dataset(dataset: Dataset) -> None:
    for sig in dataset.signatures.values():
        paper = dataset.papers.get(sig.paper_id)
        if paper is None:
            raise IntegrityError(
                f"signature {sig.signature_id!r} references missing paper "
                f"{sig.paper_id!r}"
            )
        if sig.author_position > len(paper.author_names):
            raise IntegrityError(
                f"signature {sig.signature_id!r}: position {sig.author_position} "
                f"exceeds {len(paper.author_names)} authors"
            )
    dims = {len(p.embedding) for p in dataset.papers.values() if p.embedding}
    if len(dims) > 1:
        raise DimensionError(f"inconsistent embedding lengths: {sorted(dims)}")
    if dataset.gold is not None:
        gold_ids = set(dataset.gold.assignment)
        sig_ids = set(dataset.signatures)
        if gold_ids != sig_ids:
            missing = sorted(sig_ids - gold_ids)[:3]
            extra = sorted(gold_ids - sig_ids)[:3]
            raise IntegrityError(
                f"gold partition does not cover signatures exactly "
                f"(missing={missing}, unknown={extra})"
            )


def save_dataset(dataset: Dataset, out_dir: str | os.PathLike) -> dict[str, str]:
    """Write a corpus back to its canonical files. Returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}

    papers_doc = {}
    for pid in sorted(dataset.papers):
        p = dataset.papers[pid]
        papers_doc[pid] = {
            "title": p.title,
            "abstract": p.abstract,
            "venue": p.venue,
            "journal": p.journal,
            "year": p.year,
            "authors": [
                {"position": i + 1, "name": name}
                for i, name in enumerate(p.author_names)
            ],
            "references": sorted(p.reference_ids),
            "language": p.language,
        }
    paths["papers"] = _dump_json(papers_doc, out_dir, "papers.json")

    sigs_doc = []
    for sid in sorted(dataset.signatures):
        s = dataset.signatures[sid]
        sigs_doc.append(
            {
                "signature_id": s.signature_id,
                "paper_id": s.paper_id,
                "author_position": s.author_position,
                "first": s.first,
                "middle": s.middle,
                "last": s.last,
                "suffix": s.suffix,
                "affiliations": list(s.affiliations),
                "email": s.email,
            }
        )
    paths["signatures"] = _dump_json(sigs_doc, out_dir, "signatures.json")

    if dataset.gold is not None:
        paths["clusters"] = _dump_json(
            partition_to_doc(dataset.gold), out_dir, "clusters.json"
        )

    vectors = {
        pid: list(p.embedding)
        for pid, p in sorted(dataset.papers.items())
        if p.embedding is not None
    }
    if vectors:
        dim = len(next(iter(vectors.values())))
        paths["embeddings"] = _dump_json(
            {"dim": dim, "vectors": vectors}, out_dir, "embeddings.json"
        )

    if dataset.splits is not None:
        paths["splits"] = _dump_json(dataset.splits, out_dir, "splits.json")
    return paths


def partition_to_doc(partition: Partition) -> dict[str, list[str]]:
    return {
        cid: sorted(members)
        for cid, members in sorted(partition.clusters().items())
    }


def save_partition(partition: Partition, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(partition_to_doc(partition), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dump_json(doc, out_dir, name: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# name counts
# ---------------------------------------------------------------------------


def build_name_counts(dataset: Dataset) -> NameCountsTable:
    """Count normalized name keys over every signature in the corpus."""
    table = NameCountsTable()
    for sig_id in sorted(dataset.signatures):
        name = dataset.signatures[sig_id].name
        table.last[name.last] = table.last.get(name.last, 0) + 1
        if name.first:
            table.first[name.first] = table.first.get(name.first, 0) + 1
            fl = f"{name.first} {name.last}"
            table.first_last[fl] = table.first_last.get(fl, 0) + 1
            il = f"{name.first_initial} {name.last}"
            table.first_initial_last[il] = table.first_initial_last.get(il, 0) + 1
    return table


def load_name_counts(path: str | os.PathLike) -> NameCountsTable:
    """Read a name-counts sidecar: an object of the four NameCountsTable
    tables, each an object of non-negative integer counts."""
    raw = _load_json(path)
    tables = {}
    for name in ("first", "last", "first_last", "first_initial_last"):
        table = raw.get(name) if isinstance(raw, dict) else None
        if not isinstance(table, dict) or not all(
            type(v) is int and v >= 0 for v in table.values()  # bool is an int subclass
        ):
            raise ParseError(
                f"{path}: {name!r} must be an object of non-negative integer counts"
            )
        tables[name] = table
    return NameCountsTable(**tables)


def save_name_counts(table: NameCountsTable, path: str | os.PathLike) -> None:
    doc = {
        "first": table.first,
        "last": table.last,
        "first_last": table.first_last,
        "first_initial_last": table.first_initial_last,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# block splits
# ---------------------------------------------------------------------------


def split_blocks(
    dataset: Dataset,
    seed: int,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> Dataset:
    """Assign every block to train/val/test.

    The assignment is a pure function of (sorted block keys, seed, fractions):
    keys are shuffled with a seeded generator, then sliced. Rounding leftovers
    go to train.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions {fractions} do not sum to 1")
    keys = sorted({blocking.block_key(s) for s in dataset.signatures.values()})
    if len(keys) < 3:
        raise DegenerateSplitError(
            f"need at least 3 blocks to split, found {len(keys)}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(keys))
    n = len(keys)
    n_val = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_val - n_test
    splits: dict[str, str] = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            part = "train"
        elif rank < n_train + n_val:
            part = "val"
        else:
            part = "test"
        splits[keys[idx]] = part
    return Dataset(
        papers=dataset.papers,
        signatures=dataset.signatures,
        gold=dataset.gold,
        splits=splits,
    )


# ---------------------------------------------------------------------------
# knockout augmentation
# ---------------------------------------------------------------------------


def knockout_augment(
    dataset: Dataset,
    seed: int,
    drop_probabilities: Mapping[str, float],
) -> Dataset:
    """Return a copy of the corpus with metadata randomly deleted.

    ``drop_probabilities`` maps a feature group (see KNOCKOUT_GROUPS) to the
    probability that each signature/paper independently loses that field.
    ``venue`` drops both venue and journal; ``first_name`` reduces the first
    name to its initial. The gold partition is never touched.
    """
    probs = dict(drop_probabilities)
    unknown = set(probs) - set(KNOCKOUT_GROUPS)
    if unknown:
        raise ConfigError(f"unknown knockout groups: {sorted(unknown)}")
    for group, p in probs.items():
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"knockout probability for {group!r} not in [0,1]: {p}")
    rng = np.random.Generator(np.random.PCG64(seed))

    def drop(group: str) -> bool:
        p = probs.get(group, 0.0)
        # draw unconditionally so the stream does not depend on probabilities
        return bool(rng.random() < p)

    papers: dict[str, Paper] = {}
    for pid in sorted(dataset.papers):
        p = dataset.papers[pid]
        changes: dict = {}
        if drop("abstract") and p.abstract is not None:
            changes["abstract"] = None
        if drop("venue"):
            if p.venue is not None:
                changes["venue"] = None
            if p.journal is not None:
                changes["journal"] = None
        if drop("embedding") and p.embedding is not None:
            changes["embedding"] = None
        if drop("references") and p.reference_ids:
            changes["reference_ids"] = frozenset()
        papers[pid] = dataclasses.replace(p, **changes) if changes else p

    signatures: dict[str, Signature] = {}
    for sid in sorted(dataset.signatures):
        s = dataset.signatures[sid]
        changes = {}
        if drop("affiliation") and s.affiliations:
            changes["affiliations"] = ()
        if drop("email") and s.email is not None:
            changes["email"] = None
        if drop("first_name") and s.first and len(s.first) > 1:
            changes["first"] = s.first[0]
        signatures[sid] = dataclasses.replace(s, **changes) if changes else s

    return Dataset(
        papers=papers,
        signatures=signatures,
        gold=dataset.gold,
        splits=dataset.splits,
    )
