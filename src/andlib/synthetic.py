"""Seeded synthetic corpus generation with a known gold partition.

Authors live in small communities that share collaborator pools and venues.
Each author gets a stable identity: name, topic vocabulary, home
affiliation, email, favorite venues, a citation pool, and an embedding
centroid. Papers inherit noisy versions of those signals, so same-author
pairs look alike across every feature family while cross-author pairs
(including same-block homonyms) differ.

Name ambiguity is injected two ways: with probability ``collision_rate`` a
new author is placed into an existing (first initial, last name) block
pocket - either with the identical full first name (a homonym that only
metadata can split) or with an incompatible full first name sharing the
initial (a trap that the cannot-link rule must keep apart). Name variants
(first name reduced to an initial, dropped middle names) create synonyms
within an author's own cluster.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .corpus import Dataset, Paper, Partition, Signature
from .errors import ConfigError

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class GeneratorConfig:
    n_authors: int = 100
    mean_papers: float = 5.0
    collision_rate: float = 0.15
    homonym_rate: float = 0.4
    same_community_collision: float = 0.35
    variant_rate: float = 0.25
    middle_drop_rate: float = 0.5
    community_size: int = 8
    embedding_dim: int = 16
    embedding_noise: float = 0.8
    affiliation_missing: float = 0.3
    email_missing: float = 0.55
    venue_missing: float = 0.15
    year_missing: float = 0.05
    abstract_missing: float = 0.3
    venue_noise: float = 0.15
    coauthor_noise: float = 0.2
    other_language_rate: float = 0.08
    self_cite_rate: float = 0.3
    #: fraction of venue/title/affiliation signal drawn from community-wide
    #: pools instead of the author's own; 1.0 makes same-community homonyms
    #: separable only by embeddings, co-authors, references, and email
    shared_metadata: float = 0.0

    def to_doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_doc(cls, doc: dict) -> "GeneratorConfig":
        """Refuse unknown names and values of the wrong type or range:
        integers where the default is one, rates in [0, 1]."""
        if not isinstance(doc, dict):
            raise ConfigError("a generator config must be a JSON object")
        known = {f.name: f.default for f in fields(cls)}
        unknown = set(doc) - set(known)
        if unknown:
            raise ConfigError(f"unknown generator settings: {sorted(unknown)}")
        for name, value in doc.items():
            integer = isinstance(known[name], int)
            is_int = isinstance(value, int) and not isinstance(value, bool)
            low, high = _SETTING_RANGES.get(name, (0, 1))
            if not (
                (is_int or (not integer and isinstance(value, float)))
                and low <= value <= high
            ):
                kind = "an integer" if integer else "a number"
                bound = f"in [{low}, {high}]" if high == 1 else f">= {low}"
                raise ConfigError(
                    f"generator setting {name!r} must be {kind} {bound}, got {value!r}"
                )
        return cls(**doc)


#: the range of each GeneratorConfig value that is not a rate in [0, 1]; a
#: float must be finite
_SETTING_RANGES = {
    "n_authors": (1, math.inf),
    "community_size": (1, math.inf),
    "embedding_dim": (0, math.inf),
    "mean_papers": (1, sys.float_info.max),
    "embedding_noise": (0, sys.float_info.max),
}


def _word(rng: np.random.Generator, n_syllables: int) -> str:
    parts = []
    for _ in range(n_syllables):
        parts.append(_CONSONANTS[rng.integers(len(_CONSONANTS))])
        parts.append(_VOWELS[rng.integers(len(_VOWELS))])
    return "".join(parts)


def _name_word(rng: np.random.Generator) -> str:
    return _word(rng, int(rng.integers(2, 4)))


@dataclass
class _Author:
    idx: int
    first: str
    middle: str | None
    last: str
    community: int
    topic: list[str] = field(default_factory=list)
    affiliation: str = ""
    institution: str = ""
    email: str | None = None
    venues: list[str] = field(default_factory=list)
    collaborators: list[str] = field(default_factory=list)
    citation_pool: list[str] = field(default_factory=list)
    centroid: np.ndarray | None = None
    start_year: int = 2000
    span: int = 10
    language: str = "en"
    paper_ids: list[str] = field(default_factory=list)


def generate_synthetic_corpus(seed: int, config: GeneratorConfig | None = None) -> Dataset:
    """Build a corpus with a known gold partition. Deterministic in seed."""
    cfg = config or GeneratorConfig()
    if cfg.n_authors < 1:
        raise ConfigError("need at least one author")
    if cfg.collision_rate > 0 and cfg.n_authors < 2:
        raise ConfigError("name collisions require at least two authors")
    if cfg.mean_papers < 1:
        raise ConfigError("mean_papers must be >= 1")
    if not 0 <= cfg.collision_rate <= 1:
        raise ConfigError("collision_rate must be in [0,1]")

    rng = np.random.Generator(np.random.PCG64(seed))
    n_communities = max(1, cfg.n_authors // cfg.community_size)
    topic_vocab = [_word(rng, 3) for _ in range(40 * n_communities)]
    global_venues = [
        f"journal of {_word(rng, 3)} {_word(rng, 2)}" for _ in range(3 * n_communities)
    ]
    institutions = [
        f"institute of {_word(rng, 3)} university of {_word(rng, 2)}"
        for _ in range(2 * n_communities)
    ]
    ghost_pool = [
        f"{_name_word(rng)} {_name_word(rng)}" for _ in range(6 * n_communities)
    ]

    # --- author identities -------------------------------------------------
    authors: list[_Author] = []
    pockets: dict[tuple[str, str], list[int]] = {}
    for idx in range(cfg.n_authors):
        community = int(rng.integers(n_communities))
        collide = bool(rng.random() < cfg.collision_rate) and len(authors) > 0
        if collide:
            other = authors[int(rng.integers(len(authors)))]
            last = other.last
            if rng.random() < cfg.same_community_collision:
                community = other.community  # homonym with similar metadata
            if rng.random() < cfg.homonym_rate:
                first = other.first
            else:
                # incompatible full first name sharing the initial
                first = _trap_first(rng, other.first)
        else:
            while True:
                first = _name_word(rng)
                last = _name_word(rng)
                if (first[0], last) not in pockets:
                    break
        middle = _name_word(rng) if rng.random() < 0.4 else None
        author = _Author(
            idx=idx,
            first=first,
            middle=middle,
            last=last,
            community=community,
        )
        pockets.setdefault((first[0], last), []).append(idx)

        topic_lo = community * 40
        author.topic = [
            topic_vocab[topic_lo + int(rng.integers(40))] for _ in range(10)
        ]
        author.institution = institutions[community * 2 + int(rng.integers(2))]
        author.affiliation = author.institution + f" department of {_word(rng, 2)}"
        author.email = f"{first}.{last}{idx}@u{community}.edu"
        v_lo = community * 3
        author.venues = [
            global_venues[v_lo + int(rng.integers(3))] for _ in range(2)
        ]
        pool_lo = community * 6
        k_collab = int(rng.integers(2, 6))
        author.collaborators = [
            ghost_pool[pool_lo + int(rng.integers(6))] for _ in range(k_collab)
        ]
        author.centroid = rng.normal(size=cfg.embedding_dim)
        author.start_year = int(rng.integers(1985, 2016))
        author.span = int(rng.integers(3, 16))
        author.language = "en" if rng.random() >= cfg.other_language_rate else "de"
        authors.append(author)

    # --- background papers (citation targets) ------------------------------
    papers: dict[str, Paper] = {}
    n_background = 3 * cfg.n_authors
    bg_ids: list[str] = []
    for b in range(n_background):
        pid = f"bg{b:05d}"
        bg_ids.append(pid)
        n_auth = int(rng.integers(1, 4))
        names = [ghost_pool[int(rng.integers(len(ghost_pool)))] for _ in range(n_auth)]
        papers[pid] = Paper(
            paper_id=pid,
            title=" ".join(
                topic_vocab[int(rng.integers(len(topic_vocab)))] for _ in range(5)
            ),
            venue=global_venues[int(rng.integers(len(global_venues)))],
            year=int(rng.integers(1980, 2020)),
            author_names=tuple(n.title() for n in names),
        )
    for author in authors:
        author.citation_pool = [
            bg_ids[int(rng.integers(n_background))] for _ in range(8)
        ]
    community_citations = [
        [bg_ids[int(rng.integers(n_background))] for _ in range(12)]
        for _ in range(n_communities)
    ]

    # --- papers and signatures ---------------------------------------------
    signatures: dict[str, Signature] = {}
    gold: dict[str, str] = {}
    sig_counter = 0
    paper_counter = 0
    for author in authors:
        n_papers = 1 + int(rng.poisson(max(cfg.mean_papers - 1.0, 0.0)))
        for _ in range(n_papers):
            pid = f"p{paper_counter:05d}"
            paper_counter += 1

            # focal name as printed on this paper (variants create synonyms)
            first, middle = author.first, author.middle
            if rng.random() < cfg.variant_rate:
                first = first[0].upper() + "."
            else:
                first = first.title()
            if middle is not None:
                r = rng.random()
                if r < cfg.middle_drop_rate:
                    middle = None
                elif r < cfg.middle_drop_rate + 0.25:
                    middle = middle[0].upper() + "."
                else:
                    middle = middle.title()
            focal_name = " ".join(
                p for p in (first, middle, author.last.title()) if p
            )

            n_co = int(rng.integers(1, 5))
            coauthors = []
            for _ in range(n_co):
                if rng.random() < cfg.coauthor_noise:
                    coauthors.append(
                        ghost_pool[int(rng.integers(len(ghost_pool)))]
                    )
                else:
                    coauthors.append(
                        author.collaborators[
                            int(rng.integers(len(author.collaborators)))
                        ]
                    )
            coauthors = [c.title() for c in dict.fromkeys(coauthors)]
            position = int(rng.integers(1, len(coauthors) + 2))
            names = coauthors[: position - 1] + [focal_name] + coauthors[position - 1 :]

            if rng.random() < cfg.venue_noise:
                venue = global_venues[int(rng.integers(len(global_venues)))]
            elif rng.random() < cfg.shared_metadata:
                v_lo = author.community * 3
                venue = global_venues[v_lo + int(rng.integers(3))]
            else:
                venue = author.venues[int(rng.integers(len(author.venues)))]
            year = author.start_year + int(rng.integers(0, author.span))
            topic_lo = author.community * 40
            title_words = []
            for _ in range(int(rng.integers(5, 9))):
                if rng.random() >= 0.6:
                    title_words.append(
                        topic_vocab[int(rng.integers(len(topic_vocab)))]
                    )
                elif rng.random() < cfg.shared_metadata:
                    title_words.append(topic_vocab[topic_lo + int(rng.integers(40))])
                else:
                    title_words.append(
                        author.topic[int(rng.integers(len(author.topic)))]
                    )
            refs = set()
            for _ in range(int(rng.integers(3, 9))):
                if rng.random() < cfg.shared_metadata:
                    pool = community_citations[author.community]
                else:
                    pool = author.citation_pool
                refs.add(pool[int(rng.integers(len(pool)))])
            refs.add(bg_ids[int(rng.integers(n_background))])
            if author.paper_ids and rng.random() < cfg.self_cite_rate:
                refs.add(author.paper_ids[int(rng.integers(len(author.paper_ids)))])

            embedding = author.centroid + cfg.embedding_noise * rng.normal(
                size=cfg.embedding_dim
            )

            has_abstract = rng.random() >= cfg.abstract_missing
            has_venue = rng.random() >= cfg.venue_missing
            has_year = rng.random() >= cfg.year_missing
            papers[pid] = Paper(
                paper_id=pid,
                title=" ".join(title_words),
                abstract=(
                    f"study of {' '.join(title_words[:3])}" if has_abstract else None
                ),
                venue=venue if has_venue else None,
                journal=None,
                year=year if has_year else None,
                author_names=tuple(names),
                reference_ids=frozenset(refs),
                language=author.language,
                embedding=tuple(float(x) for x in embedding),
            )
            author.paper_ids.append(pid)

            sid = f"s{sig_counter:05d}"
            sig_counter += 1
            has_affiliation = rng.random() >= cfg.affiliation_missing
            has_email = rng.random() >= cfg.email_missing
            shown_affiliation = (
                author.institution
                if rng.random() < cfg.shared_metadata
                else author.affiliation
            )
            signatures[sid] = Signature(
                signature_id=sid,
                paper_id=pid,
                author_position=position,
                first=first,
                middle=middle,
                last=author.last.title(),
                affiliations=(shown_affiliation,) if has_affiliation else (),
                email=author.email if has_email else None,
            )
            gold[sid] = f"a{author.idx:04d}"

    return Dataset(
        papers=papers,
        signatures=signatures,
        gold=Partition(gold),
        splits=None,
    )


def _trap_first(rng: np.random.Generator, other_first: str) -> str:
    """A full first name with the same initial but incompatible with
    other_first (neither is a prefix of the other)."""
    while True:
        candidate = other_first[0] + _name_word(rng)[1:]
        if len(candidate) < 2:
            continue
        if candidate.startswith(other_first) or other_first.startswith(candidate):
            continue
        return candidate
