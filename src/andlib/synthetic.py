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

Fixed in the code, since no caller varies them: communities of 8 authors,
16-dimensional embeddings, and the rates of dropped middle names, venue
noise, missing years, German-language authors and self-citations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, Paper, Partition, Signature
from .errors import ConfigError
from .settings import UNIT, Settings, integer, is_int, number, setting

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_COMMUNITY_SIZE = 8
_EMBEDDING_DIM = 16


@dataclass(frozen=True)
class GeneratorConfig(Settings):
    NOUN = "generator setting"
    DOC = "a generator config"

    n_authors: int = setting(100, integer(1))
    mean_papers: float = setting(5.0, number(1))
    collision_rate: float = setting(0.15, UNIT)
    homonym_rate: float = setting(0.4, UNIT)
    same_community_collision: float = setting(0.35, UNIT)
    variant_rate: float = setting(0.25, UNIT)
    embedding_noise: float = setting(0.8, number(0))
    affiliation_missing: float = setting(0.3, UNIT)
    email_missing: float = setting(0.55, UNIT)
    venue_missing: float = setting(0.15, UNIT)
    abstract_missing: float = setting(0.3, UNIT)
    coauthor_noise: float = setting(0.2, UNIT)
    #: fraction of venue/title/affiliation signal drawn from community-wide
    #: pools instead of the author's own; 1.0 makes same-community homonyms
    #: separable only by embeddings, co-authors, references, and email
    shared_metadata: float = setting(0.0, UNIT)


def _pick(rng: np.random.Generator, seq):
    """One uniformly drawn item of ``seq``."""
    return seq[int(rng.integers(len(seq)))]


def _word(rng: np.random.Generator, n_syllables: int) -> str:
    parts = []
    for _ in range(n_syllables):
        parts.append(_pick(rng, _CONSONANTS))
        parts.append(_pick(rng, _VOWELS))
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
    if not (is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    if cfg.collision_rate > 0 and cfg.n_authors < 2:
        raise ConfigError("name collisions require at least two authors")

    rng = np.random.Generator(np.random.PCG64(seed))
    n_communities = max(1, cfg.n_authors // _COMMUNITY_SIZE)
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
    # each community's own slice of the four pools
    topic_pools = [topic_vocab[c * 40 : (c + 1) * 40] for c in range(n_communities)]
    venue_pools = [global_venues[c * 3 : (c + 1) * 3] for c in range(n_communities)]
    institution_pools = [institutions[c * 2 : (c + 1) * 2] for c in range(n_communities)]
    ghost_pools = [ghost_pool[c * 6 : (c + 1) * 6] for c in range(n_communities)]

    # --- author identities -------------------------------------------------
    authors: list[_Author] = []
    pockets: set[tuple[str, str]] = set()
    for idx in range(cfg.n_authors):
        community = int(rng.integers(n_communities))
        collide = bool(rng.random() < cfg.collision_rate) and len(authors) > 0
        if collide:
            other = _pick(rng, authors)
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
        pockets.add((first[0], last))

        author.topic = [_pick(rng, topic_pools[community]) for _ in range(10)]
        author.institution = _pick(rng, institution_pools[community])
        author.affiliation = author.institution + f" department of {_word(rng, 2)}"
        author.email = f"{first}.{last}{idx}@u{community}.edu"
        author.venues = [_pick(rng, venue_pools[community]) for _ in range(2)]
        k_collab = int(rng.integers(2, 6))
        author.collaborators = [_pick(rng, ghost_pools[community]) for _ in range(k_collab)]
        author.centroid = rng.normal(size=_EMBEDDING_DIM)
        author.start_year = int(rng.integers(1985, 2016))
        author.span = int(rng.integers(3, 16))
        author.language = "en" if rng.random() >= 0.08 else "de"
        authors.append(author)

    # --- background papers (citation targets) ------------------------------
    papers: dict[str, Paper] = {}
    bg_ids = [f"bg{b:05d}" for b in range(3 * cfg.n_authors)]
    for pid in bg_ids:
        n_auth = int(rng.integers(1, 4))
        names = [_pick(rng, ghost_pool) for _ in range(n_auth)]
        papers[pid] = Paper(
            paper_id=pid,
            title=" ".join(_pick(rng, topic_vocab) for _ in range(5)),
            venue=_pick(rng, global_venues),
            year=int(rng.integers(1980, 2020)),
            author_names=tuple(n.title() for n in names),
        )
    for author in authors:
        author.citation_pool = [_pick(rng, bg_ids) for _ in range(8)]
    community_citations = [
        [_pick(rng, bg_ids) for _ in range(12)] for _ in range(n_communities)
    ]

    # --- papers and signatures ---------------------------------------------
    signatures: dict[str, Signature] = {}
    gold: dict[str, str] = {}
    for author in authors:
        n_papers = 1 + int(rng.poisson(max(cfg.mean_papers - 1.0, 0.0)))
        for _ in range(n_papers):
            # one signature per paper: both are numbered in order
            pid = f"p{len(signatures):05d}"

            # focal name as printed on this paper (variants create synonyms)
            first, middle = author.first, author.middle
            if rng.random() < cfg.variant_rate:
                first = first[0].upper() + "."
            else:
                first = first.title()
            if middle is not None:
                r = rng.random()
                if r < 0.5:
                    middle = None
                elif r < 0.75:
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
                    coauthors.append(_pick(rng, ghost_pool))
                else:
                    coauthors.append(_pick(rng, author.collaborators))
            coauthors = [c.title() for c in dict.fromkeys(coauthors)]
            position = int(rng.integers(1, len(coauthors) + 2))
            names = coauthors[: position - 1] + [focal_name] + coauthors[position - 1 :]

            if rng.random() < 0.15:
                venue = _pick(rng, global_venues)
            elif rng.random() < cfg.shared_metadata:
                venue = _pick(rng, venue_pools[author.community])
            else:
                venue = _pick(rng, author.venues)
            year = author.start_year + int(rng.integers(0, author.span))
            title_words = []
            for _ in range(int(rng.integers(5, 9))):
                if rng.random() >= 0.6:
                    title_words.append(_pick(rng, topic_vocab))
                elif rng.random() < cfg.shared_metadata:
                    title_words.append(_pick(rng, topic_pools[author.community]))
                else:
                    title_words.append(_pick(rng, author.topic))
            refs = set()
            for _ in range(int(rng.integers(3, 9))):
                if rng.random() < cfg.shared_metadata:
                    pool = community_citations[author.community]
                else:
                    pool = author.citation_pool
                refs.add(_pick(rng, pool))
            refs.add(_pick(rng, bg_ids))
            if author.paper_ids and rng.random() < 0.3:
                refs.add(_pick(rng, author.paper_ids))

            embedding = author.centroid + cfg.embedding_noise * rng.normal(
                size=_EMBEDDING_DIM
            )

            has_abstract = rng.random() >= cfg.abstract_missing
            has_venue = rng.random() >= cfg.venue_missing
            has_year = rng.random() >= 0.05
            papers[pid] = Paper(
                paper_id=pid,
                title=" ".join(title_words),
                abstract=(
                    f"study of {' '.join(title_words[:3])}" if has_abstract else None
                ),
                venue=venue if has_venue else None,
                year=year if has_year else None,
                author_names=tuple(names),
                reference_ids=frozenset(refs),
                language=author.language,
                embedding=tuple(float(x) for x in embedding),
            )
            author.paper_ids.append(pid)

            sid = f"s{len(signatures):05d}"
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
