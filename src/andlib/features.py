"""Pairwise features for two author-name records.

The feature vector covers name-string similarity (equality, fullness, prefix
distance, Levenshtein, longest-common-subsequence distance, Jaro-Winkler),
middle-name overlap, affiliation/venue/journal/title n-gram overlaps, email
prefix/suffix equality, co-author overlaps, year and author-position
differences, reference overlaps and mutual-citation indicators, abstract and
language counts, corpus name-count statistics, and embedding cosine
similarity.

Missing-value semantics are strict: a slot is NaN iff a required underlying
field is absent on either side; no value is silently imputed. The "nameless"
variant of the vector blanks every feature derived from the focal author's
own name surface form (co-author names are kept).

featurize_pairs is the one path from signature pairs to a feature matrix.
Each call builds the signature profiles it needs and drops them on return;
the module keeps no state between calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import blocking
from .corpus import Dataset, NameCountsTable, Signature
from .errors import IntegrityError, SchemaMismatchError

MISSING = float("nan")


# ---------------------------------------------------------------------------
# string kernels
# ---------------------------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Minimum number of insert/delete/substitute edits turning a into b."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,  # delete
                cur[j - 1] + 1,  # insert
                prev[j - 1] + (ca != cb),  # substitute
            )
        prev = cur
    return prev[-1]


def _lcs_length(a: str, b: str) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0] * (len(b) + 1)
        for j, cb in enumerate(b, start=1):
            if ca == cb:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def lcs_distance(a: str, b: str) -> float:
    """1 - |LCS| / max(len); 0 when both strings are empty."""
    m = max(len(a), len(b))
    if m == 0:
        return 0.0
    return 1.0 - _lcs_length(a, b) / m


def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity with prefix scale 0.1 and max prefix 4."""
    if a == b:
        return 1.0 if a else 0.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    a_match = [False] * la
    b_match = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_match[j] and b[j] == ca:
                a_match[i] = b_match[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(la):
        if a_match[i]:
            while not b_match[k]:
                k += 1
            if a[i] != b[k]:
                transpositions += 1
            k += 1
    transpositions //= 2
    jaro = (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def prefix_distance(a: str, b: str) -> float:
    """0 if the shorter string prefixes the longer, else
    1 - common_prefix/len(shorter). Both empty -> 0."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return 0.0
    common = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        common += 1
    return 1.0 - common / len(a)


def char_grams(text: str, lo: int, hi: int) -> frozenset[str]:
    """Union of contiguous character n-grams for n in [lo, hi], lowercased."""
    s = text.lower()
    grams: set[str] = set()
    for n in range(lo, hi + 1):
        grams.update(s[i : i + n] for i in range(len(s) - n + 1))
    return frozenset(grams)


def word_grams(text: str, lo: int, hi: int) -> frozenset[str]:
    """Union of word n-grams for n in [lo, hi], lowercased."""
    words = text.lower().split()
    grams: set[str] = set()
    for n in range(lo, hi + 1):
        grams.update(
            " ".join(words[i : i + n]) for i in range(len(words) - n + 1)
        )
    return frozenset(grams)


def set_jaccard(a: frozenset | set, b: frozenset | set) -> float:
    """|A&B| / |A|B|; NaN when both sets are empty, 0 when exactly one is."""
    if not a and not b:
        return MISSING
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def ngram_jaccard(
    a: str | Iterable[str],
    b: str | Iterable[str],
    unit: str = "char",
    n_range: tuple[int, int] = (2, 4),
) -> float:
    """Jaccard overlap of the union of n-gram sets for n in n_range.

    Accepts a string or an iterable of strings per side (iterables are
    joined with spaces first, as the featurizer does for affiliation
    lists). Empty-vs-empty gram sets yield NaN, empty-vs-nonempty yields 0.
    """
    lo, hi = n_range
    if lo < 1 or lo > hi:
        raise ValueError(f"bad n-gram range {n_range}")
    if unit not in ("char", "word"):
        raise ValueError(f"unit must be 'char' or 'word', got {unit!r}")
    extract = char_grams if unit == "char" else word_grams

    def grams(side) -> frozenset[str]:
        text = side if isinstance(side, str) else " ".join(side)
        return extract(text, lo, hi)

    return set_jaccard(grams(a), grams(b))


# ---------------------------------------------------------------------------
# feature schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    group: str
    monotone: int  # +1 raises score, -1 lowers, 0 unconstrained
    nameless: bool = False


@dataclass(frozen=True)
class FeatureSchema:
    """Published ordering, monotonicity hints, and nameless flags."""

    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in schema")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def monotone_constraints(self) -> tuple[int, ...]:
        return tuple(f.monotone for f in self.features)

    def nameless_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.features) if f.nameless)

    def groups(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for f in self.features:
            out.setdefault(f.group, []).append(f.name)
        return {g: tuple(names) for g, names in out.items()}

    def drop(self, names: Iterable[str]) -> "FeatureSchema":
        gone = set(names)
        unknown = gone - set(self.names)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        return FeatureSchema(tuple(f for f in self.features if f.name not in gone))

    @property
    def schema_hash(self) -> str:
        doc = [[f.name, f.group, f.monotone, f.nameless] for f in self.features]
        blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        return hashlib.sha1(blob).hexdigest()


_N = True  # nameless flag, for table readability

_DEFAULT_FEATURES = (
    FeatureSpec("first_equal", "first_name", +1, _N),
    FeatureSpec("first_fullness", "first_name", 0, _N),
    FeatureSpec("first_prefix_dist", "first_name", -1, _N),
    FeatureSpec("first_levenshtein", "first_name", -1, _N),
    FeatureSpec("first_lcs_dist", "first_name", -1, _N),
    FeatureSpec("first_jaro_winkler", "first_name", +1, _N),
    FeatureSpec("middle_equal", "middle_name", +1, _N),
    FeatureSpec("middle_initials_jaccard", "middle_name", +1, _N),
    FeatureSpec("middle_presence_count", "middle_name", 0, _N),
    FeatureSpec("middle_fullness", "middle_name", 0, _N),
    FeatureSpec("affiliation_word_jaccard", "affiliation", +1),
    FeatureSpec("email_prefix_equal", "email", +1),
    FeatureSpec("email_suffix_equal", "email", +1),
    FeatureSpec("coauthor_key_jaccard", "coauthors", +1),
    FeatureSpec("coauthor_name_jaccard", "coauthors", +1),
    FeatureSpec("coauthor_char_jaccard", "coauthors", +1),
    FeatureSpec("venue_char_jaccard", "venue", +1),
    FeatureSpec("year_diff", "year", -1),
    FeatureSpec("title_word_jaccard", "title", +1),
    FeatureSpec("title_char_jaccard", "title", +1),
    FeatureSpec("ref_author_char_jaccard", "references", +1),
    FeatureSpec("ref_title_char_jaccard", "references", +1),
    FeatureSpec("ref_venue_char_jaccard", "references", +1),
    FeatureSpec("ref_key_char_jaccard", "references", +1),
    FeatureSpec("cite_each_other", "references", +1),
    FeatureSpec("ref_cocitation_jaccard", "references", +1),
    FeatureSpec("position_diff", "position", -1),
    FeatureSpec("abstract_count", "abstract", 0),
    FeatureSpec("english_count", "language", 0),
    FeatureSpec("same_language", "language", +1),
    FeatureSpec("language_count", "language", 0),
    FeatureSpec("min_first_count", "name_counts", -1, _N),
    FeatureSpec("min_first_last_count", "name_counts", -1, _N),
    FeatureSpec("min_last_count", "name_counts", -1, _N),
    FeatureSpec("min_initial_last_count", "name_counts", -1, _N),
    FeatureSpec("max_first_count", "name_counts", 0, _N),
    FeatureSpec("max_first_last_count", "name_counts", 0, _N),
    FeatureSpec("embedding_cosine", "embedding", +1),
    FeatureSpec("journal_char_jaccard", "journal", +1),
)

#: the four string-metric first-name features, droppable as one ablation axis
ADVANCED_NAME_FEATURES = (
    "first_prefix_dist",
    "first_levenshtein",
    "first_lcs_dist",
    "first_jaro_winkler",
)


def default_schema() -> FeatureSchema:
    return FeatureSchema(_DEFAULT_FEATURES)


# ---------------------------------------------------------------------------
# signature profiles
# ---------------------------------------------------------------------------


class SignatureProfile:
    """Precomputed per-signature view used by featurize_pairs.

    Everything string-shaped is normalized and reduced to gram/key sets once
    so pair featurization is mostly set intersections.
    """

    __slots__ = (
        "sig_id",
        "paper_id",
        "name",
        "full_name",
        "coauthor_keys",
        "coauthor_names",
        "coauthor_grams",
        "affiliation_grams",
        "email_prefix",
        "email_suffix",
        "venue_grams",
        "journal_grams",
        "title_word_g",
        "title_char_g",
        "year",
        "position",
        "has_abstract",
        "language",
        "ref_ids",
        "ref_author_grams",
        "ref_title_grams",
        "ref_venue_grams",
        "ref_key_grams",
        "embedding",
        "count_keys",
    )

    def __init__(self, sig: Signature, dataset: Dataset):
        paper = dataset.papers.get(sig.paper_id)
        if paper is None:
            raise IntegrityError(
                f"signature {sig.signature_id!r} references missing paper"
            )
        self.sig_id = sig.signature_id
        self.paper_id = sig.paper_id
        name = blocking.normalize_name(sig.first, sig.middle, sig.last)
        self.name = name
        self.full_name = name.full

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
        self.coauthor_keys = frozenset(keys)
        self.coauthor_names = frozenset(names)
        self.coauthor_grams = char_grams(" ".join(joined), 2, 4) if joined else frozenset()

        self.affiliation_grams = (
            word_grams(blocking.fold_text(" ".join(sig.affiliations)), 1, 3)
            if sig.affiliations
            else None
        )

        if sig.email and "@" in sig.email:
            prefix, _, suffix = sig.email.lower().partition("@")
            self.email_prefix, self.email_suffix = prefix, suffix
        elif sig.email:
            self.email_prefix, self.email_suffix = sig.email.lower(), ""
        else:
            self.email_prefix = self.email_suffix = None

        self.venue_grams = char_grams(paper.venue, 2, 4) if paper.venue else None
        self.journal_grams = char_grams(paper.journal, 2, 4) if paper.journal else None
        title = paper.title or ""
        self.title_word_g = word_grams(title, 1, 3) if title else None
        self.title_char_g = char_grams(title, 2, 4) if title else None
        self.year = paper.year
        self.position = sig.author_position
        self.has_abstract = bool(paper.abstract)
        self.language = paper.language.lower() if paper.language else None

        self.ref_ids = paper.reference_ids
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
            self.ref_author_grams = char_grams(" ".join(authors), 2, 4)
            self.ref_title_grams = char_grams(" ".join(titles), 2, 4)
            self.ref_venue_grams = char_grams(" ".join(venues), 2, 4)
            self.ref_key_grams = char_grams(" ".join(ref_keys), 2, 4)
        else:
            self.ref_author_grams = None
            self.ref_title_grams = None
            self.ref_venue_grams = None
            self.ref_key_grams = None

        if paper.embedding is not None:
            vec = np.asarray(paper.embedding, dtype=np.float64)
            norm = float(np.linalg.norm(vec))
            self.embedding = vec / norm if norm > 0 else None
        else:
            self.embedding = None

        first, last = name.first, name.last
        self.count_keys = {
            "first": first or None,
            "last": last,
            "first_last": f"{first} {last}" if first else None,
            "first_initial_last": f"{name.first_initial} {last}" if first else None,
        }


class ProfileIndex:
    """SignatureProfile objects of one dataset, built on first use.

    Each featurize_pairs call owns one index and drops it on return, so no
    profile outlives the call that built it.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._profiles: dict[str, SignatureProfile] = {}

    def get(self, sig: Signature) -> SignatureProfile:
        prof = self._profiles.get(sig.signature_id)
        if prof is None:
            prof = SignatureProfile(sig, self._dataset)
            self._profiles[sig.signature_id] = prof
        return prof

    def pair_values(
        self, pa: SignatureProfile, pb: SignatureProfile, counts: NameCountsTable
    ) -> dict[str, float]:
        """Schema-independent feature values for one pair."""
        return _compute_features(pa, pb, counts)


# ---------------------------------------------------------------------------
# pair featurization
# ---------------------------------------------------------------------------


def _equal01(a, b) -> float:
    if a is None or b is None:
        return MISSING
    return 1.0 if a == b else 0.0


def _fullness(a: str, b: str) -> float:
    """1 if both names are full (length > 1), 0.5 if one, 0 if neither."""
    return ((len(a) > 1) + (len(b) > 1)) / 2.0


def _middle_initials(middle: str) -> frozenset[str]:
    return frozenset(tok[0] for tok in middle.split())


def _compute_features(
    pa: SignatureProfile,
    pb: SignatureProfile,
    counts: NameCountsTable,
) -> dict[str, float]:
    out: dict[str, float] = {}

    fa, fb = pa.name.first, pb.name.first
    if fa and fb:
        out["first_equal"] = 1.0 if fa == fb else 0.0
        out["first_fullness"] = _fullness(fa, fb)
        out["first_prefix_dist"] = prefix_distance(fa, fb)
        out["first_levenshtein"] = float(levenshtein(fa, fb))
        out["first_lcs_dist"] = lcs_distance(fa, fb)
        out["first_jaro_winkler"] = jaro_winkler(fa, fb)
    else:
        for name in (
            "first_equal",
            "first_fullness",
            "first_prefix_dist",
            "first_levenshtein",
            "first_lcs_dist",
            "first_jaro_winkler",
        ):
            out[name] = MISSING

    ma, mb = pa.name.middle, pb.name.middle
    out["middle_presence_count"] = float(bool(ma) + bool(mb))
    if ma and mb:
        out["middle_equal"] = 1.0 if ma == mb else 0.0
        out["middle_initials_jaccard"] = set_jaccard(
            _middle_initials(ma), _middle_initials(mb)
        )
        full_a = any(len(t) > 1 for t in ma.split())
        full_b = any(len(t) > 1 for t in mb.split())
        out["middle_fullness"] = (full_a + full_b) / 2.0
    else:
        out["middle_equal"] = MISSING
        out["middle_initials_jaccard"] = MISSING
        out["middle_fullness"] = MISSING

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

    for feat, key, agg in (
        ("min_first_count", "first", min),
        ("min_first_last_count", "first_last", min),
        ("min_last_count", "last", min),
        ("min_initial_last_count", "first_initial_last", min),
        ("max_first_count", "first", max),
        ("max_first_last_count", "first_last", max),
    ):
        getter = {
            "first": counts.get_first,
            "last": counts.get_last,
            "first_last": counts.get_first_last,
            "first_initial_last": counts.get_first_initial_last,
        }[key]
        ca = getter(pa.count_keys[key])
        cb = getter(pb.count_keys[key])
        out[feat] = float(agg(ca, cb)) if ca is not None and cb is not None else MISSING

    if pa.embedding is not None and pb.embedding is not None:
        out["embedding_cosine"] = float(np.dot(pa.embedding, pb.embedding))
    else:
        out["embedding_cosine"] = MISSING

    return out


def _select(values: dict[str, float], schema: FeatureSchema) -> np.ndarray:
    try:
        return np.array([values[name] for name in schema.names], dtype=np.float64)
    except KeyError as exc:
        raise SchemaMismatchError(f"schema requests unknown feature {exc}") from exc


def featurize_pair(
    s1: Signature,
    s2: Signature,
    dataset: Dataset,
    counts: NameCountsTable,
    schema: FeatureSchema,
) -> np.ndarray:
    """Compute the feature vector for one signature pair, in schema order."""
    return featurize_pairs([(s1, s2)], dataset, counts, schema)[0]


def featurize_pairs(
    pairs: Sequence[tuple[Signature, Signature]],
    dataset: Dataset,
    counts: NameCountsTable,
    schema: FeatureSchema,
) -> np.ndarray:
    """Feature matrix (n_pairs, n_features) in schema order for many pairs
    of one dataset. Profiles are built for this call only."""
    index = ProfileIndex(dataset)
    rows = np.empty((len(pairs), len(schema)), dtype=np.float64)
    for i, (s1, s2) in enumerate(pairs):
        rows[i] = _select(
            index.pair_values(index.get(s1), index.get(s2), counts), schema
        )
    return rows


def mask_nameless(v: np.ndarray, schema: FeatureSchema) -> np.ndarray:
    """Blank every feature derived from the focal author's own name."""
    if v.shape[-1] != len(schema):
        raise SchemaMismatchError(
            f"vector has {v.shape[-1]} slots, schema has {len(schema)}"
        )
    out = np.array(v, dtype=np.float64, copy=True)
    idx = list(schema.nameless_indices())
    out[..., idx] = MISSING
    return out
