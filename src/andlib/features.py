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
It takes pairs as two index arrays into a signature list, treats each call
as one group, and builds that group's signature profiles for the call only;
the module keeps no state between calls. Every feature is computed
column-wise over the group's distinct signatures. Only the 13 set-overlap
Jaccards have two kernels: a dense group gets each family from one Gram
product of 0/1 gram indicators, a sparse one from set intersections pair by
pair. Both give the same bytes as the per-pair reference in the tests.
"""

from __future__ import annotations

import hashlib
import itertools
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
        "paper_id",
        "name",
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
        self.paper_id = sig.paper_id
        self.name = name = sig.name

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
    """The per-pair set overlaps of sparse featurize_pairs calls.

    It holds no state. It stays a class with a method, and _compute_features
    a module function, because perfbench/spans.py times both by patching
    them by name; both can go once runs write their own stats (ROADMAP
    item 1).
    """

    def pair_values(self, pa: SignatureProfile, pb: SignatureProfile) -> tuple[float, ...]:
        """The _SET_FEATURES values of one pair, in that order."""
        return _compute_features(pa, pb)


# ---------------------------------------------------------------------------
# pair featurization
# ---------------------------------------------------------------------------


def _fullness(a: str, b: str) -> float:
    """1 if both names are full (length > 1), 0.5 if one, 0 if neither."""
    return ((len(a) > 1) + (len(b) > 1)) / 2.0


def _middle_initials(middle: str) -> frozenset[str]:
    return frozenset(tok[0] for tok in middle.split())


_NAME_FEATURES = (
    "first_equal",
    "first_fullness",
    "first_prefix_dist",
    "first_levenshtein",
    "first_lcs_dist",
    "first_jaro_winkler",
    "middle_presence_count",
    "middle_equal",
    "middle_initials_jaccard",
    "middle_fullness",
)


def _name_features(fa: str, ma: str, fb: str, mb: str) -> tuple[float, ...]:
    """The _NAME_FEATURES values of two (first, middle) normalized names."""
    if fa and fb:
        first = (
            1.0 if fa == fb else 0.0,
            _fullness(fa, fb),
            prefix_distance(fa, fb),
            float(levenshtein(fa, fb)),
            lcs_distance(fa, fb),
            jaro_winkler(fa, fb),
        )
    else:
        first = (MISSING,) * 6
    presence = float(bool(ma) + bool(mb))
    if ma and mb:
        full_a = any(len(t) > 1 for t in ma.split())
        full_b = any(len(t) > 1 for t in mb.split())
        middle = (
            1.0 if ma == mb else 0.0,
            set_jaccard(_middle_initials(ma), _middle_initials(mb)),
            (full_a + full_b) / 2.0,
        )
    else:
        middle = (MISSING,) * 3
    return (*first, presence, *middle)


_COUNT_FEATURES = (
    ("min_first_count", "first", min),
    ("min_first_last_count", "first_last", min),
    ("min_last_count", "last", min),
    ("min_initial_last_count", "first_initial_last", min),
    ("max_first_count", "first", max),
    ("max_first_last_count", "first_last", max),
)

#: the NameCountsTable lookup of each SignatureProfile.count_keys entry
_COUNT_GETTERS = {
    "first": "get_first",
    "last": "get_last",
    "first_last": "get_first_last",
    "first_initial_last": "get_first_initial_last",
}

#: every set-valued Jaccard feature and the profile field it compares; a
#: field that is None on either side makes the feature missing
_SET_FEATURES = (
    ("coauthor_key_jaccard", "coauthor_keys"),
    ("coauthor_name_jaccard", "coauthor_names"),
    ("coauthor_char_jaccard", "coauthor_grams"),
    ("affiliation_word_jaccard", "affiliation_grams"),
    ("venue_char_jaccard", "venue_grams"),
    ("journal_char_jaccard", "journal_grams"),
    ("title_word_jaccard", "title_word_g"),
    ("title_char_jaccard", "title_char_g"),
    ("ref_author_char_jaccard", "ref_author_grams"),
    ("ref_title_char_jaccard", "ref_title_grams"),
    ("ref_venue_char_jaccard", "ref_venue_grams"),
    ("ref_key_char_jaccard", "ref_key_grams"),
    ("ref_cocitation_jaccard", "ref_ids"),
)


def _compute_features(pa: SignatureProfile, pb: SignatureProfile) -> tuple[float, ...]:
    """The _SET_FEATURES values of one pair, set by set: the set overlaps of
    sparse featurize_pairs calls."""
    out = []
    for _, attr in _SET_FEATURES:
        x, y = getattr(pa, attr), getattr(pb, attr)
        out.append(MISSING if x is None or y is None else set_jaccard(x, y))
    return tuple(out)


def featurize_pair(
    s1: Signature,
    s2: Signature,
    dataset: Dataset,
    counts: NameCountsTable,
    schema: FeatureSchema,
) -> np.ndarray:
    """Compute the feature vector for one signature pair, in schema order."""
    return featurize_pairs([s1, s2], [0], [1], dataset, counts, schema)[0]


def featurize_pairs(
    sigs: Sequence[Signature],
    a: Sequence[int] | np.ndarray,
    b: Sequence[int] | np.ndarray,
    dataset: Dataset,
    counts: NameCountsTable,
    schema: FeatureSchema,
) -> np.ndarray:
    """Feature matrix (n_pairs, n_features) in schema order for the pairs
    (``sigs[a[i]]``, ``sigs[b[i]]``) of one dataset.

    Every feature is computed column-wise over the call's distinct signature
    indices (_feature_columns). Only the _SET_FEATURES Jaccards have two
    kernels: Gram products over interned gram ids when the call holds at
    least DENSE_PAIRS_PER_SIG pairs per distinct signature index, else set
    intersections pair by pair (ProfileIndex.pair_values); both give the
    same bytes. Profiles live for one call only, so a caller that knows the
    blocks calls once per block.
    """
    unknown = [name for name in schema.names if name not in _FEATURE_NAMES]
    if unknown:
        raise SchemaMismatchError(f"schema requests unknown features {unknown}")
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    X = np.empty((len(a), len(schema)), dtype=np.float64)
    if not len(a):
        return X
    slots, local = np.unique(np.concatenate([a, b]), return_inverse=True)
    dense = len(a) >= DENSE_PAIRS_PER_SIG * len(slots)
    column = {name: j for j, name in enumerate(schema.names)}
    group = [sigs[i] for i in slots.tolist()]
    for name, values in _feature_columns(group, *np.split(local, 2), dataset, counts, dense):
        if name in column:
            X[:, column[name]] = values
    return X


# ---------------------------------------------------------------------------
# column-wise featurization
# ---------------------------------------------------------------------------

# A featurize_pairs call takes its set overlaps from Gram products once it
# holds at least this many pairs per distinct signature, and pair by pair
# below that. A block of n signatures scored whole has (n - 1) / 2 pairs per
# signature. Measured on all pairs of n signatures drawn from one block of the
# bench's train or cluster-giant corpus (2-vCPU machine, best of 7 runs per
# kernel, median over 7 draws per n), pair-by-pair time over Gram-product
# time was 0.81 at n = 8, 0.88-0.89 at 10, 0.99 at 12, 1.04-1.06 at 14,
# 1.10-1.13 at 16, 1.7-1.8 at 32 and 3.1 at 64: the kernels tie near 5.5
# pairs per signature.
DENSE_PAIRS_PER_SIG = 6.0

# Bytes of scratch one column-wise product holds at once: the 0/1 float32
# indicator of a Gram product, or the float64 embedding rows of a batch of
# pairs.
GRAM_CHUNK_BYTES = 1 << 22

# Rows of a Gram product's indicator are padded with zeros to a multiple of
# this. numpy's OpenBLAS splits a product among threads, and on a 2-vCPU
# machine a product of 24 to 38 rows often left the calling thread waiting
# 8-120 ms for the other (one product took 16 ms where it needs 0.05 ms);
# in a scan of 11 to 257 rows and 300 to 10,000 columns no padded product
# stalled, and the padded scan took less time in total (440 vs 532 ms).
GRAM_ROW_ALIGN = 64

_FEATURE_NAMES = frozenset(f.name for f in _DEFAULT_FEATURES)


class _GramFamily:
    """One set-valued profile field of a group's signatures, held as int
    gram ids against a vocabulary of the group's own."""

    def __init__(self):
        self.vocab: dict = {}
        self._next_id = itertools.count()
        self.ids: list[int] = []
        self.sizes: list[int] = []
        self.present: list[bool] = []

    def add(self, values: frozenset | None) -> None:
        """Append the next signature's set; None marks the field missing."""
        self.present.append(values is not None)
        self.sizes.append(len(values) if values is not None else 0)
        if values:
            # setdefault gives a new gram the next counter value and an old
            # one its id, all in C; the values an old gram skips leave gaps
            self.ids.extend(map(self.vocab.setdefault, values, self._next_id))

    def intersections(self) -> np.ndarray:
        """(S, S) float32 |A & B| over the group's S signatures.

        Sums of 0/1 products stay exact in float32 below 2**24, so the
        counts are exact integers whatever order the product adds in.
        """
        n = len(self.sizes)
        ids = np.asarray(self.ids, dtype=np.int64)
        # a gram only one signature holds adds to that signature's own
        # diagonal alone, which is its set size: drop its column
        shared = np.bincount(ids, minlength=1) > 1
        keep = shared[ids]
        cols = (np.cumsum(shared) - 1)[ids[keep]]
        owners = np.repeat(np.arange(n), self.sizes)[keep]
        order = np.argsort(cols, kind="stable")
        cols, owners = cols[order], owners[order]
        n_cols = int(np.count_nonzero(shared))
        # zero rows up to a multiple of GRAM_ROW_ALIGN, which add nothing
        rows = -(-n // GRAM_ROW_ALIGN) * GRAM_ROW_ALIGN
        width = max(1, GRAM_CHUNK_BYTES // (4 * rows))
        inter = np.zeros((rows, rows), dtype=np.float32)
        for lo in range(0, n_cols, width):
            hi = min(lo + width, n_cols)
            a, b = np.searchsorted(cols, (lo, hi))
            M = np.zeros((rows, hi - lo), dtype=np.float32)
            M[owners[a:b], cols[a:b] - lo] = 1.0
            inter += M @ M.T
        inter = inter[:n, :n]
        np.fill_diagonal(inter, self.sizes)
        return inter

    def jaccard(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """set_jaccard of the pairs (a[i], b[i]), missing where either
        field is None."""
        inter = self.intersections()[a, b].astype(np.float64)
        sizes = np.asarray(self.sizes, dtype=np.float64)
        union = sizes[a] + sizes[b] - inter
        present = np.asarray(self.present)
        defined = (union > 0) & present[a] & present[b]
        out = np.full(len(a), MISSING)
        np.divide(inter, union, out=out, where=defined)
        return out


def _intern(values: Sequence) -> tuple[np.ndarray, list]:
    """Each value's id in first-seen order (-1 for None), and the distinct
    values."""
    ids: dict = {}
    codes = [-1 if v is None else ids.setdefault(v, len(ids)) for v in values]
    return np.array(codes, dtype=np.int64), list(ids)


def _equal(codes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 where two interned values are equal, 0 where not, missing where
    either is None."""
    out = (codes[a] == codes[b]).astype(np.float64)
    out[(codes[a] < 0) | (codes[b] < 0)] = MISSING
    return out


def _cosines(embeddings: list, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the unit vectors of the pairs (a[i], b[i]), missing
    where either is None."""
    has = np.array([e is not None for e in embeddings])
    out = np.full(len(a), MISSING)
    both = np.flatnonzero(has[a] & has[b])
    if not len(both):
        return out
    present = [e for e in embeddings if e is not None]
    vectors = np.zeros((len(embeddings), len(present[0])))
    vectors[has] = present
    step = max(1, GRAM_CHUNK_BYTES // (8 * vectors.shape[1]))
    for lo in range(0, len(both), step):
        rows = both[lo : lo + step]
        # numpy multiplies a stack of (1, d) @ (d, 1) matrices with the dot
        # kernel np.dot runs on two vectors, so each value has its bytes
        out[rows] = np.matmul(vectors[a[rows], None, :], vectors[b[rows], :, None])[:, 0, 0]
    return out


def _feature_columns(
    sigs: Sequence[Signature],
    a: np.ndarray,
    b: np.ndarray,
    dataset: Dataset,
    counts: NameCountsTable,
    dense: bool,
):
    """Yield (feature name, column) for every feature of the pairs
    (``sigs[a[i]]``, ``sigs[b[i]]``) of distinct signatures ``sigs``.

    Each signature's profile is built once and reduced to scalars. When
    ``dense``, it is also reduced to gram ids and dropped, and each set
    family's intersection counts come from one Gram product over the
    signatures; otherwise the profiles stay for ProfileIndex.pair_values.
    The name kernels run once per distinct ordered (first, middle) name
    pair.
    """
    families = {attr: _GramFamily() for _, attr in _SET_FEATURES} if dense else {}
    profiles: list[SignatureProfile] = []
    names, prefixes, suffixes, languages, papers, refs, embeddings = ([] for _ in range(7))
    years, positions, abstracts = [], [], []
    name_counts: dict[str, list] = {key: [] for key in _COUNT_GETTERS}
    for sig in sigs:
        prof = SignatureProfile(sig, dataset)
        for attr, family in families.items():
            family.add(getattr(prof, attr))
        if not dense:
            profiles.append(prof)
        names.append((prof.name.first, prof.name.middle))
        prefixes.append(prof.email_prefix)
        suffixes.append(prof.email_suffix)
        languages.append(prof.language)
        papers.append(prof.paper_id)
        refs.append(prof.ref_ids)
        embeddings.append(prof.embedding)
        years.append(MISSING if prof.year is None else prof.year)
        positions.append(prof.position)
        abstracts.append(prof.has_abstract)
        for key, getter in _COUNT_GETTERS.items():
            c = getattr(counts, getter)(prof.count_keys[key])
            name_counts[key].append(MISSING if c is None else c)

    if dense:
        for feature, attr in _SET_FEATURES:
            yield feature, families[attr].jaccard(a, b)
    else:
        index = ProfileIndex()
        overlaps = np.array(
            [index.pair_values(profiles[j], profiles[k]) for j, k in zip(a.tolist(), b.tolist())],
            dtype=np.float64,
        )
        for j, (feature, _) in enumerate(_SET_FEATURES):
            yield feature, overlaps[:, j]

    paper, distinct = _intern(papers)
    span = len(distinct)
    paper_id = dict(zip(distinct, range(span)))
    # slot * span + paper id of every (citing slot, cited paper of the group)
    cites = [
        s * span + paper_id[p] for s, cited in enumerate(refs) for p in cited & paper_id.keys()
    ]
    a_cites_b = np.isin(a * span + paper[b], cites)
    b_cites_a = np.isin(b * span + paper[a], cites)
    yield "cite_each_other", (a_cites_b | b_cites_a).astype(np.float64)

    name_ids, distinct = _intern(names)
    code = name_ids[a] * len(distinct) + name_ids[b]
    uniq, inverse = np.unique(code, return_inverse=True)
    table = np.array(
        [
            _name_features(*distinct[c // len(distinct)], *distinct[c % len(distinct)])
            for c in uniq.tolist()
        ],
        dtype=np.float64,
    )
    for j, feature in enumerate(_NAME_FEATURES):
        yield feature, table[inverse, j]

    yield "email_prefix_equal", _equal(_intern(prefixes)[0], a, b)
    yield "email_suffix_equal", _equal(_intern(suffixes)[0], a, b)
    lang, _ = _intern(languages)
    yield "same_language", _equal(lang, a, b)
    yield "language_count", ((lang[a] >= 0).astype(np.float64) + (lang[b] >= 0))
    english = np.array([lg == "en" for lg in languages], dtype=np.float64)
    yield "english_count", english[a] + english[b]
    has_abstract = np.array(abstracts, dtype=np.float64)
    yield "abstract_count", has_abstract[a] + has_abstract[b]
    position = np.array(positions, dtype=np.int64)
    yield "position_diff", np.abs(position[a] - position[b]).astype(np.float64)
    year = np.array(years, dtype=np.float64)  # a missing year propagates NaN
    yield "year_diff", np.abs(year[a] - year[b])
    for feature, key, agg in _COUNT_FEATURES:
        c = np.array(name_counts[key], dtype=np.float64)
        yield feature, (np.minimum if agg is min else np.maximum)(c[a], c[b])
    yield "embedding_cosine", _cosines(embeddings, a, b)


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
