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

A PreparedBlock is the one path from signature pairs to a feature matrix.
It is built once for a block's distinct signatures (the per-signature arrays
_feature_columns reads, and the packed gram rows of their profiles), and
then featurizes any band of the block's pairs, given as two index arrays,
as often as needed; cluster.distance_matrices featurizes and scores pairs in
bands of at most cluster.SCORE_BATCH_PAIRS rows. featurize_pairs prepares
one call's signatures and featurizes all its pairs as one band. Every
feature is computed column-wise over the distinct signatures. The 13
set-valued fields of a profile are integer gram ids; each family is packed
into one row of uint64 bits per signature, over the grams two or more
signatures hold, and a pair's intersection is the popcount of its two rows
ANDed, an exact integer. A PaperGrams table, which the scoring call that
owns it passes to each block, n-grams each cited paper once; the module
keeps no state between calls. The bytes equal those of the string-set
reference in the tests, whatever the string hash seed.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

try:  # CPython's built-in SHA-1; hashlib's loads OpenSSL's libcrypto
    from _sha1 import sha1 as _sha1
except ImportError:  # an interpreter built without it
    from hashlib import sha1 as _sha1

from . import blocking
from .corpus import Dataset, NameCountsTable, Paper, Signature
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
    """Union of contiguous character n-grams for n in [lo, hi], lo >= 1,
    lowercased."""
    return frozenset(_substrings(text.lower(), lo, hi))


def _substrings(s: str, lo: int, hi: int) -> set[str]:
    """Union of contiguous substrings of s of length lo >= 1 to hi."""
    level = list(s)  # the substrings of length n, by start
    grams: set[str] = set(level) if lo <= 1 <= hi else set()
    for n in range(2, hi + 1):
        # each substring grown by the character after it, all in C
        level = list(map(operator.add, level, s[n - 1 :]))
        if n >= lo:
            grams.update(level)
    return grams


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
        """SHA-1 of the compact JSON feature list. It is the digest of
        ``hashlib.sha1``, taken with CPython's built-in ``_sha1`` where there
        is one, so that loading a model does not map OpenSSL's libcrypto
        (3.5 MB resident) into ``cluster`` and ``eval`` for a 2 kB blob."""
        doc = [[f.name, f.group, f.monotone, f.nameless] for f in self.features]
        blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        return _sha1(blob).hexdigest()


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
# gram ids
# ---------------------------------------------------------------------------


def _author_key(folded: str) -> str:
    """First initial and last token of a folded author name."""
    parts = folded.split()
    return f"{parts[0][0] if len(parts) > 1 else blocking.EMPTY_INITIAL} {parts[-1]}"


#: (n, k) of every n-gram, n in 2..4, that holds a joining space at its
#: offset k
_CROSSING = tuple((n, k) for n in (2, 3, 4) for k in range(n))


class Vocabulary:
    """Integer ids for strings, in first-seen order, as int32 arrays.

    Ids depend on set iteration order, and so on the string hash seed, but
    only equal and distinct ids are ever compared, so no result does.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}

    def intern(self, values: frozenset[str] | set[str]) -> np.ndarray:
        """The ids of a set of strings, in its iteration order; a string seen
        for the first time gets the next id."""
        ids = self._ids
        new = values.difference(ids)
        if new:
            ids.update(zip(new, range(len(ids), len(ids) + len(new))))
        return np.fromiter(map(ids.__getitem__, values), dtype=np.int32, count=len(values))


class PaperGrams:
    """The reference n-grams of one scoring call.

    Each cited paper's four reference texts are folded and n-grammed once,
    on the first request, into ids of the table's Vocabulary: the join of
    its author names, its title, the join of its venue and journal, and the
    join of its author keys. A scoring call (cluster.distance_matrices,
    model.sample_pairs) owns one table and passes it to each featurize_pairs
    call; ids mean nothing outside the table that gave them.
    """

    def __init__(self, dataset: Dataset):
        self.papers = dataset.papers
        self.vocab = Vocabulary()
        self._cited: dict[str, tuple] = {}

    def references(self, ref_ids: frozenset[str]) -> list[list[np.ndarray]]:
        """The four ref_* families of a paper citing ``ref_ids``, each as id
        arrays whose union is its set.

        Each set is char_grams(" ".join(texts), 2, 4) over the texts of the
        cited papers in id order (a cited paper missing from the corpus adds
        nothing): each text's own grams, plus the grams that cross a joining
        space. For a space at index p of the lowered join J, those are
        J[i:i+n] for n in 2..4 and p-n+1 <= i <= p, clipped to J. Lowercasing
        a text alone gives its part of the lowered join, because str.lower's
        one context rule (final sigma) never looks past a space.
        """
        cited = [self._texts(rid) for rid in sorted(ref_ids) if rid in self.papers]
        out = []
        for t in range(4):
            parts = [(edges[t], ids[ends[t] : ends[t + 1]]) for edges, ids, ends in cited if edges[t]]
            family = [ids for _, ids in parts]
            if len(parts) > 1:
                joined = " ".join(edge for edge, _ in parts)
                end = len(joined)
                # the index of each joining space
                spaces = [q - 1 for q in itertools.accumulate(len(e) + 1 for e, _ in parts[:-1])]
                crossing = {
                    joined[p - k : p - k + n]
                    for p in spaces
                    for n, k in _CROSSING
                    if k <= p and p - k + n <= end
                }
                family.append(self.vocab.intern(crossing))
            out.append(family)
        return out

    def _texts(self, paper_id: str) -> tuple:
        """A cited paper's four reference texts as (edges, ids, ends): text
        t's gram ids are ids[ends[t]:ends[t + 1]], and edges[t] is its edge,
        or "" for an empty text.

        A gram that crosses a joining space reaches at most three characters
        into the texts on either side, so a lowered text of more than seven
        characters keeps only its first four and last three as its edge (the
        fourth is never reached).
        """
        entry = self._cited.get(paper_id)
        if entry is None:
            paper = self.papers[paper_id]
            authors = [f for f in map(blocking.fold_text, paper.author_names) if f]
            venues = [v for v in (paper.venue, paper.journal) if v]
            lows = [
                text.lower() if text else ""
                for text in (
                    " ".join(authors),
                    paper.title,
                    " ".join(venues),
                    " ".join(map(_author_key, authors)),
                )
            ]
            ids = [self.vocab.intern(_substrings(low, 2, 4)) for low in lows]
            entry = self._cited[paper_id] = (
                tuple(low if len(low) <= 7 else low[:4] + low[-3:] for low in lows),
                np.concatenate(ids),
                (0, *itertools.accumulate(map(len, ids))),
            )
        return entry


# ---------------------------------------------------------------------------
# signature profiles
# ---------------------------------------------------------------------------


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
    ("ref_cocitation_jaccard", "cited_ids"),
)


class SignatureProfile:
    """One signature's set-valued fields (the _SET_FEATURES families), as a
    ProfileIndex reads them.

    Each family is a list of integer id arrays whose union is the set, or
    None where the field is missing, so the Jaccard kernels never see a
    string: the ref_* families as ids of the scoring call's PaperGrams, the
    others as ids of ``vocab``, which lives while one PreparedBlock is
    built.
    """

    __slots__ = tuple(attr for _, attr in _SET_FEATURES)

    def __init__(self, sig: Signature, paper: Paper, grams: PaperGrams, vocab: Vocabulary):
        coauthors = [
            folded
            for i, raw in enumerate(paper.author_names, start=1)
            if i != sig.author_position and (folded := blocking.fold_text(raw))
        ]
        self.coauthor_keys = [vocab.intern(set(map(_author_key, coauthors)))]
        self.coauthor_names = [vocab.intern(set(coauthors))]
        self.coauthor_grams = [vocab.intern(_substrings(" ".join(coauthors), 2, 4))]

        self.affiliation_grams = (
            [vocab.intern(word_grams(blocking.fold_text(" ".join(sig.affiliations)), 1, 3))]
            if sig.affiliations
            else None
        )

        self.venue_grams = [vocab.intern(char_grams(paper.venue, 2, 4))] if paper.venue else None
        self.journal_grams = (
            [vocab.intern(char_grams(paper.journal, 2, 4))] if paper.journal else None
        )
        title = paper.title or ""
        self.title_word_g = [vocab.intern(word_grams(title, 1, 3))] if title else None
        self.title_char_g = [vocab.intern(char_grams(title, 2, 4))] if title else None

        self.cited_ids = [vocab.intern(paper.reference_ids)]
        if paper.reference_ids:
            (
                self.ref_author_grams,
                self.ref_title_grams,
                self.ref_venue_grams,
                self.ref_key_grams,
            ) = grams.references(paper.reference_ids)
        else:
            self.ref_author_grams = None
            self.ref_title_grams = None
            self.ref_venue_grams = None
            self.ref_key_grams = None


class ProfileIndex:
    """The _SET_FEATURES families of one PreparedBlock's profiles, and their
    Jaccards.

    add() takes the profiles in slot order. pack() then turns each family,
    one at a time, into its set sizes and one row of uint64 words per
    profile, with one bit for each gram that two or more profiles hold; a
    gram only one profile holds adds to no intersection but its own.

    pair_values and _compute_features stay separate names because
    perfbench/spans.py times both by patching them by name; both can merge
    once runs write their own stats (ROADMAP item 1).
    """

    def __init__(self):
        self.n = 0  # profiles added
        # per family: its id arrays and the slot of each, until pack()
        self.arrays: list[list[np.ndarray]] = [[] for _ in _SET_FEATURES]
        self.slots: list[list[int]] = [[] for _ in _SET_FEATURES]
        # per family: the presence of the field in each profile
        self.present: list[list[bool]] = [[] for _ in _SET_FEATURES]
        # per family, after pack(): (n,) set sizes and (n, words) bit rows
        self.sizes: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []

    def add(self, prof: SignatureProfile) -> None:
        """Append the next distinct signature's families."""
        for f, (_, attr) in enumerate(_SET_FEATURES):
            family = getattr(prof, attr)
            self.present[f].append(family is not None)
            if family:
                self.arrays[f].extend(family)
                self.slots[f].extend([self.n] * len(family))
        self.n += 1

    def pack(self) -> "ProfileIndex":
        """Turn the added families into set sizes and bit rows, one family
        at a time, and drop their id arrays."""
        self.present = np.array(self.present, dtype=bool)
        for f in range(len(_SET_FEATURES)):
            sizes, rows = _pack_family(self.arrays[f], self.slots[f], self.n)
            self.arrays[f] = self.slots[f] = None
            self.sizes.append(sizes)
            self.rows.append(rows)
        return self

    def pair_values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(len(_SET_FEATURES), n_pairs) set_jaccard of each family over the
        pairs (a[i], b[i]) (_compute_features)."""
        return _compute_features(self, a, b)


def _pack_family(arrays: list[np.ndarray], slots: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n,) set sizes and (n, words) uint64 bit rows of one family of n
    profiles, whose id arrays ``arrays`` belong to the profiles ``slots``.

    Work is in place where it can be, so the scratch stays near two int64
    values per id.
    """
    if not arrays:
        return np.zeros(n, dtype=np.intp), np.zeros((n, 0), dtype=np.uint64)
    # (gram id, slot) in bit fields of one int64 key
    slot_bits = (n - 1).bit_length()
    key = np.concatenate(arrays, dtype=np.int64)
    key <<= slot_bits
    key |= np.repeat(np.array(slots, dtype=np.int32), [len(x) for x in arrays])
    key.sort()
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    key = key[first]  # a gram repeated within one profile counts once
    slot = np.empty(len(key), dtype=np.int32)
    np.bitwise_and(key, (1 << slot_bits) - 1, out=slot)
    sizes = np.bincount(slot, minlength=n)
    key >>= slot_bits  # now the gram ids
    # a run of equal ids is one gram; it gets a bit column if two or more
    # profiles hold it, numbered in id order
    first = first[: len(key)]
    np.not_equal(key[1:], key[:-1], out=first[1:])
    del key
    run = np.cumsum(first, dtype=np.int32) - 1
    shared = np.bincount(run) > 1
    keep = shared[run]
    col = (np.cumsum(shared, dtype=np.int32) - 1)[run[keep]]
    del run
    slot = slot[keep]
    rows = np.zeros((n, -(-int(np.count_nonzero(shared)) // 64)), dtype=np.uint64)
    bit = (col & 63).astype(np.uint64)
    np.left_shift(np.uint64(1), bit, out=bit)
    col >>= 6
    # each (slot, gram) bit is set once
    np.bitwise_or.at(rows, (slot, col), bit)
    return sizes, rows


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

def schema_columns(schema: FeatureSchema) -> dict[str, int]:
    """Each feature name's column in ``schema``; refuses a schema that names
    a feature this module does not compute."""
    unknown = [name for name in schema.names if name not in _FEATURE_NAMES]
    if unknown:
        raise SchemaMismatchError(f"schema requests unknown features {unknown}")
    return {name: j for j, name in enumerate(schema.names)}


def featurize_pairs(
    sigs: Sequence[Signature],
    a: Sequence[int] | np.ndarray,
    b: Sequence[int] | np.ndarray,
    dataset: Dataset,
    counts: NameCountsTable,
    schema: FeatureSchema,
    grams: PaperGrams | None = None,
) -> np.ndarray:
    """Feature matrix (n_pairs, n_features) in schema order for the pairs
    (``sigs[a[i]]``, ``sigs[b[i]]``) of one dataset.

    The call prepares its distinct signatures as one PreparedBlock and
    featurizes all its pairs as one band. ``grams`` is the PaperGrams of
    ``dataset`` that a caller scoring many calls shares among them, so each
    cited paper is n-grammed once; without it the call builds its own.
    Prepared signatures live for one call only, so a caller that knows the
    blocks calls once per block.
    """
    columns = schema_columns(schema)
    if grams is None:
        grams = PaperGrams(dataset)
    elif grams.papers is not dataset.papers:
        raise ValueError("grams is the PaperGrams of another dataset")
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    X = np.empty((len(a), len(schema)), dtype=np.float64)
    if not len(a):
        return X
    slots, local = np.unique(np.concatenate([a, b]), return_inverse=True)
    block = PreparedBlock([sigs[i] for i in slots.tolist()], dataset, counts, grams)
    block.fill(*np.split(local, 2), columns, X)
    return X


# ---------------------------------------------------------------------------
# column-wise featurization
# ---------------------------------------------------------------------------

# Bytes of scratch one column-wise kernel holds at once: the ANDed bit rows
# of a chunk of pairs in _compute_features, or the float64 embedding rows of
# a chunk of pairs in _cosines.
GRAM_CHUNK_BYTES = 1 << 18

_FEATURE_NAMES = frozenset(f.name for f in _DEFAULT_FEATURES)


def _compute_features(index: ProfileIndex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(_SET_FEATURES), n_pairs) set_jaccard of each family of a packed
    ``index`` over the pairs (a[i], b[i]), missing where either field is
    None.

    A pair's intersection is the popcount of its two bit rows ANDed, taken
    over chunks of at most GRAM_CHUNK_BYTES of ANDed rows; a profile paired
    with itself intersects in its whole set. The counts are exact integers,
    so each Jaccard has the bytes of set_jaccard.
    """
    out = np.full((len(_SET_FEATURES), len(a)), MISSING)
    same = np.flatnonzero(a == b)
    inter = np.empty(len(a), dtype=np.int64)
    for f, (sizes, rows) in enumerate(zip(index.sizes, index.rows)):
        step = max(1, GRAM_CHUNK_BYTES // (8 * max(1, rows.shape[1])))
        for lo in range(0, len(a), step):
            both = rows[a[lo : lo + step]]
            both &= rows[b[lo : lo + step]]
            np.sum(np.bitwise_count(both), axis=1, dtype=np.int64, out=inter[lo : lo + step])
        inter[same] = sizes[a[same]]
        union = sizes[a] + sizes[b] - inter
        defined = (union > 0) & index.present[f, a] & index.present[f, b]
        np.divide(inter, union, out=out[f], where=defined)
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


def _cosines(vectors: np.ndarray, has: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the unit vectors (rows of ``vectors``) of the pairs
    (a[i], b[i]), missing where either has none (``has``)."""
    out = np.full(len(a), MISSING)
    both = np.flatnonzero(has[a] & has[b])
    step = max(1, GRAM_CHUNK_BYTES // (8 * max(1, vectors.shape[1])))
    for lo in range(0, len(both), step):
        rows = both[lo : lo + step]
        # numpy multiplies a stack of (1, d) @ (d, 1) matrices with the dot
        # kernel np.dot runs on two vectors, so each value has its bytes
        out[rows] = np.matmul(vectors[a[rows], None, :], vectors[b[rows], :, None])[:, 0, 0]
    return out


class PreparedBlock:
    """The per-signature state that _feature_columns reads, for the distinct
    signatures of one block (or of one featurize_pairs call).

    It is built once: each signature's scalars are read from it and its
    paper, and its gram families (SignatureProfile) go into a packed
    ProfileIndex. fill() then featurizes any band of pairs of its slots, as
    often as needed.
    """

    def __init__(
        self,
        sigs: Sequence[Signature],
        dataset: Dataset,
        counts: NameCountsTable,
        grams: PaperGrams,
    ):
        index, vocab, papers = ProfileIndex(), Vocabulary(), []
        for sig in sigs:
            paper = dataset.papers.get(sig.paper_id)
            if paper is None:
                raise IntegrityError(
                    f"signature {sig.signature_id!r} references missing paper"
                )
            index.add(SignatureProfile(sig, paper, grams, vocab))
            papers.append(paper)
        self.index = index.pack()

        self.paper, distinct = _intern([sig.paper_id for sig in sigs])
        self.span = span = len(distinct)
        paper_id = dict(zip(distinct, range(span)))
        # slot * span + paper id of every (citing slot, cited paper of the block)
        self.cites = np.array(
            [
                s * span + paper_id[p]
                for s, paper in enumerate(papers)
                for p in paper.reference_ids & paper_id.keys()
            ],
            dtype=np.int64,
        )
        self.name_ids, self.names = _intern([(sig.name.first, sig.name.middle) for sig in sigs])
        # (prefix, "@", suffix), or (email, "", "") for an email without "@"
        emails = [sig.email.lower().partition("@") if sig.email else (None,) * 3 for sig in sigs]
        self.prefix = _intern([prefix for prefix, _, _ in emails])[0]
        self.suffix = _intern([suffix for _, _, suffix in emails])[0]
        languages = [paper.language.lower() if paper.language else None for paper in papers]
        self.language = _intern(languages)[0]
        self.english = np.array([lg == "en" for lg in languages], dtype=np.float64)
        self.abstract = np.array([bool(paper.abstract) for paper in papers], dtype=np.float64)
        self.position = np.array([sig.author_position for sig in sigs], dtype=np.int64)
        # a missing year propagates NaN
        self.year = np.array(
            [MISSING if paper.year is None else paper.year for paper in papers], dtype=np.float64
        )
        counted = [counts.lookup(sig.name) for sig in sigs]
        self.name_counts = {
            key: np.array(
                [MISSING if c[key] is None else c[key] for c in counted], dtype=np.float64
            )
            for _, key, _ in _COUNT_FEATURES
        }
        # each embedding scaled to unit length on its own; a zero vector is
        # no embedding
        dim = next((len(paper.embedding) for paper in papers if paper.embedding is not None), 0)
        self.vectors = np.zeros((len(papers), dim))
        self.has_embedding = np.zeros(len(papers), dtype=bool)
        for s, paper in enumerate(papers):
            if paper.embedding is not None:
                vec = np.asarray(paper.embedding, dtype=np.float64)
                norm = float(np.linalg.norm(vec))
                if norm > 0:
                    self.vectors[s] = vec / norm
                    self.has_embedding[s] = True

    def fill(self, a: np.ndarray, b: np.ndarray, columns: dict[str, int], out: np.ndarray) -> None:
        """Write the features of the pairs (a[i], b[i]) of slots into row i
        of ``out``, at the columns ``columns`` (schema_columns) gives."""
        for name, values in _feature_columns(self, a, b):
            j = columns.get(name)
            if j is not None:
                out[:, j] = values


def _feature_columns(block: PreparedBlock, a: np.ndarray, b: np.ndarray):
    """Yield (feature name, column) for every feature of the pairs
    (a[i], b[i]) of ``block``'s slots.

    Each set family's Jaccards come from popcounts of its bit rows; the name
    kernels run once per distinct ordered (first, middle) name pair.
    """
    for (feature, _), values in zip(_SET_FEATURES, block.index.pair_values(a, b)):
        yield feature, values

    a_cites_b = np.isin(a * block.span + block.paper[b], block.cites)
    b_cites_a = np.isin(b * block.span + block.paper[a], block.cites)
    yield "cite_each_other", (a_cites_b | b_cites_a).astype(np.float64)

    distinct = block.names
    code = block.name_ids[a] * len(distinct) + block.name_ids[b]
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

    yield "email_prefix_equal", _equal(block.prefix, a, b)
    yield "email_suffix_equal", _equal(block.suffix, a, b)
    lang = block.language
    yield "same_language", _equal(lang, a, b)
    yield "language_count", ((lang[a] >= 0).astype(np.float64) + (lang[b] >= 0))
    yield "english_count", block.english[a] + block.english[b]
    yield "abstract_count", block.abstract[a] + block.abstract[b]
    yield "position_diff", np.abs(block.position[a] - block.position[b]).astype(np.float64)
    yield "year_diff", np.abs(block.year[a] - block.year[b])
    for feature, key, agg in _COUNT_FEATURES:
        c = block.name_counts[key]
        yield feature, (np.minimum if agg is min else np.maximum)(c[a], c[b])
    yield "embedding_cosine", _cosines(block.vectors, block.has_embedding, a, b)


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
