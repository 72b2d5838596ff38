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
as one group, and builds that group's signature profiles for the call only.
Every feature is computed column-wise over the group's distinct signatures.
The 13 set-valued fields of a profile are integer gram ids, and every
set-overlap Jaccard comes from Gram products of 0/1 indicators over them.
A PaperGrams table, which the scoring call that owns it passes to each
featurize_pairs call, n-grams each cited paper once; the module keeps no
state between calls. The bytes equal those of the string-set reference in
the tests, whatever the string hash seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
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
    """Integer ids for strings, in first-seen order: uint16 while the
    vocabulary holds at most 65,536 strings, int32 after that. A PaperGrams
    table keeps its ids for a whole scoring call: with int32 ids, peak RSS
    of a cluster-many bench run was 0.5 MB higher.

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
        # the smallest type that holds every id yet given out
        dtype = np.uint16 if len(ids) <= 1 << 16 else np.int32
        return np.fromiter(map(ids.__getitem__, values), dtype=dtype, count=len(values))


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


class SignatureProfile:
    """One signature's fields as featurize_pairs reads them.

    Names, emails and languages are normalized once. Each set-valued field
    (the _SET_FEATURES families) is held as a list of integer id arrays whose
    union is the set, or None where the field is missing, so the Jaccard
    kernels never see a string: the ref_* families as ids of the scoring
    call's PaperGrams, the others as ids of ``vocab``, which lives for one
    featurize_pairs call. ``ref_ids`` keeps the cited paper ids themselves
    for cite_each_other.
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
        "cited_ids",
        "ref_author_grams",
        "ref_title_grams",
        "ref_venue_grams",
        "ref_key_grams",
        "embedding",
        "count_keys",
    )

    def __init__(self, sig: Signature, dataset: Dataset, grams: PaperGrams, vocab: Vocabulary):
        paper = dataset.papers.get(sig.paper_id)
        if paper is None:
            raise IntegrityError(
                f"signature {sig.signature_id!r} references missing paper"
            )
        self.paper_id = sig.paper_id
        self.name = name = sig.name

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

        if sig.email and "@" in sig.email:
            prefix, _, suffix = sig.email.lower().partition("@")
            self.email_prefix, self.email_suffix = prefix, suffix
        elif sig.email:
            self.email_prefix, self.email_suffix = sig.email.lower(), ""
        else:
            self.email_prefix = self.email_suffix = None

        self.venue_grams = [vocab.intern(char_grams(paper.venue, 2, 4))] if paper.venue else None
        self.journal_grams = (
            [vocab.intern(char_grams(paper.journal, 2, 4))] if paper.journal else None
        )
        title = paper.title or ""
        self.title_word_g = [vocab.intern(word_grams(title, 1, 3))] if title else None
        self.title_char_g = [vocab.intern(char_grams(title, 2, 4))] if title else None
        self.year = paper.year
        self.position = sig.author_position
        self.has_abstract = bool(paper.abstract)
        self.language = paper.language.lower() if paper.language else None

        self.ref_ids = paper.reference_ids
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
    """The _SET_FEATURES families of one featurize_pairs call's profiles,
    and their Jaccards.

    pair_values and _compute_features stay separate names because
    perfbench/spans.py times both by patching them by name; both can merge
    once runs write their own stats (ROADMAP item 1).
    """

    def __init__(self):
        self.n = 0  # profiles added
        # per family: its id arrays, the slot of each, and the presence of
        # the field in each profile
        self.arrays: list[list[np.ndarray]] = [[] for _ in _SET_FEATURES]
        self.slots: list[list[int]] = [[] for _ in _SET_FEATURES]
        self.present: list[list[bool]] = [[] for _ in _SET_FEATURES]

    def add(self, prof: SignatureProfile) -> None:
        """Append the next distinct signature's families."""
        for f, (_, attr) in enumerate(_SET_FEATURES):
            family = getattr(prof, attr)
            self.present[f].append(family is not None)
            if family:
                self.arrays[f].extend(family)
                self.slots[f].extend([self.n] * len(family))
        self.n += 1

    def pair_values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(len(_SET_FEATURES), n_pairs) set_jaccard of each family over the
        pairs (a[i], b[i]) (_compute_features)."""
        return _compute_features(self, a, b)

    def counts(self, families: range) -> tuple[np.ndarray, np.ndarray]:
        """(k, S, S) float32 intersection counts and (k, S) set sizes of k
        families over the S profiles, from one Gram product whose rows
        j * S to (j + 1) * S hold the j-th family."""
        n, k = self.n, len(families)
        arrays = [ids for f in families for ids in self.arrays[f]]
        ids = np.concatenate(arrays, dtype=np.int64) if arrays else np.zeros(0, np.int64)
        # (family, gram id, slot) in bit fields of one int64 key
        slot_bits = (n - 1).bit_length()
        id_bits = int(ids.max(initial=0)).bit_length()
        tags = [j << id_bits + slot_bits | s for j, f in enumerate(families) for s in self.slots[f]]
        key = np.repeat(np.array(tags, dtype=np.int64), [len(x) for x in arrays])
        key |= ids << slot_bits
        key.sort()
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]  # a gram repeated within one profile counts once
        gram = key >> slot_bits
        row = (gram >> id_bits) * n + (key & (1 << slot_bits) - 1)
        sizes = np.bincount(row, minlength=k * n).reshape(k, n)
        # a gram only one signature holds adds to that signature's own
        # diagonal alone, which is its set size: drop it
        starts = np.empty(len(gram), dtype=bool)
        starts[:1] = True
        np.not_equal(gram[1:], gram[:-1], out=starts[1:])
        run = np.cumsum(starts) - 1
        shared = np.bincount(run, minlength=1) > 1
        keep = shared[run]
        cols, row = (np.cumsum(shared) - 1)[run[keep]], row[keep]
        n_cols = int(np.count_nonzero(shared))
        # zero rows up to a multiple of GRAM_ROW_ALIGN, which add nothing
        rows = -(-k * n // GRAM_ROW_ALIGN) * GRAM_ROW_ALIGN
        width = max(1, GRAM_CHUNK_BYTES // (4 * rows))
        product = np.zeros((rows, rows), dtype=np.float32)
        for lo in range(0, n_cols, width):
            hi = min(lo + width, n_cols)
            p, q = np.searchsorted(cols, (lo, hi))
            M = np.zeros((rows, hi - lo), dtype=np.float32)
            M[row[p:q], cols[p:q] - lo] = 1.0
            product += M @ M.T
        blocks = product[: k * n, : k * n].reshape(k, n, k, n)
        return blocks[np.arange(k), :, np.arange(k), :], sizes


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
    ("ref_cocitation_jaccard", "cited_ids"),
)


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
    grams: PaperGrams | None = None,
) -> np.ndarray:
    """Feature matrix (n_pairs, n_features) in schema order for the pairs
    (``sigs[a[i]]``, ``sigs[b[i]]``) of one dataset.

    Every feature is computed column-wise over the call's distinct signature
    indices (_feature_columns), the set overlaps from Gram products over
    gram ids. ``grams`` is the PaperGrams of ``dataset`` that a caller
    scoring many calls shares among them, so each cited paper is n-grammed
    once; without it the call builds its own. Profiles live for one call
    only, so a caller that knows the blocks calls once per block.
    """
    unknown = [name for name in schema.names if name not in _FEATURE_NAMES]
    if unknown:
        raise SchemaMismatchError(f"schema requests unknown features {unknown}")
    if grams is None:
        grams = PaperGrams(dataset)
    elif grams.papers is not dataset.papers:
        raise ValueError("grams is the PaperGrams of another dataset")
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    X = np.empty((len(a), len(schema)), dtype=np.float64)
    if not len(a):
        return X
    slots, local = np.unique(np.concatenate([a, b]), return_inverse=True)
    column = {name: j for j, name in enumerate(schema.names)}
    group = [sigs[i] for i in slots.tolist()]
    for name, values in _feature_columns(group, *np.split(local, 2), dataset, counts, grams):
        if name in column:
            X[:, column[name]] = values
    return X


# ---------------------------------------------------------------------------
# column-wise featurization
# ---------------------------------------------------------------------------

# Bytes of scratch one column-wise product holds at once: the 0/1 float32
# indicator of a Gram product, or the float64 embedding rows of a batch of
# pairs.
GRAM_CHUNK_BYTES = 1 << 22

# Rows of a Gram product's indicator are padded with zeros to a multiple of
# this, and a product stacks as many families as fit in this many rows
# (_compute_features). numpy's OpenBLAS splits a product among threads, and
# on a 2-vCPU machine a product of 24 to 38 rows often left the calling
# thread waiting 8-120 ms for the other (one product took 16 ms where it
# needs 0.05 ms); in a scan of 11 to 257 rows and 300 to 10,000 columns the
# padded scan took less time in total (440 vs 532 ms). Padding does not end
# the stalls: the first (256, 55) product of a fresh process took 7.7 ms
# against 0.2 ms when repeated.
GRAM_ROW_ALIGN = 64

_FEATURE_NAMES = frozenset(f.name for f in _DEFAULT_FEATURES)


def _compute_features(index: ProfileIndex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(_SET_FEATURES), n_pairs) set_jaccard of each family of ``index``
    over the pairs (a[i], b[i]), missing where either field is None.

    The intersection counts come from Gram products (ProfileIndex.counts).
    One product stacks as many families as fit in GRAM_ROW_ALIGN rows, at
    least one, and keeps only its diagonal blocks. Sums of 0/1 products
    stay exact in float32 below 2**24, so the counts are exact integers
    whatever order a product adds in.
    """
    n_fam = len(_SET_FEATURES)
    per = max(1, GRAM_ROW_ALIGN // index.n)
    present = np.array(index.present)
    diag = np.arange(index.n)
    out = np.full((n_fam, len(a)), MISSING)
    for f in range(0, n_fam, per):
        inter, sizes = index.counts(range(f, min(f + per, n_fam)))
        inter[:, diag, diag] = sizes
        inter = inter[:, a, b].astype(np.float64)
        union = sizes[:, a] + sizes[:, b] - inter
        defined = (union > 0) & present[f : f + per, a] & present[f : f + per, b]
        np.divide(inter, union, out=out[f : f + per], where=defined)
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
    grams: PaperGrams,
):
    """Yield (feature name, column) for every feature of the pairs
    (``sigs[a[i]]``, ``sigs[b[i]]``) of distinct signatures ``sigs``.

    Each signature's profile is built once, reduced to scalars and to its
    families in a ProfileIndex, and dropped; each set family's intersection
    counts come from one Gram product over the signatures. The name kernels
    run once per distinct ordered (first, middle) name pair.
    """
    index, vocab = ProfileIndex(), Vocabulary()
    names, prefixes, suffixes, languages, papers, refs, embeddings = ([] for _ in range(7))
    years, positions, abstracts = [], [], []
    name_counts: dict[str, list] = {key: [] for key in _COUNT_GETTERS}
    for sig in sigs:
        prof = SignatureProfile(sig, dataset, grams, vocab)
        index.add(prof)
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

    for (feature, _), values in zip(_SET_FEATURES, index.pair_values(a, b)):
        yield feature, values

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
