from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from andlib import features
from andlib.blocking import block_key, build_blocks
from andlib.corpus import Paper, Signature, build_name_counts
from andlib.errors import IntegrityError, SchemaMismatchError
from andlib.features import (
    ADVANCED_NAME_FEATURES,
    MISSING,
    FeatureSchema,
    FeatureSpec,
    PaperGrams,
    ProfileIndex,
    Vocabulary,
    char_grams,
    default_schema,
    featurize_pairs,
    jaro_winkler,
    lcs_distance,
    levenshtein,
    mask_nameless,
    prefix_distance,
    set_jaccard,
    word_grams,
)
from oracles import (
    brute_force_lcs_length,
    recursive_levenshtein,
    reference_char_grams,
    reference_pair_features,
    reference_profile,
    textbook_jaro_winkler,
)

short_text = st.text(alphabet="abcdxy", max_size=6)

#: characters whose lowercasing changes a string's length (İ), depends on
#: the neighbours (Σ), or is already lower case (ς, ß, the ligature ﬁ, a
#: combining acute accent), plus whitespace
GRAM_ALPHABET = "aZΣςİß\u0301ﬁ \t"


def featurize_one(s1, s2, dataset, counts, schema):
    """The feature vector of the one pair (s1, s2)."""
    return featurize_pairs([s1, s2], [0], [1], dataset, counts, schema)[0]


def char_jaccard(a: str, b: str, lo: int = 2, hi: int = 4) -> float:
    return set_jaccard(char_grams(a, lo, hi), char_grams(b, lo, hi))


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("abc", "abc", 0), ("kitten", "sitting", 3), ("", "abc", 3), ("abc", "", 3)],
    )
    def test_fixtures(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_matches_recursive_definition(self, a, b):
        assert levenshtein(a, b) == recursive_levenshtein(a, b)

    @given(short_text, short_text)
    def test_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)


class TestLcsDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("abc", "abc", 0.0), ("abcd", "axcy", 0.5), ("ab", "cd", 1.0), ("", "", 0.0)],
    )
    def test_fixtures(self, a, b, expected):
        assert lcs_distance(a, b) == pytest.approx(expected)

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_matches_brute_force(self, a, b):
        if max(len(a), len(b)) == 0:
            return
        expected = 1.0 - brute_force_lcs_length(a, b) / max(len(a), len(b))
        assert lcs_distance(a, b) == pytest.approx(expected, abs=1e-12)


class TestJaroWinkler:
    def test_textbook_value(self):
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.9611, abs=1e-4)

    @pytest.mark.parametrize("x", ["a", "jane", "garcia"])
    def test_identity(self, x):
        assert jaro_winkler(x, x) == 1.0

    def test_disjoint(self):
        assert jaro_winkler("abc", "xyz") == 0.0

    @given(st.text(alphabet="abcdef", max_size=8), st.text(alphabet="abcdef", max_size=8))
    @settings(max_examples=80)
    def test_matches_textbook_formula(self, a, b):
        assert jaro_winkler(a, b) == pytest.approx(textbook_jaro_winkler(a, b), abs=1e-12)


class TestPrefixDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("dan", "daniel", 0.0),
            ("dana", "daniel", 0.25),
            ("x", "y", 1.0),
            ("", "", 0.0),
            ("same", "same", 0.0),
        ],
    )
    def test_fixtures(self, a, b, expected):
        assert prefix_distance(a, b) == pytest.approx(expected)

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, a, b):
        d = prefix_distance(a, b)
        assert d == prefix_distance(b, a)
        assert 0.0 <= d <= 1.0


class TestNgramJaccard:
    def test_identical_nonempty(self):
        assert char_jaccard("venue name", "venue name") == 1.0

    def test_disjoint_char_bigrams(self):
        assert char_jaccard("ab", "cd", 2, 2) == 0.0

    def test_enumerated_overlap(self):
        # {ab,bc,cd} vs {bc,cd,de}: 2 shared of 4
        assert char_jaccard("abcd", "bcde", 2, 2) == pytest.approx(0.5)

    def test_both_empty_is_missing(self):
        assert math.isnan(char_jaccard("", ""))

    def test_one_empty_is_zero(self):
        assert char_jaccard("", "abc") == 0.0

    def test_text_set_inputs(self):
        # a field of several texts is n-grammed as their join with spaces
        a = word_grams(" ".join(["inst a"]), 1, 3)
        b = word_grams(" ".join(["inst a", "lab b"]), 1, 3)
        assert set_jaccard(a, b) == pytest.approx(3 / 9)

    def test_gram_helpers(self):
        assert char_grams("abcd", 2, 2) == {"ab", "bc", "cd"}
        assert word_grams("a b c", 1, 2) == {"a", "b", "c", "a b", "b c"}

    @given(st.text(alphabet=GRAM_ALPHABET, max_size=9), st.integers(1, 5), st.integers(0, 6))
    def test_char_grams_match_the_definition(self, text, lo, hi):
        assert char_grams(text, lo, hi) == reference_char_grams(text, lo, hi)


EXPECTED_PAIR = {
    "first_equal": 0.0,          # john vs j
    "first_fullness": 0.5,
    "first_prefix_dist": 0.0,    # j prefixes john
    "first_levenshtein": 3.0,
    "first_lcs_dist": 0.75,
    "first_jaro_winkler": 0.775,
    "middle_equal": float("nan"),
    "middle_initials_jaccard": float("nan"),
    "middle_presence_count": 1.0,
    "middle_fullness": float("nan"),
    "affiliation_word_jaccard": 3 / 9,
    "email_prefix_equal": 1.0,
    "email_suffix_equal": 1.0,
    "coauthor_key_jaccard": 1.0,  # both sides: {"a lee"}
    "coauthor_name_jaccard": 1.0,
    "coauthor_char_jaccard": 1.0,
    "venue_char_jaccard": 1.0,   # "ab" vs "ab"
    "year_diff": 3.0,
    "title_word_jaccard": 1 / 3,  # {ab} vs {ab,cd,ab cd}
    "title_char_jaccard": 1 / 9,  # {ab} vs 9 grams of "ab cd"
    "cite_each_other": 1.0,      # p2 cites p1
    "ref_cocitation_jaccard": 1 / 3,  # {r1,r2} vs {r2,p1}
    "position_diff": 1.0,
    "abstract_count": 1.0,
    "english_count": 1.0,
    "same_language": float("nan"),
    "language_count": 1.0,
    "min_first_count": 1.0,
    "min_first_last_count": 1.0,
    "min_last_count": 2.0,
    "min_initial_last_count": 2.0,
    "max_first_count": 1.0,
    "max_first_last_count": 1.0,
    "embedding_cosine": 0.6,
    "journal_char_jaccard": float("nan"),  # p2 has no journal
}


class TestFeaturizePair:
    def featurize(self, pair_fixture, flip=False):
        dataset, counts, schema = pair_fixture
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        if flip:
            s1, s2 = s2, s1
        return featurize_one(s1, s2, dataset, counts, schema), schema

    def test_hand_computed_vector(self, pair_fixture):
        v, schema = self.featurize(pair_fixture)
        # reference-bag features are assembled from the cited papers' fields;
        # expected values come from the reference n-gram kernel
        def reference_jaccard(a: str, b: str) -> float:
            return set_jaccard(reference_char_grams(a, 2, 4), reference_char_grams(b, 2, 4))

        ref_expected = {
            "ref_author_char_jaccard": reference_jaccard(
                "bo xu cy ng", "john r smith ann lee cy ng"
            ),
            "ref_title_char_jaccard": reference_jaccard("ee gg", "ab gg"),
            "ref_venue_char_jaccard": reference_jaccard("ff hh", "ab cd hh"),
            "ref_key_char_jaccard": reference_jaccard("b xu c ng", "j smith a lee c ng"),
        }
        expected = {**EXPECTED_PAIR, **ref_expected}
        assert set(expected) == set(schema.names)
        for idx, name in enumerate(schema.names):
            want = expected[name]
            got = v[idx]
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(got), name
            else:
                assert got == pytest.approx(want, abs=1e-12), name

    def test_symmetry(self, pair_fixture):
        a, _ = self.featurize(pair_fixture)
        b, _ = self.featurize(pair_fixture, flip=True)
        assert np.array_equal(a, b, equal_nan=True)

    def test_missing_paper_is_an_integrity_error(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1 = dataset.signatures["s1"]
        orphan = dataclasses.replace(dataset.signatures["s2"], paper_id="no-such-paper")
        with pytest.raises(IntegrityError, match="'s2' references missing paper"):
            featurize_one(s1, orphan, dataset, counts, schema)

    def test_self_pair(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1 = dataset.signatures["s1"]
        v = featurize_one(s1, s1, dataset, counts, schema)
        g = dict(zip(schema.names, v))
        assert g["year_diff"] == 0.0
        assert g["position_diff"] == 0.0
        assert g["cite_each_other"] == 0.0
        assert g["first_equal"] == 1.0
        assert g["first_levenshtein"] == 0.0
        assert g["first_prefix_dist"] == 0.0
        assert g["first_lcs_dist"] == 0.0
        assert g["first_jaro_winkler"] == 1.0
        assert g["venue_char_jaccard"] == 1.0
        assert g["coauthor_name_jaccard"] == 1.0
        assert g["embedding_cosine"] == pytest.approx(1.0)
        assert g["ref_cocitation_jaccard"] == 1.0
        assert g["abstract_count"] == 2.0

    def test_abstract_count_enumeration(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        idx = schema.index("abstract_count")
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        assert featurize_one(s1, s1, dataset, counts, schema)[idx] == 2.0
        assert featurize_one(s1, s2, dataset, counts, schema)[idx] == 1.0
        assert featurize_one(s2, s2, dataset, counts, schema)[idx] == 0.0

    def test_range_invariants_on_synthetic(self, small_corpus):
        from andlib.blocking import build_blocks
        from andlib.corpus import build_name_counts

        schema = default_schema()
        counts = build_name_counts(small_corpus)
        blocks = [b for b in build_blocks(small_corpus) if len(b.members) >= 2]
        sims = [
            i
            for i, f in enumerate(schema.features)
            if f.name.endswith(("jaccard", "equal", "jaro_winkler"))
        ]
        for block in blocks[:20]:
            members = block.members
            for i in range(min(len(members), 4)):
                for j in range(i + 1, min(len(members), 4)):
                    v = featurize_one(
                        small_corpus.signatures[members[i]],
                        small_corpus.signatures[members[j]],
                        small_corpus,
                        counts,
                        schema,
                    )
                    present = ~np.isnan(v)
                    for k in sims:
                        if present[k]:
                            assert 0.0 <= v[k] <= 1.0
                    for name in ("year_diff", "position_diff"):
                        k = schema.index(name)
                        if present[k]:
                            assert v[k] >= 0.0
                    k = schema.index("embedding_cosine")
                    if present[k]:
                        assert -1.0 - 1e-12 <= v[k] <= 1.0 + 1e-12


def block_pairs(dataset):
    """Every within-block (i < j) signature pair, block by block, as index
    arrays (a, b) into the returned signature list."""
    sigs, a, b = [], [], []
    for block in build_blocks(dataset):
        ii, jj = np.triu_indices(len(block), k=1)
        a.append(ii + len(sigs))
        b.append(jj + len(sigs))
        sigs.extend(dataset.signatures[m] for m in block.members)
    return sigs, np.concatenate(a), np.concatenate(b)


def oracle_features(sigs, a, b, dataset, counts, schema):
    """reference_pair_features row by row, the reference for featurize_pairs."""
    profiles = {}

    def profile(sig):
        if sig.signature_id not in profiles:
            profiles[sig.signature_id] = reference_profile(sig, dataset)
        return profiles[sig.signature_id]

    rows = []
    for i, j in zip(a, b):
        values = reference_pair_features(profile(sigs[i]), profile(sigs[j]), counts)
        rows.append([values[name] for name in schema.names])
    return np.array(rows, dtype=np.float64).reshape(len(a), len(schema))


def assert_matches_oracle(sigs, a, b, dataset, schema, featurize=featurize_pairs):
    counts = build_name_counts(dataset)
    for x, y in ((a, b), (b, a)):  # both orders
        got = featurize(sigs, x, y, dataset, counts, schema)
        want = oracle_features(sigs, x, y, dataset, counts, schema)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def featurize_one_by_one(sigs, a, b, dataset, counts, schema):
    """featurize_pairs with one call per pair, every call against one
    shared PaperGrams: the smallest prepared blocks, and a table reused
    across calls."""
    grams = PaperGrams(dataset)
    rows = [
        featurize_pairs(sigs, a[i : i + 1], b[i : i + 1], dataset, counts, schema, grams)
        for i in range(len(a))
    ]
    return np.concatenate(rows) if rows else featurize_pairs(sigs, a, b, dataset, counts, schema)


@pytest.fixture(params=["per_pair", "column_wise"])
def kernel(request):
    """Featurize each pair in its own call, or all pairs in one."""
    return featurize_one_by_one if request.param == "per_pair" else featurize_pairs


def with_sparse_fields(dataset):
    """A copy of ``dataset`` where, in its largest block, one signature has
    no affiliation and its paper no venue, journal, title or references;
    one paper cites only papers that do not exist; two signatures have
    affiliations and emails that fold to empty strings; and two papers cite
    a paper with a 1-character title, a 2-character venue and a
    1-character author name, which falls between their other references."""
    block = max(build_blocks(dataset), key=len)
    assert len(block) >= 6
    papers = dict(dataset.papers)
    sigs = dict(dataset.signatures)
    m0, m1, m2, m3, m4, m5 = (sigs[m] for m in block.members[:6])
    tiny = Paper(paper_id="bg00021a", title="x", venue="Ab", author_names=("Q",))
    papers[tiny.paper_id] = tiny
    for m in (m4, m5):
        paper = papers[m.paper_id]
        assert any(r < tiny.paper_id for r in paper.reference_ids)
        assert any(r > tiny.paper_id for r in paper.reference_ids)
        papers[m.paper_id] = dataclasses.replace(
            paper, reference_ids=paper.reference_ids | {tiny.paper_id}
        )
    papers[m0.paper_id] = dataclasses.replace(
        papers[m0.paper_id], title="", venue=None, journal=None,
        reference_ids=frozenset(),
    )
    sigs[m0.signature_id] = dataclasses.replace(m0, affiliations=())
    papers[m1.paper_id] = dataclasses.replace(
        papers[m1.paper_id], reference_ids=frozenset({"gone-1", "gone-2"})
    )
    sigs[m2.signature_id] = dataclasses.replace(m2, affiliations=("--",), email="nobody")
    sigs[m3.signature_id] = dataclasses.replace(m3, affiliations=("!",), email="@x.org")
    return dataclasses.replace(dataset, papers=papers, signatures=sigs)


def reference_profile_refs(citing, dataset):
    """The oracle's four ref_* string sets of a paper that cites ``citing``."""
    paper = Paper(paper_id="citing", title="t", author_names=("A B",), reference_ids=citing)
    sig = Signature(
        signature_id="s", paper_id="citing", author_position=1, first="A", middle=None, last="B"
    )
    prof = reference_profile(sig, SimpleNamespace(papers={**dataset.papers, "citing": paper}))
    return [prof.ref_author_grams, prof.ref_title_grams, prof.ref_venue_grams, prof.ref_key_grams]


HASH_SEED_SCRIPT = """
import hashlib, sys
import numpy as np
from andlib.blocking import build_blocks
from andlib.corpus import build_name_counts
from andlib.features import default_schema, featurize_pairs
from andlib.synthetic import GeneratorConfig, generate_synthetic_corpus
ds = generate_synthetic_corpus(11, GeneratorConfig(n_authors=40, mean_papers=5, collision_rate=0.25))
counts, schema, digest = build_name_counts(ds), default_schema(), hashlib.sha256()
for block in build_blocks(ds):
    sigs = [ds.signatures[m] for m in block.members]
    a, b = np.triu_indices(len(sigs), k=1)
    digest.update(featurize_pairs(sigs, a, b, ds, counts, schema).tobytes())
print(digest.hexdigest())
"""


def test_feature_bytes_do_not_depend_on_the_hash_seed(small_corpus):
    # gram ids follow set iteration order, which follows the string hash
    # seed; only equal and distinct ids may matter
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(proc.stdout.strip())
    counts, schema, here = build_name_counts(small_corpus), default_schema(), hashlib.sha256()
    for block in build_blocks(small_corpus):
        sigs = [small_corpus.signatures[m] for m in block.members]
        a, b = np.triu_indices(len(sigs), k=1)
        here.update(featurize_pairs(sigs, a, b, small_corpus, counts, schema).tobytes())
    assert digests == [here.hexdigest()] * 2


class TestFeaturizePairsOracle:
    def test_every_block_pair_matches_compute_features_both_orders(self, small_corpus):
        schema = default_schema()
        counts = build_name_counts(small_corpus)
        sigs, a, b = block_pairs(small_corpus)
        assert len(a) > 100
        expected = oracle_features(sigs, a, b, small_corpus, counts, schema)
        forward = featurize_pairs(sigs, a, b, small_corpus, counts, schema)
        backward = featurize_pairs(sigs, b, a, small_corpus, counts, schema)
        assert np.array_equal(forward, expected, equal_nan=True)
        assert np.array_equal(backward, expected, equal_nan=True)

    def test_each_kernel_matches_compute_features_bytes(self, small_corpus, kernel):
        assert_matches_oracle(*block_pairs(small_corpus), small_corpus, default_schema(), kernel)

    def test_overlaps_in_one_pair_chunks(self, small_corpus, monkeypatch):
        monkeypatch.setattr(features, "GRAM_CHUNK_BYTES", 1)  # one pair a chunk
        assert_matches_oracle(*block_pairs(small_corpus), small_corpus, default_schema())

    def test_shuffled_pairs_across_blocks(self, small_corpus, kernel):
        # many blocks' pairs in random order in one call, plus one pair
        # across two blocks
        sigs, a, b = block_pairs(small_corpus)
        order = np.random.Generator(np.random.PCG64(3)).permutation(len(a))
        a, b = a[order], b[order]
        k = next(k for k in b if block_key(sigs[k]) != block_key(sigs[a[0]]))
        mid = len(a) // 2
        a, b = np.insert(a, mid, a[0]), np.insert(b, mid, k)
        assert_matches_oracle(sigs, a, b, small_corpus, default_schema(), kernel)

    def test_repeated_signature_indices(self, small_corpus, kernel):
        # the same signature at two indices, and a signature paired with itself
        sigs, a, b = block_pairs(small_corpus)
        sigs = sigs + sigs[:1]
        a = np.append(a, [len(sigs) - 1, 0, 0])
        b = np.append(b, [1, len(sigs) - 1, 0])
        assert_matches_oracle(sigs, a, b, small_corpus, default_schema(), kernel)

    @pytest.mark.parametrize(
        "dropped",
        [ADVANCED_NAME_FEATURES, default_schema().groups()["references"]],
        ids=["advanced_name", "references_group"],
    )
    def test_dropped_feature_schemas(self, small_corpus, kernel, dropped):
        schema = default_schema().drop(dropped)
        assert_matches_oracle(*block_pairs(small_corpus), small_corpus, schema, kernel)

    def test_missing_fields_and_dangling_references(self, small_corpus, kernel):
        dataset = with_sparse_fields(small_corpus)
        assert_matches_oracle(*block_pairs(dataset), dataset, default_schema(), kernel)

    def test_empty_pair_list(self, pair_fixture, kernel):
        dataset, counts, schema = pair_fixture
        X = kernel([], np.array([], dtype=int), np.array([], dtype=int), dataset, counts, schema)
        assert X.shape == (0, len(schema)) and X.dtype == np.float64

    def test_unknown_schema_name_is_refused(self, pair_fixture, kernel):
        dataset, counts, schema = pair_fixture
        bad = FeatureSchema(schema.features + (FeatureSpec("no_such_feature", "g", 0),))
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        with pytest.raises(SchemaMismatchError):
            kernel([s1, s2], np.array([0, 1]), np.array([1, 0]), dataset, counts, bad)

    @given(
        st.lists(
            st.none() | st.frozensets(st.text(alphabet="abc", max_size=2), max_size=5),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1, 64, features.GRAM_CHUNK_BYTES]),
    )
    @settings(max_examples=100)
    def test_gram_jaccard_equals_set_jaccard_bit_for_bit(self, sets, chunk_bytes):
        # family f of signature i holds sets[(i + f) % n], as two id arrays
        # that overlap, so families differ and a profile repeats ids
        n, vocab, index = len(sets), Vocabulary(), ProfileIndex()
        attrs = [attr for _, attr in features._SET_FEATURES]
        for i in range(n):
            prof = SimpleNamespace()
            for f, attr in enumerate(attrs):
                values = sets[(i + f) % n]
                half = frozenset(sorted(values or ())[::2])
                setattr(prof, attr, None if values is None else [vocab.intern(values), vocab.intern(half)])
            index.add(prof)
        index.pack()
        a, b = (x.ravel() for x in np.indices((n, n)))
        with mock.patch.object(features, "GRAM_CHUNK_BYTES", chunk_bytes):
            got = index.pair_values(a, b)
        for f in range(len(attrs)):
            side = [sets[(i + f) % n] for i in range(n)]
            assert got[f].tobytes() == reference_jaccards(side, a, b).tobytes()


def reference_jaccards(sets, a, b):
    """set_jaccard of the pairs (sets[a[i]], sets[b[i]]), missing where
    either is None."""
    return np.array(
        [
            MISSING if sets[i] is None or sets[j] is None else set_jaccard(sets[i], sets[j])
            for i, j in zip(a, b)
        ]
    )


#: a family as (start, length, loose ids): the ids start..start+length-1
#: plus the loose ones, all offset by one base per example
ID_RUN = st.tuples(st.integers(0, 40), st.integers(0, 150), st.frozensets(st.integers(0, 300), max_size=4))


@given(
    st.sampled_from([0, 1 << 16, (1 << 24) + 5]),
    st.lists(st.none() | ID_RUN, min_size=1, max_size=5),
    st.sampled_from([1, 512, features.GRAM_CHUNK_BYTES]),
)
@example(1 << 16, [(0, 150, frozenset()), (10, 140, frozenset({299})), None, (0, 0, frozenset())], 1)
@settings(max_examples=100, deadline=None)
def test_popcount_jaccard_equals_set_jaccard_bit_for_bit(base, runs, chunk_bytes):
    # overlapping runs share up to 150 ids, so a bit row spans several
    # uint64 words; ids reach past 2**16; every profile repeats a third of
    # its ids in a second array; pairs include each profile with itself;
    # a chunk budget of 1 byte takes one pair per chunk
    sets = [
        None if run is None else frozenset(range(base + run[0], base + run[0] + run[1])) | {base + k for k in run[2]}
        for run in runs
    ]
    n, index = len(sets), ProfileIndex()
    attrs = [attr for _, attr in features._SET_FEATURES]
    for i in range(n):
        prof = SimpleNamespace()
        for f, attr in enumerate(attrs):
            values = sets[(i + f) % n]
            ids = np.array(sorted(values or ()), dtype=np.int64)
            setattr(prof, attr, None if values is None else [ids, ids[1::3]])
        index.add(prof)
    index.pack()
    a, b = (x.ravel() for x in np.indices((n, n)))
    with mock.patch.object(features, "GRAM_CHUNK_BYTES", chunk_bytes):
        got = features._compute_features(index, a, b)
    for f in range(len(attrs)):
        side = [sets[(i + f) % n] for i in range(n)]
        assert got[f].tobytes() == reference_jaccards(side, a, b).tobytes()


def test_popcount_rows_span_several_words():
    # 150 ids two profiles share are 150 bit columns, three uint64 words;
    # ids only one profile holds get no column
    index = ProfileIndex()
    for ids in (np.arange(200), np.arange(50, 300)):
        index.add(SimpleNamespace(**{attr: [ids] for _, attr in features._SET_FEATURES}))
    index.pack()
    assert [r.shape for r in index.rows] == [(2, 3)] * len(features._SET_FEATURES)
    assert [s.tolist() for s in index.sizes] == [[200, 250]] * len(features._SET_FEATURES)
    got = index.pair_values(np.array([0, 1, 0]), np.array([1, 0, 0]))
    assert (got[:, :2] == 150 / 300).all() and (got[:, 2] == 1.0).all()


def test_ids_widen_past_65536_strings():
    # ids stay exact when the vocabulary outgrows 16 bits between two arrays
    vocab, index = Vocabulary(), ProfileIndex()
    small = vocab.intern(frozenset({"a", "b"}))
    big = vocab.intern(frozenset({f"g{i}" for i in range(1 << 16)} | {"a"}))
    assert int(big.max()) == (1 << 16) + 1 and len(set(big.tolist())) == len(big)
    for family in (small, big):
        prof = SimpleNamespace(**{attr: [family] for _, attr in features._SET_FEATURES})
        index.add(prof)
    got = index.pack().pair_values(np.array([0]), np.array([1]))
    assert (got == 1 / ((1 << 16) + 2)).all()


class TestPaperGrams:
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "title": st.text(alphabet=GRAM_ALPHABET, max_size=6),
                    "venue": st.none() | st.text(alphabet=GRAM_ALPHABET, max_size=4),
                    "journal": st.none() | st.text(alphabet=GRAM_ALPHABET, max_size=4),
                    "authors": st.lists(st.text(alphabet=GRAM_ALPHABET, max_size=5), max_size=3),
                }
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_reference_families_equal_char_grams_of_the_join(self, cited, picks):
        # cited papers, one of them possibly missing from the corpus, with
        # 0- to 6-character texts over an alphabet where lowercasing changes
        # lengths (İ), depends on context (Σ) or decomposes (ß, ﬁ)
        papers = {
            f"r{k}": Paper(
                paper_id=f"r{k}",
                title=doc["title"],
                venue=doc["venue"],
                journal=doc["journal"],
                author_names=tuple(doc["authors"]),
            )
            for k, doc in enumerate(cited)
        }
        citing = frozenset(f"r{k}" for k in picks)  # r5 is never in the corpus
        dataset = SimpleNamespace(papers=papers)
        grams = PaperGrams(dataset)
        got = grams.references(citing)
        want = reference_profile_refs(citing, dataset)
        vocab = grams.vocab._ids
        for family, texts in zip(got, want):
            ids = set(np.concatenate(family).tolist()) if family else set()
            assert ids == {vocab[g] for g in texts}
            assert len(ids) == len(texts)
        # a second request reuses the cached papers and gives the same ids
        again = grams.references(citing)
        assert [set(np.concatenate(f).tolist()) if f else set() for f in again] == [
            set(np.concatenate(f).tolist()) if f else set() for f in got
        ]


class TestMaskNameless:
    def test_masks_name_features_only(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        v = featurize_one(s1, s2, dataset, counts, schema)
        masked = mask_nameless(v, schema)
        for i, spec in enumerate(schema.features):
            if spec.nameless:
                assert math.isnan(masked[i]), spec.name
            else:
                assert (
                    masked[i] == v[i]
                    or (math.isnan(masked[i]) and math.isnan(v[i]))
                ), spec.name

    def test_coauthor_features_survive(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        masked = mask_nameless(featurize_one(s1, s2, dataset, counts, schema), schema)
        assert masked[schema.index("coauthor_key_jaccard")] == 1.0

    def test_idempotent(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        v = featurize_one(s1, s2, dataset, counts, schema)
        once = mask_nameless(v, schema)
        twice = mask_nameless(once, schema)
        assert np.array_equal(once, twice, equal_nan=True)

    def test_shape_mismatch(self, pair_fixture):
        _, _, schema = pair_fixture
        with pytest.raises(SchemaMismatchError):
            mask_nameless(np.zeros(3), schema)


class TestFeatureSchema:
    def test_nameless_flags_cover_exactly_name_derived_features(self):
        schema = default_schema()
        flagged = {f.name for f in schema.features if f.nameless}
        assert flagged == {
            f.name
            for f in schema.features
            if f.group in ("first_name", "middle_name", "name_counts")
        }

    def test_hash_changes_with_layout(self):
        schema = default_schema()
        dropped = schema.drop(["embedding_cosine"])
        assert schema.schema_hash != dropped.schema_hash

    def test_duplicate_names_rejected(self):
        spec = FeatureSpec("x", "g", 0)
        with pytest.raises(ValueError):
            FeatureSchema((spec, spec))

    def test_advanced_names_are_schema_members(self):
        schema = default_schema()
        assert set(ADVANCED_NAME_FEATURES) <= set(schema.names)
