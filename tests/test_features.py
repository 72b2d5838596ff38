from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from andlib.errors import SchemaMismatchError
from andlib.features import (
    ADVANCED_NAME_FEATURES,
    FeatureSchema,
    FeatureSpec,
    char_grams,
    default_schema,
    featurize_pair,
    featurize_pairs,
    jaro_winkler,
    lcs_distance,
    levenshtein,
    mask_nameless,
    ngram_jaccard,
    prefix_distance,
    word_grams,
)
from oracles import brute_force_lcs_length, recursive_levenshtein, textbook_jaro_winkler

short_text = st.text(alphabet="abcdxy", max_size=6)


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
        assert ngram_jaccard("venue name", "venue name") == 1.0

    def test_disjoint_char_bigrams(self):
        assert ngram_jaccard("ab", "cd", "char", (2, 2)) == 0.0

    def test_enumerated_overlap(self):
        # {ab,bc,cd} vs {bc,cd,de}: 2 shared of 4
        assert ngram_jaccard("abcd", "bcde", "char", (2, 2)) == pytest.approx(0.5)

    def test_both_empty_is_missing(self):
        assert math.isnan(ngram_jaccard("", "", "char", (2, 4)))

    def test_one_empty_is_zero(self):
        assert ngram_jaccard("", "abc", "char", (2, 4)) == 0.0

    def test_text_set_inputs(self):
        a = ["inst a"]
        b = ["inst a", "lab b"]
        assert ngram_jaccard(a, b, "word", (1, 3)) == pytest.approx(3 / 9)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ngram_jaccard("a", "b", "char", (3, 2))
        with pytest.raises(ValueError):
            ngram_jaccard("a", "b", "char", (0, 2))

    def test_gram_helpers(self):
        assert char_grams("abcd", 2, 2) == {"ab", "bc", "cd"}
        assert word_grams("a b c", 1, 2) == {"a", "b", "c", "a b", "b c"}


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
        return featurize_pair(s1, s2, dataset, counts, schema), schema

    def test_hand_computed_vector(self, pair_fixture):
        v, schema = self.featurize(pair_fixture)
        # reference-bag features are assembled from the cited papers' fields;
        # expected values come from the independently tested kernels
        ref_expected = {
            "ref_author_char_jaccard": ngram_jaccard(
                "bo xu cy ng", "john r smith ann lee cy ng", "char", (2, 4)
            ),
            "ref_title_char_jaccard": ngram_jaccard("ee gg", "ab gg", "char", (2, 4)),
            "ref_venue_char_jaccard": ngram_jaccard("ff hh", "ab cd hh", "char", (2, 4)),
            "ref_key_char_jaccard": ngram_jaccard(
                "b xu c ng", "j smith a lee c ng", "char", (2, 4)
            ),
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

    def test_self_pair(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1 = dataset.signatures["s1"]
        v = featurize_pair(s1, s1, dataset, counts, schema)
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
        assert featurize_pair(s1, s1, dataset, counts, schema)[idx] == 2.0
        assert featurize_pair(s1, s2, dataset, counts, schema)[idx] == 1.0
        assert featurize_pair(s2, s2, dataset, counts, schema)[idx] == 0.0

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
                    v = featurize_pair(
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


class TestFeaturizePairsOracle:
    def test_every_block_pair_matches_compute_features_both_orders(self, small_corpus):
        from andlib.blocking import build_blocks
        from andlib.corpus import build_name_counts
        from andlib.features import SignatureProfile, _compute_features

        schema = default_schema()
        counts = build_name_counts(small_corpus)
        sigs = small_corpus.signatures
        pairs = [
            (sigs[block.members[i]], sigs[block.members[j]])
            for block in build_blocks(small_corpus)
            for i in range(len(block.members))
            for j in range(i + 1, len(block.members))
        ]
        assert len(pairs) > 100

        def oracle(a, b):
            pa = SignatureProfile(a, small_corpus)
            pb = SignatureProfile(b, small_corpus)
            values = _compute_features(pa, pb, counts)
            return [values[name] for name in schema.names]

        expected = np.array([oracle(a, b) for a, b in pairs])
        swapped = [(b, a) for a, b in pairs]
        forward = featurize_pairs(pairs, small_corpus, counts, schema)
        backward = featurize_pairs(swapped, small_corpus, counts, schema)
        assert np.array_equal(forward, expected, equal_nan=True)
        assert np.array_equal(backward, expected, equal_nan=True)


class TestMaskNameless:
    def test_masks_name_features_only(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        v = featurize_pair(s1, s2, dataset, counts, schema)
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
        masked = mask_nameless(featurize_pair(s1, s2, dataset, counts, schema), schema)
        assert masked[schema.index("coauthor_key_jaccard")] == 1.0

    def test_idempotent(self, pair_fixture):
        dataset, counts, schema = pair_fixture
        s1, s2 = dataset.signatures["s1"], dataset.signatures["s2"]
        v = featurize_pair(s1, s2, dataset, counts, schema)
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
