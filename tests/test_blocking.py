from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from andlib.blocking import (
    Block,
    block_key,
    build_blocks,
    fold_text,
    normalize_name,
)
from andlib.corpus import Signature
from andlib.errors import IntegrityError
from andlib.synthetic import GeneratorConfig, generate_synthetic_corpus


def sig(first, last, sid="s", middle=None):
    return Signature(
        signature_id=sid,
        paper_id="p",
        author_position=1,
        first=first,
        middle=middle,
        last=last,
    )


class TestNormalizeName:
    def test_diacritics_and_hyphens_fold(self):
        name = normalize_name("José", "", "García-Márquez")
        assert name.first == "jose"
        assert name.last == "garciamarquez"

    def test_periods_removed_whitespace_collapsed(self):
        name = normalize_name("J.", "R. R.", "Tolkien")
        assert name.first == "j"
        assert name.middle == "r r"
        assert name.last == "tolkien"

    def test_empty_last_rejected(self):
        with pytest.raises(IntegrityError):
            normalize_name("A", None, "...")

    def test_missing_first_and_middle(self):
        name = normalize_name(None, None, "Smith")
        assert name.first == ""
        assert name.first_initial == ""
        assert name.full == "smith"

    @given(
        st.text(min_size=0, max_size=12),
        st.text(min_size=0, max_size=12),
        st.text(min_size=1, max_size=12),
    )
    def test_idempotent(self, first, middle, last):
        try:
            once = normalize_name(first, middle, last)
        except IntegrityError:
            return
        twice = normalize_name(once.first, once.middle, once.last)
        assert once == twice


class TestBlockKey:
    def test_basic_key(self):
        assert block_key(sig("Sergey", "Feldman")) == "s feldman"

    def test_missing_first_gets_marker(self):
        assert block_key(sig(None, "Feldman")) == "_ feldman"

    def test_initial_and_full_first_share_key(self):
        full = block_key(sig("Shivashankar", "Subramanian"))
        initial = block_key(sig("S.", "Subramanian"))
        assert full == initial == "s subramanian"


class TestBuildBlocks:
    def test_grouping(self, pair_fixture):
        dataset, _, _ = pair_fixture
        blocks = build_blocks(dataset)
        assert len(blocks) == 1
        assert blocks[0].key == "j smith"
        assert blocks[0].members == ("s1", "s2")

    def test_partition_property_on_synthetic(self):
        dataset = generate_synthetic_corpus(
            5, GeneratorConfig(n_authors=60, mean_papers=4)
        )
        blocks = build_blocks(dataset)
        seen: set[str] = set()
        for block in blocks:
            assert block.members, "blocks are never empty"
            for member in block.members:
                assert member not in seen, "blocks must be disjoint"
                seen.add(member)
            keys = {
                block_key(dataset.signatures[m]) for m in block.members
            }
            assert keys == {block.key}
        assert seen == set(dataset.signatures), "blocks must cover every signature"

    def test_sorted_and_deterministic(self, small_corpus):
        a = build_blocks(small_corpus)
        b = build_blocks(small_corpus)
        assert a == b
        assert [blk.key for blk in a] == sorted(blk.key for blk in a)


class TestFoldText:
    def test_punctuation_removed_without_spacing(self):
        assert fold_text("O'Brien-Lee") == "obrienlee"

    def test_interior_whitespace_collapsed(self):
        assert fold_text("  a \t b  ") == "a b"

    @given(st.text(max_size=30))
    def test_idempotent(self, text):
        assert fold_text(fold_text(text)) == fold_text(text)
