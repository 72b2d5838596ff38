from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from andlib.blocking import build_blocks, normalize_name
from andlib.corpus import (
    KNOCKOUT_GROUPS,
    build_name_counts,
    knockout_augment,
    load_dataset,
    load_name_counts,
    save_dataset,
    save_name_counts,
    split_blocks,
)
from andlib.errors import (
    ConfigError,
    DegenerateSplitError,
    DimensionError,
    IntegrityError,
    ParseError,
)
from andlib.synthetic import GeneratorConfig, generate_synthetic_corpus
from test_acceptance import HARD_CONFIG

VALID_PAPERS = {
    "p1": {
        "title": "alpha",
        "year": 2001,
        "authors": [{"position": 1, "name": "Ann Ruiz"}, {"position": 2, "name": "Bo Li"}],
        "references": ["p3"],
        "language": "en",
    },
    "p2": {
        "title": "beta",
        "authors": [{"position": 1, "name": "A. Ruiz"}],
    },
    "p3": {
        "title": "gamma",
        "venue": "v",
        "authors": [{"position": 1, "name": "Cho Park"}, {"position": 2, "name": "Ann Ruiz"}],
    },
}

VALID_SIGNATURES = [
    {"signature_id": "s1", "paper_id": "p1", "author_position": 1, "first": "Ann", "last": "Ruiz"},
    {"signature_id": "s2", "paper_id": "p2", "author_position": 1, "first": "A.", "last": "Ruiz"},
    {"signature_id": "s3", "paper_id": "p3", "author_position": 2, "first": "Ann", "last": "Ruiz"},
    {"signature_id": "s4", "paper_id": "p1", "author_position": 2, "first": "Bo", "last": "Li"},
    {"signature_id": "s5", "paper_id": "p3", "author_position": 1, "first": "Cho", "last": "Park"},
]

VALID_CLUSTERS = {"c1": ["s1", "s2", "s3"], "c2": ["s4", "s5"]}


def write_corpus(tmp_path, papers=None, signatures=None, clusters=None, embeddings=None):
    paths = {}
    docs = {
        "papers.json": papers if papers is not None else VALID_PAPERS,
        "signatures.json": signatures if signatures is not None else VALID_SIGNATURES,
        "clusters.json": clusters if clusters is not None else VALID_CLUSTERS,
    }
    if embeddings is not None:
        docs["embeddings.json"] = embeddings
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths[name.split(".")[0]] = str(path)
    return paths


class TestLoadDataset:
    def test_valid_fixture(self, tmp_path):
        paths = write_corpus(tmp_path)
        ds = load_dataset(paths["papers"], paths["signatures"], paths["clusters"])
        assert len(ds.papers) == 3
        assert len(ds.signatures) == 5
        assert len(ds.gold.clusters()) == 2

    def test_dangling_paper_reference(self, tmp_path):
        bad = VALID_SIGNATURES + [
            {"signature_id": "s9", "paper_id": "nope", "author_position": 1, "last": "X"}
        ]
        clusters = {"c1": VALID_CLUSTERS["c1"] + ["s9"], "c2": VALID_CLUSTERS["c2"]}
        paths = write_corpus(tmp_path, signatures=bad, clusters=clusters)
        with pytest.raises(IntegrityError):
            load_dataset(paths["papers"], paths["signatures"], paths["clusters"])

    def test_inconsistent_embedding_lengths(self, tmp_path):
        emb = {"dim": 8, "vectors": {"p1": [0.0] * 8, "p2": [0.0] * 16}}
        paths = write_corpus(tmp_path, embeddings=emb)
        with pytest.raises(DimensionError):
            load_dataset(
                paths["papers"],
                paths["signatures"],
                paths["clusters"],
                embeddings_file=paths["embeddings"],
            )

    def test_duplicate_signature_id(self, tmp_path):
        bad = VALID_SIGNATURES + [VALID_SIGNATURES[0]]
        paths = write_corpus(tmp_path, signatures=bad)
        with pytest.raises(IntegrityError):
            load_dataset(paths["papers"], paths["signatures"])

    def test_malformed_json(self, tmp_path):
        paths = write_corpus(tmp_path)
        (tmp_path / "papers.json").write_text("{not json")
        with pytest.raises(ParseError):
            load_dataset(paths["papers"], paths["signatures"])

    def test_gold_must_cover_all_signatures(self, tmp_path):
        paths = write_corpus(tmp_path, clusters={"c1": ["s1"]})
        with pytest.raises(IntegrityError):
            load_dataset(paths["papers"], paths["signatures"], paths["clusters"])

    def test_self_reference_rejected(self, tmp_path):
        papers = dict(VALID_PAPERS)
        papers["p1"] = {**papers["p1"], "references": ["p1"]}
        paths = write_corpus(tmp_path, papers=papers)
        with pytest.raises(IntegrityError):
            load_dataset(paths["papers"], paths["signatures"])

    def test_position_beyond_author_list(self, tmp_path):
        bad = [dict(VALID_SIGNATURES[0], author_position=7)] + VALID_SIGNATURES[1:]
        paths = write_corpus(tmp_path, signatures=bad)
        with pytest.raises(IntegrityError):
            load_dataset(paths["papers"], paths["signatures"])


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        ds = generate_synthetic_corpus(
            2, GeneratorConfig(n_authors=15, mean_papers=3)
        )
        ds = split_blocks(ds, seed=4)
        out = tmp_path / "corpus"
        paths = save_dataset(ds, out)
        again = load_dataset(
            paths["papers"],
            paths["signatures"],
            paths["clusters"],
            embeddings_file=paths["embeddings"],
            splits_file=paths["splits"],
        )
        assert again.papers == ds.papers
        assert again.signatures == ds.signatures
        assert again.gold == ds.gold
        assert again.splits == ds.splits

    def test_synth_files_byte_identical_across_runs(self, tmp_path):
        cfg = GeneratorConfig(n_authors=10, mean_papers=3)
        for d in ("one", "two"):
            save_dataset(generate_synthetic_corpus(9, cfg), tmp_path / d)
        for name in ("papers.json", "signatures.json", "clusters.json", "embeddings.json"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name


class TestSplitBlocks:
    def make(self, n_authors=40, seed=1):
        return generate_synthetic_corpus(
            seed, GeneratorConfig(n_authors=n_authors, mean_papers=3, collision_rate=0)
        )

    def test_exact_multiples(self):
        ds = self.make(n_authors=10)
        out = split_blocks(ds, seed=7, fractions=(0.8, 0.1, 0.1))
        parts = list(out.splits.values())
        assert parts.count("train") == 8
        assert parts.count("val") == 1
        assert parts.count("test") == 1

    def test_deterministic(self):
        ds = self.make()
        assert split_blocks(ds, seed=7).splits == split_blocks(ds, seed=7).splits

    def test_different_seeds_differ(self):
        ds = self.make(n_authors=100)
        a = split_blocks(ds, seed=7).splits
        b = split_blocks(ds, seed=8).splits
        assert a != b

    def test_blocks_share_split(self):
        ds = self.make()
        out = split_blocks(ds, seed=3)
        for block in build_blocks(out):
            assert block.key in out.splits

    def test_rounding_remainder_goes_to_train(self):
        ds = self.make(n_authors=11)
        out = split_blocks(ds, seed=0, fractions=(0.8, 0.1, 0.1))
        parts = list(out.splits.values())
        # 11 blocks: floor(1.1)=1 each for val/test, remainder 9 to train
        assert parts.count("train") == 9

    def test_bad_fractions(self):
        ds = self.make()
        with pytest.raises(ConfigError):
            split_blocks(ds, seed=0, fractions=(0.5, 0.2, 0.2))

    def test_too_few_blocks(self):
        ds = self.make(n_authors=2)
        with pytest.raises(DegenerateSplitError):
            split_blocks(ds, seed=0)


class TestNameCounts:
    def test_direct_count(self, tmp_path):
        paths = write_corpus(tmp_path)
        ds = load_dataset(paths["papers"], paths["signatures"], paths["clusters"])
        table = build_name_counts(ds)
        assert table.last["ruiz"] == 3
        assert table.first["ann"] == 2
        assert table.first["a"] == 1
        assert table.first_initial_last["a ruiz"] == 3
        assert table.lookup(normalize_name("Ann", None, "Ruiz")) == {
            "first": 2,
            "last": 3,
            "first_last": 2,
            "first_initial_last": 3,
        }
        # absent keys, and the keys of a name without a first name, are None
        for first in ("Nobody", None):
            assert table.lookup(normalize_name(first, None, "Ruiz")) == {
                "first": None,
                "last": 3,
                "first_last": None,
                "first_initial_last": None,
            }

    def test_totals_match_signature_count(self, small_corpus):
        table = build_name_counts(small_corpus)
        assert sum(table.last.values()) == len(small_corpus.signatures)

    def test_brute_force_recount(self, small_corpus):
        table = build_name_counts(small_corpus)
        firsts: dict[str, int] = {}
        for s in small_corpus.signatures.values():
            name = normalize_name(s.first, s.middle, s.last)
            if name.first:
                firsts[name.first] = firsts.get(name.first, 0) + 1
        assert firsts == table.first

    def test_sidecar_round_trip(self, small_corpus, tmp_path):
        table = build_name_counts(small_corpus)
        path = tmp_path / "name_counts.json"
        save_name_counts(table, path)
        again = load_name_counts(path)
        assert again == table


class TestKnockout:
    def test_zero_probabilities_identity(self, small_corpus):
        out = knockout_augment(small_corpus, seed=0, drop_probabilities={})
        assert out.papers == small_corpus.papers
        assert out.signatures == small_corpus.signatures

    def test_probability_one_removes_everything(self, small_corpus):
        probs = {g: 1.0 for g in KNOCKOUT_GROUPS}
        out = knockout_augment(small_corpus, seed=0, drop_probabilities=probs)
        assert all(not s.affiliations and s.email is None for s in out.signatures.values())
        assert all(
            p.abstract is None and p.venue is None and p.embedding is None
            and not p.reference_ids
            for p in out.papers.values()
        )
        assert all(
            s.first is None or len(s.first) == 1 for s in out.signatures.values()
        )

    def test_gold_unchanged(self, small_corpus):
        out = knockout_augment(
            small_corpus, seed=5, drop_probabilities={"email": 0.8}
        )
        assert out.gold == small_corpus.gold

    def test_unknown_group_rejected(self, small_corpus):
        with pytest.raises(ConfigError):
            knockout_augment(small_corpus, 0, {"bogus": 0.5})

    def test_deterministic(self, small_corpus):
        probs = {g: 0.5 for g in KNOCKOUT_GROUPS}
        a = knockout_augment(small_corpus, seed=3, drop_probabilities=probs)
        b = knockout_augment(small_corpus, seed=3, drop_probabilities=probs)
        assert a.signatures == b.signatures
        assert a.papers == b.papers

    def test_empirical_rate(self):
        ds = generate_synthetic_corpus(
            1,
            GeneratorConfig(
                n_authors=700, mean_papers=15, affiliation_missing=0.0, email_missing=0.0
            ),
        )
        n = len(ds.signatures)
        assert n > 10_000
        out = knockout_augment(
            ds, seed=2, drop_probabilities={"affiliation": 0.5, "email": 0.5}
        )
        aff_dropped = sum(1 for s in out.signatures.values() if not s.affiliations)
        email_dropped = sum(1 for s in out.signatures.values() if s.email is None)
        assert abs(aff_dropped / n - 0.5) < 0.05
        assert abs(email_dropped / n - 0.5) < 0.05

    def test_never_adds_data(self, small_corpus):
        probs = {g: 0.5 for g in KNOCKOUT_GROUPS}
        out = knockout_augment(small_corpus, seed=9, drop_probabilities=probs)
        for sid, sig in out.signatures.items():
            orig = small_corpus.signatures[sid]
            assert set(sig.affiliations) <= set(orig.affiliations)
            assert sig.email in (orig.email, None)
            assert sig.first in (orig.first, (orig.first or " ")[0], None)
        for pid, paper in out.papers.items():
            orig = small_corpus.papers[pid]
            assert paper.reference_ids <= orig.reference_ids


class TestGenerator:
    def test_no_collisions_gives_singleton_name_blocks(self):
        ds = generate_synthetic_corpus(
            4, GeneratorConfig(n_authors=10, mean_papers=5, collision_rate=0.0)
        )
        assert len(ds.gold.clusters()) == 10
        blocks = build_blocks(ds)
        assert len(blocks) == 10
        # every block holds exactly one gold cluster
        for block in blocks:
            labels = {ds.gold.assignment[m] for m in block.members}
            assert len(labels) == 1

    def test_full_collision_two_authors(self):
        ds = generate_synthetic_corpus(
            4, GeneratorConfig(n_authors=2, mean_papers=4, collision_rate=1.0)
        )
        assert len(build_blocks(ds)) == 1
        assert len(ds.gold.clusters()) == 2

    def test_collision_with_single_author_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_corpus(
                0, GeneratorConfig(n_authors=1, collision_rate=0.5)
            )

    def test_default_config_has_cross_author_pairs(self):
        ds = generate_synthetic_corpus(3, GeneratorConfig())
        cross = 0
        for block in build_blocks(ds):
            labels = [ds.gold.assignment[m] for m in block.members]
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    if labels[i] != labels[j]:
                        cross += 1
        assert cross > 0

    def test_same_author_embeddings_more_similar(self):
        ds = generate_synthetic_corpus(
            8, GeneratorConfig(n_authors=30, mean_papers=6)
        )
        vecs = {
            pid: np.asarray(p.embedding) / np.linalg.norm(p.embedding)
            for pid, p in ds.papers.items()
            if p.embedding is not None
        }
        by_author: dict[str, list[str]] = {}
        for sid, sig in ds.signatures.items():
            by_author.setdefault(ds.gold.assignment[sid], []).append(sig.paper_id)
        same, cross = [], []
        authors = sorted(by_author)
        for ai in range(len(authors)):
            pa = by_author[authors[ai]]
            for x in range(len(pa)):
                for y in range(x + 1, len(pa)):
                    same.append(float(vecs[pa[x]] @ vecs[pa[y]]))
            for bi in range(ai + 1, min(ai + 4, len(authors))):
                for x in by_author[authors[ai]][:3]:
                    for y in by_author[authors[bi]][:3]:
                        cross.append(float(vecs[x] @ vecs[y]))
        assert np.mean(same) > np.mean(cross) + 0.2


class TestGeneratorBytePin:
    """The files of seeded corpora, pinned by digest. The cases reach every
    branch of the generator: the community pools (``shared_metadata`` > 0),
    the trap and homonym collisions, and one paper per author. A change to a
    digest changes every corpus the tests and the bench are built on."""

    CASES = {
        "default": (3, GeneratorConfig(),
                    "902965f0930b9ec63ac93181defcd3dd384d6ac4dd42453e6ac01bf7abff1aff"),
        "hard": (42, HARD_CONFIG,
                 "97d3761c05db01b13466e3decb335b518e6041bafb7212e22e6516d7c1daf100"),
        "trap": (4, GeneratorConfig(n_authors=2, collision_rate=1.0, homonym_rate=0.0),
                 "044c7da82fda0366baabcd03c442758fb082aac5a9c564af21840b41202096fc"),
        "homonym": (4, GeneratorConfig(n_authors=2, collision_rate=1.0, homonym_rate=1.0),
                    "df956d91defaa643c2ab2669582ad041b25dfed8bf675642415a1f9b6f833964"),
        "one_paper_each": (5, GeneratorConfig(mean_papers=1),
                           "b0cbf4afb4544beeeba51dcf7c0643f6bdd8f89c7e7e47f82a2f82cd40da4bd1"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_corpus_files_digest(self, tmp_path, case):
        seed, cfg, digest = self.CASES[case]
        save_dataset(generate_synthetic_corpus(seed, cfg), tmp_path)
        h = hashlib.sha256()
        for name in sorted(os.listdir(tmp_path)):
            h.update(name.encode())
            h.update((tmp_path / name).read_bytes())
        assert h.hexdigest() == digest
