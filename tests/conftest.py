from __future__ import annotations

import os

import pytest
from hypothesis import settings

# CI draws the same examples on every run, so a red run reproduces; set
# HYPOTHESIS_PROFILE=ci to get them locally.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

from andlib.corpus import Dataset, Paper, Partition, Signature, build_name_counts
from andlib.features import default_schema
from andlib.synthetic import GeneratorConfig, generate_synthetic_corpus


def make_pair_fixture_dataset() -> Dataset:
    """Two signatures with hand-built metadata, every feature computable by
    hand (plus two cited papers and one filler so counts stay simple)."""
    papers = {
        "p1": Paper(
            paper_id="p1",
            title="ab",
            abstract="present",
            venue="ab",
            journal="cd",
            year=2000,
            author_names=("John R Smith", "Ann Lee"),
            reference_ids=frozenset({"r1", "r2"}),
            language="en",
            embedding=(1.0, 0.0),
        ),
        "p2": Paper(
            paper_id="p2",
            title="ab cd",
            abstract=None,
            venue="ab",
            journal=None,
            year=2003,
            author_names=("Ann Lee", "J. Smith"),
            reference_ids=frozenset({"r2", "p1"}),
            language=None,
            embedding=(0.6, 0.8),
        ),
        "r1": Paper(paper_id="r1", title="ee", venue="ff", author_names=("Bo Xu",)),
        "r2": Paper(paper_id="r2", title="gg", venue="hh", author_names=("Cy Ng",)),
    }
    signatures = {
        "s1": Signature(
            signature_id="s1",
            paper_id="p1",
            author_position=1,
            first="John",
            middle="Robert",
            last="Smith",
            affiliations=("inst a",),
            email="jsmith@uni.edu",
        ),
        "s2": Signature(
            signature_id="s2",
            paper_id="p2",
            author_position=2,
            first="J.",
            middle=None,
            last="Smith",
            affiliations=("inst a", "lab b"),
            email="jsmith@uni.edu",
        ),
    }
    gold = Partition({"s1": "a", "s2": "a"})
    return Dataset(papers=papers, signatures=signatures, gold=gold)


@pytest.fixture(scope="session")
def pair_fixture():
    dataset = make_pair_fixture_dataset()
    counts = build_name_counts(dataset)
    schema = default_schema()
    return dataset, counts, schema


@pytest.fixture(scope="session")
def small_corpus():
    """A 40-author synthetic corpus shared by model/cluster tests."""
    return generate_synthetic_corpus(
        11, GeneratorConfig(n_authors=40, mean_papers=5, collision_rate=0.25)
    )
