from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import andlib
from andlib import model, pipeline
from andlib.cli import main
from andlib.corpus import NameCountsTable, load_dataset, load_partition, save_name_counts

FAST_TRAIN = [
    "--config", "",  # replaced per-test
]


def run(argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(
        ["synth", "--out", out, "--seed", 5, "--authors", 40,
         "--mean-papers", 4, "--collision-rate", 0.4]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(
        json.dumps(
            {
                "hyperparams": {"n_trees": 25, "max_leaves": 8},
                "eps_budget": 10,
            }
        )
    )
    return path


@pytest.fixture(scope="module")
def trained_dir(corpus_dir, fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run(
        ["train", "--data", corpus_dir, "--out", out, "--seed", 2,
         "--config", fast_config]
    )
    assert code == 0
    return out


class TestSynth:
    def test_files_load(self, corpus_dir):
        ds = load_dataset(
            corpus_dir / "papers.json",
            corpus_dir / "signatures.json",
            corpus_dir / "clusters.json",
            embeddings_file=corpus_dir / "embeddings.json",
        )
        assert len(ds.gold.clusters()) == 40
        assert (corpus_dir / "resolved_config.json").exists()
        assert (corpus_dir / "name_counts.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["synth", "--out", tmp_path / sub, "--seed", 9,
                        "--authors", 8]) == 0
        for name in ("papers.json", "signatures.json", "clusters.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestTrain:
    def test_outputs_present(self, trained_dir):
        assert (trained_dir / "model.json").exists()
        assert (trained_dir / "report.json").exists()
        assert (trained_dir / "resolved_config.json").exists()
        report = json.loads((trained_dir / "report.json").read_text())
        assert report["train_pairs"] > 0
        assert "val_auroc_ensemble" in report
        assert "val_b3_f1" in report
        assert 0.0 <= report["eps"] <= 1.0

    def test_model_bytes_reproducible(self, corpus_dir, fast_config, tmp_path):
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert run(["train", "--data", corpus_dir, "--out", out,
                        "--seed", 2, "--config", fast_config]) == 0
            outs.append(out / "model.json")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_knockout_reports_augmented_pairs(self, corpus_dir, fast_config, tmp_path):
        out = tmp_path / "ko"
        assert run(["train", "--data", corpus_dir, "--out", out, "--seed", 2,
                    "--config", fast_config, "--knockout"]) == 0
        report = json.loads((out / "report.json").read_text())
        # every sampled pair is refeaturized once against the degraded corpus
        assert report["augmented_pairs"] == report["train_pairs"]
        assert report["augmented_pairs"] > 0


class TestCluster:
    def test_round_trips_and_covers(self, corpus_dir, trained_dir, tmp_path):
        out = tmp_path / "pred"
        assert run(["cluster", "--data", corpus_dir, "--out", out,
                    "--model", trained_dir / "model.json"]) == 0
        pred = load_partition(out / "clusters.json")
        ds = load_dataset(
            corpus_dir / "papers.json",
            corpus_dir / "signatures.json",
        )
        assert set(pred.assignment) == set(ds.signatures)

    def test_deterministic(self, corpus_dir, trained_dir, tmp_path):
        files = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            assert run(["cluster", "--data", corpus_dir, "--out", out,
                        "--model", trained_dir / "model.json"]) == 0
            files.append((out / "clusters.json").read_bytes())
        assert files[0] == files[1]

    def test_eps_zero_singletons(self, corpus_dir, trained_dir, tmp_path):
        out = tmp_path / "single"
        assert run(["cluster", "--data", corpus_dir, "--out", out,
                    "--model", trained_dir / "model.json", "--eps", 0]) == 0
        pred = load_partition(out / "clusters.json")
        assert len(pred.clusters()) == len(pred.assignment)


class TestEval:
    def test_pred_equals_gold_scores_one(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run(["eval", "--data", corpus_dir,
                    "--pred", corpus_dir / "clusters.json", "--out", out]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["b3_f1"] == 1.0
        assert report["pairwise_macro_f1"] == 1.0
        text = capsys.readouterr().out
        assert "b3_f1: 1.0000" in text

    def test_hand_fixture_value(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        papers = {
            f"p{i}": {"title": "t", "authors": [{"position": 1, "name": "A B"}]}
            for i in range(3)
        }
        sigs = [
            {"signature_id": s, "paper_id": f"p{i}", "author_position": 1,
             "first": "A", "last": "B"}
            for i, s in enumerate(("a", "b", "c"))
        ]
        (data / "papers.json").write_text(json.dumps(papers))
        (data / "signatures.json").write_text(json.dumps(sigs))
        (data / "clusters.json").write_text(json.dumps({"1": ["a", "b"], "2": ["c"]}))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps({"x": ["a"], "y": ["b", "c"]}))
        out = tmp_path / "out"
        assert run(["eval", "--data", data, "--pred", pred, "--out", out]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert abs(report["b3_f1"] - 11 / 18) < 1e-4

    def test_facets_table_written(self, corpus_dir, tmp_path):
        out = tmp_path / "facets"
        assert run(["facets", "--data", corpus_dir,
                    "--pred", corpus_dir / "clusters.json", "--out", out,
                    "--facets", "block_size,year"]) == 0
        lines = (out / "facets.tsv").read_text().strip().splitlines()
        assert lines[0] == "facet\tbin\tcount\tmean_f1"
        assert any(line.startswith("block_size\t") for line in lines[1:])

    def test_unknown_facet_is_usage_error(self, corpus_dir, tmp_path):
        code = run(["eval", "--data", corpus_dir,
                    "--pred", corpus_dir / "clusters.json",
                    "--out", tmp_path / "z", "--facets", "bogus"])
        assert code == 2


class TestAblate:
    def test_baseline_only(self, corpus_dir, fast_config, tmp_path):
        out = tmp_path / "ab"
        assert run(["ablate", "--data", corpus_dir, "--out", out, "--seed", 2,
                    "--config", fast_config]) == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["axis"] for r in rows] == ["baseline"]
        assert rows[0]["delta"] == 0.0

    def test_no_nameless_axis(self, corpus_dir, fast_config, tmp_path):
        out = tmp_path / "ab2"
        assert run(["ablate", "--data", corpus_dir, "--out", out, "--seed", 2,
                    "--config", fast_config, "--axes", "no-nameless"]) == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["axis"] for r in rows] == ["baseline", "no-nameless"]
        tsv = (out / "ablation.tsv").read_text().splitlines()
        assert tsv[0] == "axis\tmean_b3_f1\tdelta"
        assert len(tsv) == 3

    def test_unknown_axis_is_usage_error(self, corpus_dir, fast_config, tmp_path):
        code = run(["ablate", "--data", corpus_dir, "--out", tmp_path / "z",
                    "--config", fast_config, "--axes", "warp-drive"])
        assert code == 2


class TestErrorCodes:
    def test_missing_data_integrity(self, tmp_path):
        data = tmp_path / "broken"
        data.mkdir()
        (data / "papers.json").write_text("{}")
        (data / "signatures.json").write_text(
            json.dumps(
                [{"signature_id": "s", "paper_id": "ghost",
                  "author_position": 1, "last": "X"}]
            )
        )
        code = run(["eval", "--data", data, "--pred", data / "papers.json",
                    "--out", tmp_path / "o"])
        assert code == 3

    def test_schema_mismatch_exit_code(self, corpus_dir, trained_dir, tmp_path):
        doc = json.loads((trained_dir / "model.json").read_text())
        doc["schema"]["features"] = doc["schema"]["features"][:-1]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run(["cluster", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--model", bad])
        assert code == 4

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as err:
            run(["cluster", "--data", "x"])  # missing required args
        assert err.value.code == 2


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestBytePin:
    """The seeded synth -> train -> cluster run of this module, pinned by
    digest. A change to either digest changes what training or clustering
    computes and has to be justified as a behaviour change."""

    MODEL_SHA256 = "be7fe31d4aaed1c697376bd2c6fa8d377487c9a42d7a7aad0d894a568acd6636"
    CLUSTERS_SHA256 = "86f874de2d108e567ba400935027a397c05cf83f1895b5a9ea7af65c238a1c7a"

    def test_model_and_clusters_bytes(self, corpus_dir, trained_dir, tmp_path):
        out = tmp_path / "pred"
        assert run(["cluster", "--data", corpus_dir, "--out", out,
                    "--model", trained_dir / "model.json"]) == 0
        assert sha256(trained_dir / "model.json") == self.MODEL_SHA256
        assert sha256(out / "clusters.json") == self.CLUSTERS_SHA256


@pytest.fixture()
def empty_counts(tmp_path):
    path = tmp_path / "empty_counts.json"
    save_name_counts(NameCountsTable(), path)
    return path


class TestNameCounts:
    def test_train_reads_name_counts_flag(
        self, corpus_dir, fast_config, trained_dir, empty_counts, tmp_path
    ):
        out = tmp_path / "nc"
        assert run(["train", "--data", corpus_dir, "--out", out, "--seed", 2,
                    "--config", fast_config, "--name-counts", empty_counts]) == 0
        assert (out / "model.json").read_bytes() != (
            trained_dir / "model.json"
        ).read_bytes()

    def test_ablate_passes_name_counts(
        self, corpus_dir, fast_config, empty_counts, tmp_path, monkeypatch
    ):
        seen = []

        def fake_run(dataset, cfg, split="test", counts=None):
            seen.append(counts)
            return {"b3_f1": 1.0}

        monkeypatch.setattr(pipeline, "train_cluster_eval", fake_run)
        assert run(["ablate", "--data", corpus_dir, "--out", tmp_path / "ab",
                    "--config", fast_config, "--name-counts", empty_counts]) == 0
        assert seen and all(c == NameCountsTable() for c in seen)


class TestTune:
    def test_honours_no_monotone_and_config_hyperparams(
        self, corpus_dir, fast_config, tmp_path, monkeypatch
    ):
        seen = {}
        real = model.tune_hyperparameters

        def spy(*args, **kwargs):
            seen["constraints"] = args[6]
            seen["overrides"] = kwargs.get("overrides")
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "tune_hyperparameters", spy)
        out = tmp_path / "tune"
        assert run(["tune", "--data", corpus_dir, "--out", out, "--seed", 2,
                    "--config", fast_config, "--budget", 1, "--no-monotone"]) == 0
        assert set(seen["constraints"]) == {0}
        assert seen["overrides"] == {"n_trees": 25, "max_leaves": 8}
        hp = json.loads((out / "hyperparams.json").read_text())
        assert (hp["n_trees"], hp["max_leaves"]) == (25, 8)


def run_process(argv, timeout=120, env=None) -> subprocess.CompletedProcess:
    """The CLI as its own process, so an uncaught exception shows as a
    traceback on stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(andlib.__file__)))
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "andlib.cli", *[str(a) for a in argv]],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def write_corpus(data, papers) -> None:
    data.mkdir()
    (data / "papers.json").write_text(json.dumps(papers))
    (data / "signatures.json").write_text(json.dumps(
        [{"signature_id": "s", "paper_id": "p", "author_position": 1, "last": "B"}]
    ))


def write_pair_corpus(data, edit) -> None:
    """Two signatures of one block on two papers, the first paper with two
    authors; ``edit(papers, signatures)`` changes the JSON before writing."""
    papers = {
        "p": {"title": "t", "authors": [{"position": 1, "name": "A B"},
                                        {"position": 2, "name": "C D"}]},
        "q": {"title": "u", "authors": [{"position": 1, "name": "A B"}]},
    }
    signatures = [
        {"signature_id": "s", "paper_id": "p", "author_position": 1,
         "first": "A", "last": "B"},
        {"signature_id": "t", "paper_id": "q", "author_position": 1,
         "first": "A", "last": "B"},
    ]
    edit(papers, signatures)
    data.mkdir()
    (data / "papers.json").write_text(json.dumps(papers))
    (data / "signatures.json").write_text(json.dumps(signatures))


def set_signature(key, value):
    return lambda papers, signatures: signatures[0].__setitem__(key, value)


def set_paper(key, value):
    return lambda papers, signatures: papers["p"].__setitem__(key, value)


def set_author(key, value, position):
    def edit(papers, signatures):
        papers["p"]["authors"][position - 1][key] = value
    return edit


def eval_argv(data, tmp_path):
    return ["eval", "--data", data, "--pred", data / "papers.json",
            "--out", tmp_path / "o"]


class TestTypedErrors:
    """Bad input ends with a one-line error and the documented exit code,
    never a traceback."""

    def check(self, argv, code, timeout=120, message=None):
        proc = run_process(argv, timeout)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert proc.returncode == code
        if message is not None:
            assert message in proc.stderr, proc.stderr

    def test_missing_config_file(self, corpus_dir, tmp_path):
        self.check(["train", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--config", tmp_path / "absent.json"], 2)

    def test_config_with_test_cap_is_unknown_key(self, corpus_dir, tmp_path):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"test_cap": 10}))
        self.check(["train", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--config", cfg], 2)

    @pytest.mark.parametrize("doc, message", [
        ({"eps": "x"}, "'eps'"),
        ({"eps_budget": "3"}, "'eps_budget'"),
        ({"seed": "a"}, "'seed'"),
        ({"fractions": 5}, "'fractions'"),
        ({"fractions": [0.5, 0.5]}, "'fractions'"),
        ({"jobs": 0}, "'jobs'"),
        ({"train_cap": -5}, "'train_cap'"),
        ([1, 2], "JSON object"),
    ], ids=["eps_string", "eps_budget_string", "seed_string", "fractions_number",
            "fractions_two", "jobs_zero", "train_cap_negative", "top_level_list"])
    def test_bad_config_value(self, corpus_dir, tmp_path, doc, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        self.check(["train", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--config", cfg], 2, message=message)

    def test_out_names_an_existing_file(self, corpus_dir, trained_dir, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        self.check(["cluster", "--data", corpus_dir, "--out", out,
                    "--model", trained_dir / "model.json"], 2, message="cannot write")

    def test_missing_model_file(self, corpus_dir, tmp_path):
        self.check(["cluster", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--model", tmp_path / "absent.json"], 3)

    def test_missing_corpus_file(self, tmp_path):
        data = tmp_path / "empty"
        data.mkdir()
        self.check(eval_argv(data, tmp_path), 3)

    def test_author_entry_without_position(self, tmp_path):
        data = tmp_path / "data"
        write_corpus(data, {"p": {"title": "t", "authors": [{"name": "A B"}]}})
        self.check(eval_argv(data, tmp_path), 3)

    def test_papers_file_is_a_list(self, tmp_path):
        data = tmp_path / "data"
        write_corpus(data, [{"title": "t"}])
        self.check(eval_argv(data, tmp_path), 3)

    def test_boolean_year(self, tmp_path):
        data = tmp_path / "data"
        write_corpus(data, {"p": {"title": "t", "year": True,
                                  "authors": [{"position": 1, "name": "A B"}]}})
        self.check(eval_argv(data, tmp_path), 3)

    def test_model_without_schema(self, corpus_dir, trained_dir, tmp_path):
        doc = json.loads((trained_dir / "model.json").read_text())
        del doc["schema"]
        bad = tmp_path / "no_schema.json"
        bad.write_text(json.dumps(doc))
        self.check(["cluster", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--model", bad], 3)

    def test_non_numeric_embedding(self, tmp_path):
        data = tmp_path / "data"
        write_corpus(data, {"p": {"title": "t",
                                  "authors": [{"position": 1, "name": "A B"}]}})
        (data / "embeddings.json").write_text(
            json.dumps({"dim": 2, "vectors": {"p": [0.5, "x"]}})
        )
        self.check(eval_argv(data, tmp_path), 3)

    @pytest.mark.parametrize("dim", ["x", 2.5], ids=["string", "fraction"])
    def test_embedding_dim_not_an_integer(self, tmp_path, dim):
        data = tmp_path / "data"
        write_corpus(data, {"p": {"title": "t",
                                  "authors": [{"position": 1, "name": "A B"}]}})
        (data / "embeddings.json").write_text(
            json.dumps({"dim": dim, "vectors": {"p": [0.5, 0.5]}})
        )
        (data / "clusters.json").write_text(json.dumps({"c": ["s"]}))
        self.check(["eval", "--data", data, "--pred", data / "clusters.json",
                    "--out", tmp_path / "o"], 3, message="must be an integer")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["first"].update({next(iter(doc["first"])): "x"}),
        lambda doc: doc.update({"last": sorted(doc["last"])}),
    ], ids=["count_string", "table_list"])
    def test_malformed_name_counts(self, corpus_dir, trained_dir, tmp_path, edit):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        doc = json.loads((data / "name_counts.json").read_text())
        edit(doc)
        (data / "name_counts.json").write_text(json.dumps(doc))
        self.check(["cluster", "--data", data, "--out", tmp_path / "o",
                    "--model", trained_dir / "model.json"], 3, message="integer counts")

    @pytest.mark.parametrize("doc, message", [
        ({"n_authors": "x"}, "'n_authors'"),
        ({"community_size": 0}, "'community_size'"),
    ], ids=["n_authors_string", "community_size_zero"])
    def test_bad_generator_config(self, tmp_path, doc, message):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(doc))
        self.check(["synth", "--out", tmp_path / "c", "--config", cfg], 2, message=message)
        assert not (tmp_path / "c").exists()

    def cluster_with_model(self, corpus_dir, trained_dir, tmp_path, edit, timeout=120):
        doc = json.loads((trained_dir / "model.json").read_text())
        edit(doc)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        self.check(["cluster", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--model", bad], 3, timeout)

    def test_model_without_full_member(self, corpus_dir, trained_dir, tmp_path):
        self.cluster_with_model(
            corpus_dir, trained_dir, tmp_path, lambda doc: doc.pop("full")
        )

    def test_model_with_cyclic_tree(self, corpus_dir, trained_dir, tmp_path):
        def loop_root(doc):
            tree = doc["full"]["trees"][0]
            assert tree["feature"][0] >= 0
            tree["left"][0] = 0

        # the unchecked model sends every pair round the root forever
        self.cluster_with_model(corpus_dir, trained_dir, tmp_path, loop_root, 60)

    def test_model_with_nan_threshold(self, corpus_dir, trained_dir, tmp_path):
        def nan_root(doc):
            tree = doc["full"]["trees"][0]
            assert tree["feature"][0] >= 0
            tree["threshold"][0] = float("nan")

        self.cluster_with_model(corpus_dir, trained_dir, tmp_path, nan_root)

    def test_model_with_nan_linear_weight(self, corpus_dir, trained_dir, tmp_path):
        def nan_linear(doc):
            n = len(doc["schema"]["features"])
            doc["full"] = {"kind": "linear", "weights": [float("nan")] + [0.0] * (n - 1),
                           "bias": 0.0, "medians": [0.0] * n}

        self.cluster_with_model(corpus_dir, trained_dir, tmp_path, nan_linear)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["cluster_params"].update({"eps": "x"}),
        lambda doc: doc["cluster_params"].update({"dbscan_min_samples": "x"}),
        lambda doc: doc.update({"cluster_params": [1]}),
    ], ids=["eps_string", "min_samples_string", "params_list"])
    def test_model_with_mistyped_cluster_params(self, corpus_dir, trained_dir, tmp_path, edit):
        self.cluster_with_model(corpus_dir, trained_dir, tmp_path, edit)

    def train_with_splits(self, corpus_dir, fast_config, tmp_path, splits):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        (data / "splits.json").write_text(json.dumps(splits))
        self.check(["train", "--data", data, "--out", tmp_path / "o",
                    "--config", fast_config], 3)

    def test_splits_file_is_a_list(
        self, corpus_dir, trained_dir, fast_config, tmp_path
    ):
        splits = json.loads((trained_dir / "splits.json").read_text())
        self.train_with_splits(corpus_dir, fast_config, tmp_path, sorted(splits))

    def test_splits_value_not_a_split(
        self, corpus_dir, trained_dir, fast_config, tmp_path
    ):
        splits = json.loads((trained_dir / "splits.json").read_text())
        splits[min(splits)] = "holdout"
        self.train_with_splits(corpus_dir, fast_config, tmp_path, splits)

    def test_splits_key_not_a_block(
        self, corpus_dir, trained_dir, fast_config, tmp_path
    ):
        splits = json.loads((trained_dir / "splits.json").read_text())
        splits["zz nosuchblock"] = "train"
        self.train_with_splits(corpus_dir, fast_config, tmp_path, splits)

    @pytest.mark.parametrize("edit", [
        set_signature("last", 5),
        set_signature("signature_id", [1]),
        set_signature("paper_id", [1]),
        set_signature("affiliations", [5]),
        set_signature("affiliations", "MIT"),
        set_signature("author_position", True),
        set_author("position", "1", 1),
        set_author("name", 7, 2),
        set_paper("title", 7),
        set_paper("references", 7),
        set_paper("references", [7]),
        set_paper("authors", 7),
    ], ids=["last_number", "signature_id_list", "paper_id_list", "affiliation_number",
            "affiliations_string", "author_position_bool", "author_position_string",
            "author_name_number", "title_number", "references_number",
            "reference_number", "authors_number"])
    def test_mistyped_corpus_field(self, trained_dir, tmp_path, edit):
        data = tmp_path / "data"
        write_pair_corpus(data, edit)
        self.check(["cluster", "--data", data, "--out", tmp_path / "o",
                    "--model", trained_dir / "model.json"], 3)

    def test_pair_corpus_unedited_clusters(self, trained_dir, tmp_path):
        data = tmp_path / "data"
        write_pair_corpus(data, lambda papers, signatures: None)
        assert run(["cluster", "--data", data, "--out", tmp_path / "o",
                    "--model", trained_dir / "model.json"]) == 0

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_cluster_jobs_below_one(self, corpus_dir, trained_dir, tmp_path, jobs):
        self.check(["cluster", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--model", trained_dir / "model.json", "--jobs", jobs], 2,
                   message="--jobs")

    def test_non_integer_jobs_environment(self, corpus_dir, trained_dir, tmp_path):
        proc = run_process(["cluster", "--data", corpus_dir, "--out", tmp_path / "o",
                            "--model", trained_dir / "model.json"],
                           env={"ANDLIB_JOBS": "x"})
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "argument --jobs: invalid int value: 'x'" in proc.stderr, proc.stderr
        assert proc.returncode == 2

    def test_tune_with_unknown_hyperparameter(self, corpus_dir, tmp_path):
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps({"hyperparams": {"bogus": 1}}))
        self.check(["tune", "--data", corpus_dir, "--out", tmp_path / "t",
                    "--config", cfg, "--budget", 1], 2)

    def test_tune_on_single_class_validation(self, tmp_path):
        data = tmp_path / "c30"
        assert run(["synth", "--out", data, "--seed", 0, "--authors", 30]) == 0
        self.check(["tune", "--data", data, "--out", tmp_path / "t", "--budget", 1], 2)
