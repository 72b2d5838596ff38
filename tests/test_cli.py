from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import andlib
from andlib import cli, model, pipeline
from andlib.blocking import build_blocks
from andlib.cli import build_parser, main
from andlib.cluster import ClusterParams, names_compatible
from andlib.corpus import NameCountsTable, load_dataset, load_partition, save_name_counts
from andlib.features import default_schema
from andlib.gbt import HyperParams
from andlib.pipeline import RunConfig
from andlib.synthetic import GeneratorConfig

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

    def test_no_name_rules_lets_incompatible_names_merge(
        self, corpus_dir, trained_dir, tmp_path
    ):
        ds = load_dataset(corpus_dir / "papers.json", corpus_dir / "signatures.json")
        first = {k: s.name.first for k, s in ds.signatures.items()}

        def incompatible_pairs(groups) -> int:
            return sum(
                not names_compatible(first[a], first[b])
                for members in groups
                for i, a in enumerate(members)
                for b in members[i + 1:]
            )

        # the corpus must block together names the rule keeps apart
        assert incompatible_pairs([b.members for b in build_blocks(ds)]) > 0
        for flags, rules in (([], True), (["--no-name-rules"], False)):
            out = tmp_path / str(rules)
            # at eps 1 every block would merge whole but for the vetoes
            assert run(["cluster", "--data", corpus_dir, "--out", out, "--eps", 1.0,
                        "--model", trained_dir / "model.json", *flags]) == 0
            pred = load_partition(out / "clusters.json")
            clusters = [sorted(c) for c in pred.clusters().values()]
            assert (incompatible_pairs(clusters) > 0) is not rules
            resolved = json.loads((out / "resolved_config.json").read_text())
            assert resolved["name_rules"] is rules


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

    @pytest.mark.parametrize("axis", ["train-size:abc", "bogus", "drop:nosuch"])
    def test_bad_axis_fails_before_loading_or_training(
        self, corpus_dir, fast_config, tmp_path, monkeypatch, capsys, axis
    ):
        # train-size:abc used to end in a ValueError traceback, and every
        # bad axis failed only after the baseline had trained
        calls = []
        monkeypatch.setattr(pipeline, "train_pipeline", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: calls.append(a))
        code = run(["ablate", "--data", corpus_dir, "--out", tmp_path / "z",
                    "--config", fast_config, "--axes", f"baseline,{axis}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert calls == []
        assert not (tmp_path / "z").exists()


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


class TestTrainJobs:
    def test_nameless_member_in_a_worker_gives_the_same_model(
        self, corpus_dir, fast_config, tmp_path, monkeypatch
    ):
        import multiprocessing

        contexts = []
        real = multiprocessing.get_context

        def counting(*args):
            contexts.append(args)
            return real(*args)

        monkeypatch.setattr(multiprocessing, "get_context", counting)
        models = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run(["train", "--data", corpus_dir, "--out", out, "--seed", 2,
                        "--config", fast_config, "--jobs", jobs]) == 0
            models.append((out / "model.json").read_bytes())
            assert len(contexts) == jobs - 1  # --jobs 1 starts no process
        assert models[0] == models[1]


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

        def fake_run(dataset, cfg, split="test", counts=None, jobs=1):
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
                    "--config", fast_config, "--tune-budget", 1, "--no-monotone"]) == 0
        assert set(seen["constraints"]) == {0}
        assert seen["overrides"] == {"n_trees": 25, "max_leaves": 8}
        hp = json.loads((out / "hyperparams.json").read_text())
        assert (hp["n_trees"], hp["max_leaves"]) == (25, 8)

    def test_knockout_tunes_on_the_augmented_rows(
        self, corpus_dir, fast_config, tmp_path, monkeypatch
    ):
        # as train --knockout does: the training pairs, then the same pairs
        # featurized against the degraded corpus
        rows = []

        def record(X, *args, **kwargs):
            rows.append(len(X))
            return HyperParams(), 0.5

        monkeypatch.setattr(model, "tune_hyperparameters", record)
        for flags in ([], ["--knockout"]):
            assert run(["tune", "--data", corpus_dir, "--out", tmp_path / "tune",
                        "--seed", 2, "--config", fast_config, "--tune-budget", 1,
                        *flags]) == 0
        assert rows[1] == 2 * rows[0] > 0

    def test_resolved_config_records_the_budget(
        self, corpus_dir, fast_config, tmp_path, monkeypatch
    ):
        # tune records the budget it ran, so a rerun from
        # resolved_config.json runs the same trials
        budgets = []

        def record(X, y, X_val, y_val, budget, *args, **kwargs):
            budgets.append(budget)
            return HyperParams(), 0.5

        monkeypatch.setattr(model, "tune_hyperparameters", record)
        first = tmp_path / "first"
        assert run(["tune", "--data", corpus_dir, "--out", first, "--seed", 2,
                    "--config", fast_config, "--tune-budget", 2]) == 0
        resolved = first / "resolved_config.json"
        assert json.loads(resolved.read_text())["tune_budget"] == 2
        assert run(["tune", "--data", corpus_dir, "--out", tmp_path / "rerun",
                    "--config", resolved]) == 0
        assert budgets == [2, 2]
        assert (tmp_path / "rerun" / "resolved_config.json").read_bytes() == (
            resolved.read_bytes()
        )


def setting_names(settings) -> set[str]:
    return {f.name for f in dataclasses.fields(settings)}


class TestFlagsAreSettings:
    """A flag that overrides a setting has the setting's name as its dest,
    and every such flag given on the command line is in the command's
    resolved_config.json."""

    NOT_SETTINGS = {
        # --jobs sets worker processes, which no result depends on
        "data", "out", "config", "model", "name_counts", "drop", "jobs",
        "axes", "seeds", "pred", "gold", "facets", "func", "command",
    }
    SETTINGS = {
        # synth records its seed next to the generator settings
        "synth": {"seed"} | setting_names(GeneratorConfig),
        "train": setting_names(RunConfig),
        "tune": setting_names(RunConfig),
        "ablate": setting_names(RunConfig),
        "cluster": setting_names(ClusterParams),
    }
    REQUIRED = {
        "synth": ["--out", "o"],
        "cluster": ["--data", "d", "--out", "o", "--model", "m"],
    }
    SETTING_FLAGS = [
        "--seed", 3, "--train-cap", 5000, "--val-cap", 400, "--tune-budget", 2,
        "--eps-budget", 3, "--linkage", "single", "--method", "dbscan",
        "--eps", 0.35, "--classifier", "linear", "--knockout",
        "--knockout-probability", 0.1, "--no-name-rules", "--no-nameless",
        "--no-monotone", "--drop", "title",
    ]
    # tune reads no jobs and takes no --jobs
    RUN_FLAGS = {
        "train": SETTING_FLAGS + ["--jobs", 2],
        "tune": SETTING_FLAGS,
        "ablate": SETTING_FLAGS + ["--jobs", 2],
    }

    def parse(self, argv) -> dict:
        return vars(build_parser().parse_args([str(a) for a in argv]))

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_every_dest_is_a_setting_or_named(self, command):
        argv = self.REQUIRED.get(command, ["--data", "d", "--out", "o"])
        dests = set(self.parse([command, *argv]))
        assert dests - self.NOT_SETTINGS <= self.SETTINGS[command]

    @pytest.mark.parametrize("flags", [["--jobs", 2], ["--budget", 2]])
    def test_tune_takes_no_jobs_or_budget(self, flags):
        # tune fits no member in a worker, and --tune-budget sets its budget
        with pytest.raises(SystemExit) as exc:
            self.parse(["tune", "--data", "d", "--out", "o", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_every_setting_flag_is_resolved(
        self, command, corpus_dir, fast_config, trained_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            model, "tune_hyperparameters", lambda *a, **k: (HyperParams(), 0.5)
        )
        monkeypatch.setattr(
            pipeline, "train_cluster_eval", lambda *a, **k: {"b3_f1": 1.0}
        )
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", out, "--seed", 4, "--authors", 12,
                    "--mean-papers", 3, "--collision-rate", 0.2, "--embedding-noise", 0.5]
        elif command == "cluster":
            argv = ["cluster", "--data", corpus_dir, "--out", out,
                    "--model", trained_dir / "model.json", "--linkage", "single",
                    "--method", "dbscan", "--eps", 0.3, "--no-name-rules"]
        else:
            argv = [command, "--data", corpus_dir, "--out", out,
                    "--config", fast_config, *self.RUN_FLAGS[command]]
        assert run(argv) == 0
        parsed = self.parse(argv)
        flags = {key: parsed[key] for key in self.SETTINGS[command] if key in parsed}
        assert None not in flags.values(), "give every settings flag"
        resolved = json.loads((out / "resolved_config.json").read_text())
        resolved.update(resolved.pop("generator", {}))
        assert {key: resolved[key] for key in flags} == flags
        if command in ("train", "tune", "ablate"):
            assert resolved["drop_features"] == ["title"]
        assert "jobs" not in resolved

    def test_absent_flags_keep_the_config(self, corpus_dir, tmp_path, monkeypatch):
        # a flag not given overrides nothing, booleans included
        doc = {
            "seed": 3, "fractions": [0.6, 0.2, 0.2], "train_cap": 5000, "val_cap": 400,
            "tune_budget": 2, "eps_budget": 3, "linkage": "single", "method": "dbscan",
            "dbscan_min_samples": 3, "eps": 0.35, "hyperparams": {"n_trees": 5},
            "knockout": True, "knockout_probability": 0.1, "drop_features": ["title"],
            "use_nameless": False, "use_monotone": False, "classifier": "linear",
            "linear_regularization": 0.01, "name_rules": False,
        }
        assert set(doc) == setting_names(RunConfig)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        monkeypatch.setattr(
            pipeline, "train_cluster_eval", lambda *a, **k: {"b3_f1": 1.0}
        )
        out = tmp_path / "out"
        assert run(["ablate", "--data", corpus_dir, "--out", out, "--config", cfg]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert {key: resolved[key] for key in doc} == doc


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


def set_tree(key, value, node=0):
    """Set one node's entry of the full member's first tree; ``node`` is an
    index or "leaf" for the first leaf."""
    def edit(doc):
        tree = doc["full"]["trees"][0]
        assert tree["feature"][0] >= 0
        tree[key][tree["feature"].index(-1) if node == "leaf" else node] = value
    return edit


def set_member(key, value):
    return lambda doc: doc["full"].__setitem__(key, value)


def repeat_first_key(doc) -> str:
    """``doc`` as JSON text, with the first key of its first object written
    twice."""
    text = json.dumps(doc)
    first = doc if isinstance(doc, dict) else doc[0]
    key = next(iter(first))
    at = text.index("{") + 1
    return text[:at] + json.dumps({key: first[key]})[1:-1] + ", " + text[at:]


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
        # jobs is no config key: --jobs sets it, and it used to be ignored
        ({"jobs": 2}, "'jobs'"),
        ({"train_cap": -5}, "'train_cap'"),
        ([1, 2], "JSON object"),
        # zero-size trees used to train a constant model and exit 0
        ({"hyperparams": {"n_trees": 0}}, "'n_trees'"),
        ({"hyperparams": {"max_depth": 0}}, "'max_depth'"),
        ({"hyperparams": {"max_leaves": 0}}, "'max_leaves'"),
        ({"hyperparams": {"max_leaves": 1}}, "'max_leaves'"),
        ({"hyperparams": {"max_bins": 0}}, "'max_bins'"),
        ({"hyperparams": {"max_bins": 1}}, "'max_bins'"),
    ], ids=["eps_string", "eps_budget_string", "seed_string", "fractions_number",
            "fractions_two", "jobs_zero", "jobs_two", "train_cap_negative", "top_level_list",
            "n_trees_zero", "max_depth_zero", "max_leaves_zero", "max_leaves_one",
            "max_bins_zero", "max_bins_one"])
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
        (data / "clusters.json").write_text(json.dumps({"c": ["s"]}))
        self.check(["eval", "--data", data, "--pred", data / "clusters.json",
                    "--out", tmp_path / "o"], 3, message="is not a list of numbers")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "infinity", "minus_infinity", "int_past_float"])
    def test_embedding_value_not_a_finite_number(self, tmp_path, value):
        # Python's json reads all four; a NaN vector used to count as missing,
        # an infinite one gave NaN cosines, and the integer ended in a traceback
        data = tmp_path / "data"
        write_corpus(data, {"p": {"title": "t",
                                  "authors": [{"position": 1, "name": "A B"}]}})
        (data / "embeddings.json").write_text(
            '{"dim": 2, "vectors": {"p": [0.5, %s]}}' % value
        )
        (data / "clusters.json").write_text(json.dumps({"c": ["s"]}))
        self.check(["eval", "--data", data, "--pred", data / "clusters.json",
                    "--out", tmp_path / "o"], 3, message="is not a list of numbers")

    def test_year_past_float_range(self, tmp_path):
        data = tmp_path / "data"
        write_corpus(data, {"p": {"title": "t", "year": 10**400,
                                  "authors": [{"position": 1, "name": "A B"}]}})
        (data / "clusters.json").write_text(json.dumps({"c": ["s"]}))
        self.check(["eval", "--data", data, "--pred", data / "clusters.json",
                    "--out", tmp_path / "o", "--facets", "year"],
                   3, message="year must be an integer")

    @pytest.mark.parametrize("doc, message", [
        (["s"], "expected an object of clusters"),
        ({"c": 5}, "must be an array of signature ids"),
        ({"c": "s"}, "must be an array of signature ids"),
        ({"c": [5]}, "non-string id"),
    ], ids=["top_level_list", "members_number", "members_string", "id_number"])
    def test_malformed_clusters(self, tmp_path, doc, message):
        data = tmp_path / "data"
        write_corpus(data, {"p": {"title": "t",
                                  "authors": [{"position": 1, "name": "A B"}]}})
        (data / "clusters.json").write_text(json.dumps({"c": ["s"]}))
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(doc))
        self.check(["eval", "--data", data, "--pred", pred, "--out", tmp_path / "o"],
                   3, message=message)

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
        lambda doc: doc["first"].update({next(iter(doc["first"])): 10**400}),
    ], ids=["count_string", "table_list", "count_past_float_range"])
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
        ({"n_authors": 0}, "'n_authors'"),
        # fixed in the generator, no longer a setting
        ({"community_size": 8}, "unknown generator settings: ['community_size']"),
    ], ids=["n_authors_string", "n_authors_zero", "fixed_community_size"])
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
        set_tree("feature", 1.5),
        set_tree("left", 1.5),
        set_tree("default_left", "no"),
        set_tree("threshold", "0.5"),
        set_tree("value", True, "leaf"),
        set_member("learning_rate", "0.1"),
        set_member("base_score", True),
        lambda doc: doc["full"]["constraints"].__setitem__(0, "1"),
        lambda doc: doc["full"]["constraints"].pop(),
        lambda doc: doc.__setitem__("full", {
            "kind": "linear", "bias": 0.0,
            "weights": ["1"] + [0.0] * (len(doc["schema"]["features"]) - 1),
            "medians": [0.0] * len(doc["schema"]["features"]),
        }),
        set_member("trees", {}),
    ], ids=["fractional_feature", "fractional_child", "string_default_left",
            "string_threshold", "boolean_leaf_value", "string_learning_rate",
            "boolean_base_score", "string_constraint", "constraints_too_short",
            "string_linear_weight", "trees_object"])
    def test_model_with_mistyped_member(self, corpus_dir, trained_dir, tmp_path, edit):
        # each of these used to load: numpy converted or truncated the value
        self.cluster_with_model(corpus_dir, trained_dir, tmp_path, edit)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["cluster_params"].update({"eps": "x"}),
        lambda doc: doc["cluster_params"].update({"dbscan_min_samples": "x"}),
        lambda doc: doc.update({"cluster_params": [1]}),
    ], ids=["eps_string", "min_samples_string", "params_list"])
    def test_model_with_mistyped_cluster_params(self, corpus_dir, trained_dir, tmp_path, edit):
        self.cluster_with_model(corpus_dir, trained_dir, tmp_path, edit)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["schema"]["features"][1].__setitem__(2, 0.5),
        lambda doc: doc["schema"]["features"][0].__setitem__(2, "1"),
        lambda doc: doc["schema"]["features"][0].__setitem__(3, "yes"),
        lambda doc: doc["schema"]["features"][0].__setitem__(0, 5),
        lambda doc: doc["schema"].__setitem__("hash", 5),
    ], ids=["fractional_monotone", "string_monotone", "string_nameless", "numeric_name",
            "numeric_hash"])
    def test_model_with_mistyped_schema_entry(self, corpus_dir, trained_dir, tmp_path, edit):
        # the loader used to convert with int() and bool() before hashing,
        # so the first three loaded (0.5 as 0, "1" as 1, "yes" as true), and
        # the last two exited 4 (schema mismatch) as if the data were sound
        doc = json.loads((trained_dir / "model.json").read_text())
        assert doc["schema"]["features"][0][2:] == [1, True]
        assert doc["schema"]["features"][1][2] == 0
        self.cluster_with_model(corpus_dir, trained_dir, tmp_path, edit)

    def test_model_with_one_leaf_trees(self, corpus_dir, trained_dir, tmp_path):
        self.cluster_with_model(
            corpus_dir, trained_dir, tmp_path,
            lambda doc: doc["hyperparams"].update({"max_leaves": 1}),
        )

    @pytest.mark.parametrize("key, value", [
        ("linkage", "bogus"),
        ("method", "bogus"),
        ("eps", 5.0),
        ("eps", -0.5),
        ("dbscan_min_samples", 0),
    ], ids=["unknown_linkage", "unknown_method", "eps_above_one", "eps_negative",
            "min_samples_zero"])
    def test_model_with_out_of_range_cluster_params(
        self, corpus_dir, trained_dir, tmp_path, key, value
    ):
        # a malformed model file is bad data (3), not a bad flag (2)
        self.cluster_with_model(
            corpus_dir, trained_dir, tmp_path,
            lambda doc: doc["cluster_params"].update({key: value}),
        )

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

    @pytest.mark.parametrize("command", ["cluster", "train", "ablate"])
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one(self, tmp_path, command, jobs):
        # checked before any file is read: neither corpus nor model exists
        argv = [command, "--data", tmp_path / "absent", "--out", tmp_path / "o",
                "--jobs", jobs]
        if command == "cluster":
            argv += ["--model", tmp_path / "absent.json"]
        self.check(argv, 2, message="--jobs")

    def test_jobs_environment_below_one(self, tmp_path):
        proc = run_process(["train", "--data", tmp_path / "absent", "--out", tmp_path / "o"],
                           env={"ANDLIB_JOBS": "0"})
        assert proc.stderr.startswith("error: ") and "--jobs" in proc.stderr, proc.stderr
        assert proc.returncode == 2

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
                    "--config", cfg, "--tune-budget", 1], 2)

    def test_tune_on_single_class_validation(self, tmp_path):
        data = tmp_path / "c30"
        assert run(["synth", "--out", data, "--seed", 0, "--authors", 30]) == 0
        self.check(["tune", "--data", data, "--out", tmp_path / "t", "--tune-budget", 1], 2)

    def test_synth_with_negative_seed(self, tmp_path):
        self.check(["synth", "--out", tmp_path / "o", "--seed", -1], 2, message="seed")

    @pytest.mark.parametrize("seeds", ["x", "-1", ","])
    def test_ablate_with_bad_seeds(self, corpus_dir, fast_config, tmp_path, seeds):
        self.check(["ablate", "--data", corpus_dir, "--out", tmp_path / "o",
                    "--config", fast_config, "--seeds", seeds], 2, message="--seeds")

    @pytest.mark.parametrize("flag, value, message", [
        ("--facets", "year,year", "repeats an item"),
        ("--facets", "year,", "has an empty item"),
        ("--seeds", "0,0", "repeats an item"),
        ("--seeds", "1,01", "repeats an item"),
        ("--seeds", "0,,1", "has an empty item"),
        ("--axes", "linear,linear", "repeats an item"),
        ("--axes", ",linear", "has an empty item"),
    ], ids=["facets_repeated", "facets_empty", "seeds_repeated", "seeds_same_number",
            "seeds_empty", "axes_repeated", "axes_empty"])
    def test_comma_list_with_repeated_or_empty_item(self, tmp_path, flag, value, message):
        # checked before any file is read. A repeated facet used to be written
        # twice to facets.tsv, a repeated seed averaged twice and a repeated
        # axis trained twice; an empty facet or axis was dropped silently
        argv = ["ablate", "--data", tmp_path / "absent", "--out", tmp_path / "o", flag, value]
        if flag == "--facets":
            argv[0:1] = ["eval", "--pred", tmp_path / "absent.json"]
        self.check(argv, 2, message=f"{flag} {message}")

    @pytest.mark.parametrize("bad", ["non_utf8", "nested", "repeated_key"])
    @pytest.mark.parametrize("kind", [
        "run_config", "generator_config", "papers", "signatures", "embeddings",
        "splits", "name_counts", "pred", "model",
    ])
    def test_unreadable_json_file(self, corpus_dir, trained_dir, tmp_path, kind, bad):
        # one reader for every file: a config or model file with a non-UTF-8
        # byte, and any file nested too deep, used to end in a traceback; a
        # repeated key was refused only in papers.json and clusters.json
        data, out = tmp_path / "data", tmp_path / "o"
        run_json, gen_json, pred, counts, model_json = (
            tmp_path / name
            for name in ("run.json", "gen.json", "pred.json", "counts.json", "model.json")
        )
        write_corpus(data, {"p": {"title": "t",
                                  "authors": [{"position": 1, "name": "A B"}]}})
        for path, doc in [
            (data / "clusters.json", {"c": ["s"]}),
            (data / "embeddings.json", {"dim": 2, "vectors": {"p": [0.5, 0.5]}}),
            (data / "splits.json", {"_ b": "train"}),
            (pred, {"c": ["s"]}),
            (run_json, {"eps": 0.3}),
            (gen_json, {"n_authors": 5}),
        ]:
            path.write_text(json.dumps(doc))
        shutil.copy(corpus_dir / "name_counts.json", counts)
        shutil.copy(trained_dir / "model.json", model_json)
        evaluate = ["eval", "--data", data, "--out", out, "--pred", pred]
        cluster = ["cluster", "--data", corpus_dir, "--out", out, "--model"]
        code, path, argv = {
            "run_config": (2, run_json, ["train", "--data", corpus_dir, "--out", out,
                                         "--config", run_json]),
            "generator_config": (2, gen_json, ["synth", "--out", out, "--config", gen_json]),
            "papers": (3, data / "papers.json", evaluate),
            "signatures": (3, data / "signatures.json", evaluate),
            "embeddings": (3, data / "embeddings.json", evaluate),
            "splits": (3, data / "splits.json", evaluate),
            "name_counts": (3, counts, cluster + [trained_dir / "model.json",
                                                  "--name-counts", counts]),
            "pred": (3, pred, evaluate),
            "model": (3, model_json, cluster + [model_json]),
        }[kind]
        doc = json.loads(path.read_text())
        path.write_bytes({
            "non_utf8": b'{"\xff": 1}',
            "nested": b"[" * 5000,
            "repeated_key": repeat_first_key(doc).encode(),
        }[bad])
        self.check(argv, code, message=f"{path}: repeated key" if bad == "repeated_key"
                   else f"{path}: ")


class TestNoOpenSSL:
    """The schema hash comes from CPython's built-in SHA-1, so loading a
    model does not map OpenSSL's libcrypto into the process."""

    def test_cluster_and_eval_do_not_import_hashlib_backend(
        self, corpus_dir, trained_dir, tmp_path
    ):
        out = tmp_path / "o"
        cluster = ["cluster", "--data", corpus_dir, "--out", out,
                   "--model", trained_dir / "model.json"]
        evaluate = ["eval", "--data", corpus_dir, "--out", out,
                    "--pred", out / "clusters.json"]
        script = (
            "import json, sys\n"
            "from andlib.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, '_hashlib' in sys.modules]))\n"
        )
        argvs = json.dumps([[str(a) for a in cluster], [str(a) for a in evaluate]])
        src = os.path.dirname(os.path.dirname(os.path.abspath(andlib.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, argvs], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert not loaded

    @pytest.mark.parametrize("drop", [None, "references"])
    def test_schema_hash_is_hashlib_sha1(self, drop):
        schema = default_schema()
        if drop is not None:
            schema = schema.drop(schema.groups()[drop])
        doc = [[f.name, f.group, f.monotone, f.nameless] for f in schema.features]
        blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        assert schema.schema_hash == hashlib.sha1(blob).hexdigest()
