from __future__ import annotations

import dataclasses

import pytest

from andlib import cluster
from andlib.cluster import ClusterParams
from andlib.corpus import split_blocks
from andlib.errors import ConfigError
from andlib.features import ADVANCED_NAME_FEATURES, default_schema
from andlib.pipeline import (
    RunConfig,
    ablation_axis_config,
    cluster_split,
    evaluate_partition,
    resolve_schema,
    train_pipeline,
)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(seed=3, drop_features=("embedding",), knockout=True)
        again = RunConfig.from_doc(cfg.to_doc())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_doc({"warp": 9})

    def test_defaults_pass_the_value_checks(self):
        assert RunConfig.from_doc(RunConfig().to_doc()) == RunConfig()

    def test_clustering_settings_are_declared_once(self):
        # every clustering setting but eps (None = tune it) and its rule
        # come from ClusterParams
        run = {f.name: f for f in dataclasses.fields(RunConfig)}
        for f in dataclasses.fields(ClusterParams):
            if f.name != "eps":
                assert run[f.name].metadata["rule"] is f.metadata["rule"], f.name
                assert run[f.name].default == f.default, f.name
        assert run["eps"].default is None

    @pytest.mark.parametrize("doc, key", [
        ({"knockout": 1}, "'knockout'"),
        ({"eps": 1.5}, "'eps'"),
        ({"eps": float("nan")}, "'eps'"),
        ({"linkage": "median"}, "'linkage'"),
        ({"drop_features": "embedding"}, "'drop_features'"),
        ({"seed": True}, "'seed'"),
        ({"hyperparams": {"n_trees": 2.5}}, "'n_trees'"),
        ({"hyperparams": {"row_subsample": 0}}, "'row_subsample'"),
        ({"hyperparams": {"learning_rate": -0.1}}, "'learning_rate'"),
    ])
    def test_bad_value_names_its_key(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_doc(doc)


class TestResolveSchema:
    def test_default(self):
        assert resolve_schema(RunConfig()) == default_schema()

    def test_drop_group(self):
        schema = resolve_schema(RunConfig(drop_features=("embedding",)))
        assert "embedding_cosine" not in schema.names

    def test_drop_advanced_names(self):
        schema = resolve_schema(RunConfig(drop_features=("advanced_names",)))
        assert not set(ADVANCED_NAME_FEATURES) & set(schema.names)
        assert "first_equal" in schema.names

    def test_drop_single_feature(self):
        schema = resolve_schema(RunConfig(drop_features=("year_diff",)))
        assert "year_diff" not in schema.names
        assert len(schema) == len(default_schema()) - 1

    def test_unknown_drop(self):
        with pytest.raises(ConfigError):
            resolve_schema(RunConfig(drop_features=("nope",)))


class TestAblationAxes:
    def test_axis_mapping(self):
        cfg = RunConfig()
        assert ablation_axis_config(cfg, "baseline") == cfg
        assert ablation_axis_config(cfg, "linkage:ward").linkage == "ward"
        assert ablation_axis_config(cfg, "dbscan").method == "dbscan"
        assert ablation_axis_config(cfg, "linear").classifier == "linear"
        assert ablation_axis_config(cfg, "no-nameless").use_nameless is False
        assert ablation_axis_config(cfg, "no-monotone").use_monotone is False
        assert ablation_axis_config(cfg, "train-size:1000").train_cap == 1000
        assert ablation_axis_config(cfg, "drop:title").drop_features == ("title",)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            ablation_axis_config(RunConfig(), "bogus")


@pytest.fixture(scope="module")
def trained_result(small_corpus):
    cfg = RunConfig(
        seed=1, hyperparams={"n_trees": 20, "max_leaves": 8}, eps_budget=6
    )
    return train_pipeline(small_corpus, cfg)


class TestTrainPipeline:
    @pytest.fixture()
    def result(self, trained_result):
        return trained_result

    def test_report_fields(self, result):
        for key in ("train_pairs", "val_pairs", "eps", "val_b3_f1"):
            assert key in result.report
        assert result.dataset.splits is not None

    def test_fixed_eps_skips_tuning(self, small_corpus):
        cfg = RunConfig(
            seed=1,
            eps=0.37,
            hyperparams={"n_trees": 10, "max_leaves": 4},
        )
        result = train_pipeline(small_corpus, cfg)
        assert result.cluster_params.eps == 0.37
        assert "val_b3_f1" not in result.report

    def test_cluster_split_covers_only_requested_blocks(self, result):
        pred = cluster_split(result, "test")
        test_keys = {
            k for k, v in result.dataset.splits.items() if v == "test"
        }
        from andlib.blocking import block_key

        for sig_id in pred.assignment:
            assert block_key(result.dataset.signatures[sig_id]) in test_keys

    def test_evaluate_partition_report(self, result):
        pred = cluster_split(result, "val")
        report = evaluate_partition(
            pred, result.dataset.gold, result.dataset, facets=("block_size",)
        )
        assert 0.0 <= report["b3_f1"] <= 1.0
        assert report["records"] == len(pred.assignment)
        assert report["facets"]["block_size"]

    def test_missing_gold_rejected(self, small_corpus):
        from andlib.corpus import Dataset

        ds = Dataset(
            papers=small_corpus.papers,
            signatures=small_corpus.signatures,
            gold=None,
        )
        with pytest.raises(ConfigError):
            train_pipeline(ds, RunConfig())

    @pytest.mark.parametrize("eps", [0.42, None], ids=["fixed", "tuned"])
    def test_cluster_params_are_the_run_settings(self, small_corpus, eps, monkeypatch):
        settings = {"linkage": "single", "method": "dbscan", "dbscan_min_samples": 3,
                    "name_rules": False}
        tuned = []
        real = cluster.tune_eps

        def spy(val_blocks, ens, dataset, counts, gold, params, *args):
            tuned.append(params)
            return real(val_blocks, ens, dataset, counts, gold, params, *args)

        monkeypatch.setattr(cluster, "tune_eps", spy)
        cfg = RunConfig(seed=1, eps=eps, eps_budget=3, use_nameless=False,
                        hyperparams={"n_trees": 5, "max_leaves": 4}, **settings)
        result = train_pipeline(small_corpus, cfg)
        assert result.cluster_params == ClusterParams(eps=result.report["eps"], **settings)
        if eps is None:
            assert [{k: getattr(p, k) for k in settings} for p in tuned] == [settings]
        else:
            assert result.report["eps"] == eps and not tuned

    def test_no_monotone_trains_unconstrained(self, small_corpus):
        cfg = RunConfig(
            seed=1,
            use_monotone=False,
            use_nameless=False,
            hyperparams={"n_trees": 5, "max_leaves": 4},
            eps=0.5,
        )
        result = train_pipeline(small_corpus, cfg)
        assert all(c == 0 for c in result.classifier.full_model.constraints)
        assert result.classifier.nameless_model is None
