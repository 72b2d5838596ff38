"""Batch command-line interface.

Subcommands: synth, train, tune, cluster, eval, ablate, facets. A flag
overrides the setting of the same name. Every command takes an output
directory, writes the settings it ran with there as resolved_config.json,
and is deterministic given (config, seed). Exit codes: 0 success, 2 usage
or bad configuration, 3 data integrity, 4 model/schema mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from . import blocking, cluster, metrics, model, pipeline
from .cluster import STORED_CLUSTER_PARAMS, ClusterParams
from .corpus import (
    Dataset,
    build_name_counts,
    load_dataset,
    load_name_counts,
    load_partition,
    save_dataset,
    save_name_counts,
    save_partition,
)
from .errors import (
    AndError,
    ConfigError,
    DegenerateSplitError,
    DimensionError,
    IntegrityError,
    ParseError,
    SchemaMismatchError,
)
from .pipeline import RunConfig
from .settings import read_json, write_json
from .synthetic import GeneratorConfig, generate_synthetic_corpus

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SCHEMA = 4


@contextlib.contextmanager
def _writing():
    """Report a failure to create or write an output file as a usage error
    (an ``--out`` that names a file, or a directory that is not writable)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _write_json(doc, out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, name)
    with _writing():
        os.makedirs(out_dir, exist_ok=True)
        write_json(doc, path)
    return path


def _write_tsv(rows: list[tuple], header: tuple[str, ...], out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, name)
    with _writing():
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(str(v) for v in row) + "\n")
    return path


def _load_config_file(path: str | None) -> dict:
    return read_json(path, ConfigError) if path else {}


def _data_paths(data_dir: str) -> dict:
    return {
        "papers_file": os.path.join(data_dir, "papers.json"),
        "signatures_file": os.path.join(data_dir, "signatures.json"),
        "clusters_file": _maybe(os.path.join(data_dir, "clusters.json")),
        "embeddings_file": _maybe(os.path.join(data_dir, "embeddings.json")),
        "splits_file": _maybe(os.path.join(data_dir, "splits.json")),
    }


def _maybe(path: str) -> str | None:
    return path if os.path.exists(path) else None


def _load_data(args) -> Dataset:
    return load_dataset(**_data_paths(args.data))


def _load_counts(args, dataset: Dataset):
    sidecar = args.name_counts or _maybe(
        os.path.join(args.data, "name_counts.json")
    )
    return load_name_counts(sidecar) if sidecar else build_name_counts(dataset)


def _flags(args, settings) -> dict:
    """The values of ``settings`` (a settings class) given on the command
    line: each flag's dest is the field it overrides, None when not given."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(settings)}
    return {name: value for name, value in values.items() if value is not None}


def _run_config(args) -> RunConfig:
    """Config file first, then command-line flags on top (flags win)."""
    cfg = RunConfig.from_doc(_load_config_file(args.config))
    overrides = _flags(args, RunConfig)
    if args.drop:
        overrides["drop_features"] = cfg.drop_features + tuple(args.drop)
    return dataclasses.replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# subcommands: each returns the settings document it ran with
# ---------------------------------------------------------------------------


def cmd_synth(args) -> dict:
    cfg = GeneratorConfig.from_doc(_load_config_file(args.config))
    cfg = dataclasses.replace(cfg, **_flags(args, GeneratorConfig))
    dataset = generate_synthetic_corpus(args.seed, cfg)
    with _writing():
        save_dataset(dataset, args.out)
        save_name_counts(
            build_name_counts(dataset), os.path.join(args.out, "name_counts.json")
        )
    print(
        f"wrote corpus: {len(dataset.papers)} papers, "
        f"{len(dataset.signatures)} signatures, "
        f"{len(dataset.gold.clusters())} clusters -> {args.out}"
    )
    return {"seed": args.seed, "generator": cfg.to_doc()}


def cmd_train(args) -> dict:
    cfg = _run_config(args)
    dataset = _load_data(args)
    result = pipeline.train_pipeline(dataset, cfg, _load_counts(args, dataset), args.jobs)
    model_path = os.path.join(args.out, "model.json")
    with _writing():
        os.makedirs(args.out, exist_ok=True)
        model.save_ensemble(
            model_path,
            result.classifier,
            result.hyperparams,
            cfg.seed,
            cluster_params={
                key: getattr(result.cluster_params, key) for key in STORED_CLUSTER_PARAMS
            },
        )
    _write_json(result.dataset.splits, args.out, "splits.json")
    _write_json(result.report, args.out, "report.json")
    for key in sorted(result.report):
        print(f"{key}: {result.report[key]}")
    print(f"model -> {model_path}")
    return cfg.to_doc()


def cmd_tune(args) -> dict:
    cfg = _run_config(args)
    dataset = _load_data(args)
    if dataset.splits is None:
        dataset = pipeline.split_blocks(dataset, cfg.seed, cfg.fractions)
    schema = pipeline.resolve_schema(cfg)
    counts = _load_counts(args, dataset)
    X, y, val, _ = pipeline.sample_train_val(
        dataset, cfg, counts, schema, blocking.build_blocks(dataset)
    )
    budget = max(cfg.tune_budget, 1)
    hp, score = pipeline.tune_hyperparams(X, y, val, cfg, schema, budget)
    _write_json(hp.to_doc(), args.out, "hyperparams.json")
    print(f"best validation AUROC {score:.4f}")
    for key, value in sorted(hp.to_doc().items()):
        print(f"{key}: {value}")
    return {**cfg.to_doc(), "tune_budget": budget}


def cmd_cluster(args) -> dict:
    dataset = _load_data(args)
    counts = _load_counts(args, dataset)
    ens, meta = model.load_ensemble(args.model)
    params = ClusterParams.from_doc(
        {**(meta.get("cluster_params") or {}), **_flags(args, ClusterParams)}
    )
    pred = cluster.cluster_corpus(dataset, ens, params, counts, jobs=args.jobs)
    out_path = os.path.join(args.out, "clusters.json")
    with _writing():
        os.makedirs(args.out, exist_ok=True)
        save_partition(pred, out_path)
    print(f"{len(pred.clusters())} clusters over {len(pred)} signatures -> {out_path}")
    return {"model": args.model, **params.to_doc()}


def _items(text: str | None, flag: str, parse=str) -> tuple:
    """The comma-separated value of ``flag``, each item stripped and read by
    ``parse``; () when the flag is not given. An empty or a repeated item is
    refused."""
    if text is None:
        return ()
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise ConfigError(f"{flag} has an empty item: {text!r}")
    items = tuple(map(parse, parts))
    if len(set(items)) < len(items):
        raise ConfigError(f"{flag} repeats an item: {text!r}")
    return items


def cmd_eval(args) -> dict:
    facets = _items(args.facets, "--facets")
    unknown = set(facets) - set(metrics.FACETS)
    if unknown:
        raise ConfigError(
            f"unknown facets {sorted(unknown)}; valid: {', '.join(metrics.FACETS)}"
        )
    dataset = _load_data(args)
    pred = load_partition(args.pred)
    gold_path = args.gold or os.path.join(args.data, "clusters.json")
    gold = load_partition(gold_path)
    report = pipeline.evaluate_partition(pred, gold, dataset, facets=facets)
    _write_json(report, args.out, "metrics.json")
    print(f"records: {report['records']}")
    print(f"b3_precision: {report['b3_precision']:.4f}")
    print(f"b3_recall: {report['b3_recall']:.4f}")
    print(f"b3_f1: {report['b3_f1']:.4f}")
    print(f"pairwise_macro_f1: {report['pairwise_macro_f1']:.4f}")
    if facets:
        rows = [
            (facet, entry["bin"], entry["count"], f"{entry['mean_f1']:.6f}")
            for facet in facets
            for entry in report["facets"][facet]
        ]
        path = _write_tsv(rows, ("facet", "bin", "count", "mean_f1"), args.out, "facets.tsv")
        for row in rows:
            print("\t".join(str(v) for v in row))
        print(f"facet table -> {path}")
    return {"pred": args.pred, "gold": gold_path, "facets": list(facets)}


def _seed(text: str) -> int:
    """One item of ``--seeds``: an integer >= 0."""
    if not text.isdecimal():
        raise ConfigError(f"--seeds must be comma-separated integers >= 0, got {text!r}")
    return int(text)


def cmd_ablate(args) -> dict:
    cfg = _run_config(args)
    seeds = _items(args.seeds, "--seeds", _seed) or (cfg.seed,)
    axes = _items(args.axes, "--axes")
    configs = pipeline.ablation_configs(cfg, axes)
    dataset = _load_data(args)
    rows = pipeline.run_ablation(
        dataset, configs, seeds, _load_counts(args, dataset), args.jobs
    )
    tsv_rows = [
        (r["axis"], f"{r['mean_b3_f1']:.6f}", f"{r['delta']:.6f}") for r in rows
    ]
    _write_tsv(tsv_rows, ("axis", "mean_b3_f1", "delta"), args.out, "ablation.tsv")
    _write_json(rows, args.out, "ablation.json")
    print("axis\tmean_b3_f1\tdelta")
    for row in tsv_rows:
        print("\t".join(row))
    return {**cfg.to_doc(), "axes": list(axes), "seeds": list(seeds)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand. A flag that overrides a setting has
    the setting's name as its dest and None as its default."""
    parser = argparse.ArgumentParser(
        prog="andlib",
        description="Author name disambiguation: train, cluster, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--authors", dest="n_authors", metavar="AUTHORS", type=int)
    p.add_argument("--mean-papers", type=float)
    p.add_argument("--collision-rate", type=float)
    p.add_argument("--embedding-noise", type=float)
    p.set_defaults(func=cmd_synth)

    def add_cluster_flags(p):
        p.add_argument("--data", required=True, help="corpus directory")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--name-counts")
        p.add_argument("--linkage", choices=cluster.LINKAGES)
        p.add_argument("--method", choices=cluster.METHODS)
        p.add_argument("--eps", type=float)
        p.add_argument("--no-name-rules", dest="name_rules", action="store_false", default=None)

    def add_run_flags(p):
        add_cluster_flags(p)
        p.add_argument("--config", help="run config JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--train-cap", type=int)
        p.add_argument("--val-cap", type=int)
        p.add_argument("--tune-budget", type=int)
        p.add_argument("--eps-budget", type=int)
        p.add_argument("--classifier", choices=("gbt", "linear"))
        p.add_argument("--knockout", action="store_true", default=None)
        p.add_argument("--knockout-probability", type=float)
        p.add_argument("--drop", action="append", metavar="FEATURE_OR_GROUP")
        p.add_argument("--no-nameless", dest="use_nameless", action="store_false", default=None)
        p.add_argument("--no-monotone", dest="use_monotone", action="store_false", default=None)

    p = sub.add_parser("train", help="train the pairwise ensemble and tune eps")
    add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="random search over hyperparameters")
    add_run_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("cluster", help="cluster a corpus with a trained model")
    add_cluster_flags(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_cluster)

    for name, text in (
        ("eval", "score a predicted partition"),
        ("facets", "facet-sliced report for a prediction"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--pred", required=True)
        p.add_argument("--gold")
        p.add_argument("--facets", required=name == "facets")
        p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run ablation axes against a baseline")
    add_run_flags(p)
    p.add_argument("--axes", help="comma-separated axis names")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.set_defaults(func=cmd_ablate)

    # worker processes, not a setting: no result depends on them. argparse
    # runs a string default through type=int, so a bad ANDLIB_JOBS exits 2
    default_jobs = os.environ.get("ANDLIB_JOBS", "1")
    for name in ("train", "cluster", "ablate"):
        sub.choices[name].add_argument("--jobs", type=int, default=default_jobs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and write the settings it ran with to
    ``resolved_config.json`` in its output directory."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be an integer >= 1, got {args.jobs}")
        _write_json(args.func(args), args.out, "resolved_config.json")
        return 0
    except (ParseError, IntegrityError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SchemaMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ConfigError, DegenerateSplitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AndError as exc:  # any future library error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
