"""Batch command-line interface.

Subcommands: synth, train, tune, cluster, eval, ablate, facets. Every
command takes an output directory, writes its resolved configuration there,
and is deterministic given (config, seed). Exit codes: 0 success, 2 usage
or bad configuration, 3 data integrity, 4 model/schema mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import blocking, cluster, metrics, model, pipeline
from .cluster import ClusterParams, NameRules
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
from .gbt import HyperParams
from .pipeline import RunConfig
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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    sidecar = getattr(args, "name_counts", None) or _maybe(
        os.path.join(args.data, "name_counts.json")
    )
    return load_name_counts(sidecar) if sidecar else build_name_counts(dataset)


def _run_config(args) -> RunConfig:
    """Config file first, then command-line flags on top (flags win)."""
    doc = _load_config_file(getattr(args, "config", None))
    cfg = RunConfig.from_doc(doc)
    overrides = {}
    for flag, key in (
        ("seed", "seed"),
        ("train_cap", "train_cap"),
        ("val_cap", "val_cap"),
        ("tune_budget", "tune_budget"),
        ("eps_budget", "eps_budget"),
        ("linkage", "linkage"),
        ("method", "method"),
        ("eps", "eps"),
        ("classifier", "classifier"),
        ("jobs", "jobs"),
        ("knockout_probability", "knockout_probability"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "knockout", False):
        overrides["knockout"] = True
    if getattr(args, "no_name_rules", False):
        overrides["name_rules"] = False
    if getattr(args, "no_nameless", False):
        overrides["use_nameless"] = False
    if getattr(args, "no_monotone", False):
        overrides["use_monotone"] = False
    if getattr(args, "drop", None):
        overrides["drop_features"] = tuple(cfg.drop_features) + tuple(args.drop)
    return RunConfig.from_doc({**cfg.to_doc(), **overrides})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = GeneratorConfig.from_doc(_load_config_file(args.config))
    overrides = {}
    for flag, key in (
        ("authors", "n_authors"),
        ("mean_papers", "mean_papers"),
        ("collision_rate", "collision_rate"),
        ("embedding_noise", "embedding_noise"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[key] = value
    cfg = GeneratorConfig.from_doc({**cfg.to_doc(), **overrides})
    dataset = generate_synthetic_corpus(args.seed, cfg)
    with _writing():
        save_dataset(dataset, args.out)
        save_name_counts(
            build_name_counts(dataset), os.path.join(args.out, "name_counts.json")
        )
    _write_json(
        {"seed": args.seed, "generator": cfg.to_doc()}, args.out, "resolved_config.json"
    )
    print(
        f"wrote corpus: {len(dataset.papers)} papers, "
        f"{len(dataset.signatures)} signatures, "
        f"{len(dataset.gold.clusters())} clusters -> {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    dataset = _load_data(args)
    result = pipeline.train_pipeline(dataset, cfg, counts=_load_counts(args, dataset))
    model_path = os.path.join(args.out, "model.json")
    with _writing():
        os.makedirs(args.out, exist_ok=True)
        model.save_ensemble(
            model_path,
            result.classifier,
            result.hyperparams,
            cfg.seed,
            cluster_params={
                "linkage": result.cluster_params.linkage,
                "eps": result.cluster_params.eps,
                "method": result.cluster_params.method,
                "dbscan_min_samples": result.cluster_params.dbscan_min_samples,
            },
        )
    _write_json(result.dataset.splits, args.out, "splits.json")
    _write_json(result.report, args.out, "report.json")
    _write_json(cfg.to_doc(), args.out, "resolved_config.json")
    for key in sorted(result.report):
        print(f"{key}: {result.report[key]}")
    print(f"model -> {model_path}")
    return 0


def cmd_tune(args) -> int:
    cfg = _run_config(args)
    dataset = _load_data(args)
    if dataset.splits is None:
        dataset = pipeline.split_blocks(dataset, cfg.seed, cfg.fractions)
    schema = pipeline.resolve_schema(cfg)
    counts = _load_counts(args, dataset)
    train, val = pipeline.sample_train_val(
        dataset, cfg, counts, schema, blocking.build_blocks(dataset)
    )
    budget = args.budget if args.budget is not None else max(cfg.tune_budget, 1)
    hp, score = model.tune_hyperparameters(
        train.X,
        train.y,
        val.X,
        val.y,
        budget,
        cfg.seed,
        pipeline.gbt_constraints(cfg, schema),
        schema,
        overrides=cfg.hyperparams or None,
    )
    _write_json(hp.to_doc(), args.out, "hyperparams.json")
    _write_json(cfg.to_doc(), args.out, "resolved_config.json")
    print(f"best validation AUROC {score:.4f}")
    for key, value in sorted(hp.to_doc().items()):
        print(f"{key}: {value}")
    return 0


def cmd_cluster(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be an integer >= 1, got {args.jobs}")
    dataset = _load_data(args)
    counts = _load_counts(args, dataset)
    ens, meta = model.load_ensemble(args.model)
    stored = meta.get("cluster_params") or {}
    params = ClusterParams(
        linkage=args.linkage or stored.get("linkage", "average"),
        eps=args.eps if args.eps is not None else stored.get("eps", 0.5),
        method=args.method or stored.get("method", "hac"),
        dbscan_min_samples=stored.get("dbscan_min_samples", 2),
    )
    rules = NameRules(enabled=not args.no_name_rules)
    pred = cluster.cluster_corpus(
        dataset,
        ens,
        params,
        counts,
        ens.schema,
        rules=rules,
        jobs=args.jobs,
    )
    out_path = os.path.join(args.out, "clusters.json")
    with _writing():
        os.makedirs(args.out, exist_ok=True)
        save_partition(pred, out_path)
    _write_json(
        {
            "model": args.model,
            "linkage": params.linkage,
            "eps": params.eps,
            "method": params.method,
            "name_rules": rules.enabled,
        },
        args.out,
        "resolved_config.json",
    )
    print(f"{len(pred.clusters())} clusters over {len(pred)} signatures -> {out_path}")
    return 0


def _parse_facets(arg: str | None) -> tuple[str, ...]:
    if not arg:
        return ()
    facets = tuple(f.strip() for f in arg.split(",") if f.strip())
    unknown = set(facets) - set(metrics.FACETS)
    if unknown:
        raise ConfigError(
            f"unknown facets {sorted(unknown)}; valid: {', '.join(metrics.FACETS)}"
        )
    return facets


def cmd_eval(args) -> int:
    dataset = _load_data(args)
    pred = load_partition(args.pred)
    gold_path = args.gold or os.path.join(args.data, "clusters.json")
    gold = load_partition(gold_path)
    facets = _parse_facets(args.facets)
    report = pipeline.evaluate_partition(pred, gold, dataset, facets=facets)
    _write_json(report, args.out, "metrics.json")
    _write_json(
        {"pred": args.pred, "gold": gold_path, "facets": list(facets)},
        args.out,
        "resolved_config.json",
    )
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
    return 0


def cmd_facets(args) -> int:
    if not args.facets:
        raise ConfigError("facets command requires --facets")
    return cmd_eval(args)


def cmd_ablate(args) -> int:
    cfg = _run_config(args)
    dataset = _load_data(args)
    axes = tuple(a.strip() for a in (args.axes or "").split(",") if a.strip())
    seeds = tuple(int(s) for s in args.seeds.split(",")) if args.seeds else (cfg.seed,)
    rows = pipeline.run_ablation(dataset, cfg, axes, seeds, _load_counts(args, dataset))
    tsv_rows = [
        (r["axis"], f"{r['mean_b3_f1']:.6f}", f"{r['delta']:.6f}") for r in rows
    ]
    _write_tsv(tsv_rows, ("axis", "mean_b3_f1", "delta"), args.out, "ablation.tsv")
    _write_json(rows, args.out, "ablation.json")
    _write_json(
        {**cfg.to_doc(), "axes": list(axes), "seeds": list(seeds)},
        args.out,
        "resolved_config.json",
    )
    print("axis\tmean_b3_f1\tdelta")
    for row in tsv_rows:
        print("\t".join(row))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="andlib",
        description="Author name disambiguation: train, cluster, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse runs a string default through type=int: a bad value exits 2
    default_jobs = os.environ.get("ANDLIB_JOBS", "1")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--authors", type=int)
    p.add_argument("--mean-papers", dest="mean_papers", type=float)
    p.add_argument("--collision-rate", dest="collision_rate", type=float)
    p.add_argument("--embedding-noise", dest="embedding_noise", type=float)
    p.set_defaults(func=cmd_synth)

    def add_run_flags(p, with_training=True):
        p.add_argument("--data", required=True, help="corpus directory")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="run config JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--name-counts", dest="name_counts")
        p.add_argument("--jobs", type=int, default=default_jobs)
        if with_training:
            p.add_argument("--train-cap", dest="train_cap", type=int)
            p.add_argument("--val-cap", dest="val_cap", type=int)
            p.add_argument("--tune-budget", dest="tune_budget", type=int)
            p.add_argument("--eps-budget", dest="eps_budget", type=int)
            p.add_argument("--linkage", choices=cluster.LINKAGES)
            p.add_argument("--method", choices=("hac", "dbscan"))
            p.add_argument("--eps", type=float)
            p.add_argument("--classifier", choices=("gbt", "linear"))
            p.add_argument("--knockout", action="store_true")
            p.add_argument(
                "--knockout-probability", dest="knockout_probability", type=float
            )
            p.add_argument("--drop", action="append", metavar="FEATURE_OR_GROUP")
            p.add_argument("--no-name-rules", dest="no_name_rules", action="store_true")
            p.add_argument("--no-nameless", dest="no_nameless", action="store_true")
            p.add_argument("--no-monotone", dest="no_monotone", action="store_true")

    p = sub.add_parser("train", help="train the pairwise ensemble and tune eps")
    add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="random search over hyperparameters")
    add_run_flags(p)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("cluster", help="cluster a corpus with a trained model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--name-counts", dest="name_counts")
    p.add_argument("--linkage", choices=cluster.LINKAGES)
    p.add_argument("--method", choices=("hac", "dbscan"))
    p.add_argument("--eps", type=float)
    p.add_argument("--no-name-rules", dest="no_name_rules", action="store_true")
    p.add_argument("--jobs", type=int, default=default_jobs)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="score a predicted partition")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--gold")
    p.add_argument("--facets")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("facets", help="facet-sliced report for a prediction")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--gold")
    p.add_argument("--facets", required=True)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("ablate", help="run ablation axes against a baseline")
    add_run_flags(p)
    p.add_argument("--axes", help="comma-separated axis names")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
