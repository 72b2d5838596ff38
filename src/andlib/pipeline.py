"""End-to-end composition: train, cluster, evaluate, ablate.

This is the layer the command-line tool calls into; tests drive it directly.
Every entry point is deterministic given (dataset, config, seed).
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import blocking, cluster, metrics, model
from .cluster import ClusterParams, NameRules
from .corpus import (
    Dataset,
    KNOCKOUT_GROUPS,
    NameCountsTable,
    Partition,
    build_name_counts,
    knockout_augment,
    split_blocks,
)
from .errors import ConfigError, IntegrityError
from .features import (
    ADVANCED_NAME_FEATURES,
    FeatureSchema,
    default_schema,
    mask_nameless,
)
from .gbt import HyperParams
from .model import EnsembleClassifier, PairSample, sample_pairs


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one training/clustering run."""

    seed: int = 0
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    train_cap: int = 100_000
    val_cap: int = 10_000
    tune_budget: int = 0  # 0 = use default/overridden hyperparameters
    eps_budget: int = 24
    linkage: str = "average"
    method: str = "hac"
    dbscan_min_samples: int = 2
    eps: float | None = None  # None = tune on validation blocks
    hyperparams: dict = field(default_factory=dict)
    knockout: bool = False
    knockout_probability: float = 0.3
    drop_features: tuple[str, ...] = ()
    use_nameless: bool = True
    use_monotone: bool = True
    classifier: str = "gbt"  # or "linear"
    linear_regularization: float = 1e-3
    name_rules: bool = True
    jobs: int = 1

    def to_doc(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("a run config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            check, meaning = _CONFIG_RULES[key]
            if not check(value):
                raise ConfigError(f"config key {key!r} must be {meaning}, got {value!r}")
        clean = dict(doc)
        for key in ("fractions", "drop_features"):
            if key in clean and clean[key] is not None:
                clean[key] = tuple(clean[key])
        return cls(**clean)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite float, or an int a float can hold."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _at_least(low: int):
    return lambda value: _is_int(value) and value >= low


def _unit(value) -> bool:
    return _is_number(value) and 0.0 <= value <= 1.0


def _one_of(*options: str):
    return lambda value: isinstance(value, str) and value in options


def _fractions(value) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 3
        and all(_unit(f) for f in value)
        and abs(sum(value) - 1.0) <= 1e-9
    )


def _flag(value) -> bool:
    return isinstance(value, bool)


def _hyperparams(value) -> bool:
    """An object of hyperparameters; ``HyperParams.from_doc`` names a bad one."""
    return isinstance(value, dict) and HyperParams.from_doc(value) is not None


#: what each RunConfig value must be: (check, meaning for the error message)
_CONFIG_RULES = {
    "seed": (_at_least(0), "an integer >= 0"),
    "fractions": (_fractions, "three numbers in [0, 1] that sum to 1"),
    "train_cap": (_at_least(1), "an integer >= 1"),
    "val_cap": (_at_least(1), "an integer >= 1"),
    "tune_budget": (_at_least(0), "an integer >= 0"),
    "eps_budget": (_at_least(1), "an integer >= 1"),
    "linkage": (_one_of(*cluster.LINKAGES), f"one of {', '.join(cluster.LINKAGES)}"),
    "method": (_one_of("hac", "dbscan"), "hac or dbscan"),
    "dbscan_min_samples": (_at_least(1), "an integer >= 1"),
    "eps": (lambda v: v is None or _unit(v), "null or a number in [0, 1]"),
    "hyperparams": (_hyperparams, "an object of hyperparameters"),
    "knockout": (_flag, "true or false"),
    "knockout_probability": (_unit, "a number in [0, 1]"),
    "drop_features": (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
        "a list of feature or group names",
    ),
    "use_nameless": (_flag, "true or false"),
    "use_monotone": (_flag, "true or false"),
    "classifier": (_one_of("gbt", "linear"), "gbt or linear"),
    "linear_regularization": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "name_rules": (_flag, "true or false"),
    "jobs": (_at_least(1), "an integer >= 1"),
}


def resolve_schema(cfg: RunConfig) -> FeatureSchema:
    schema = default_schema()
    drops: list[str] = []
    for name in cfg.drop_features:
        if name == "advanced_names":
            drops.extend(ADVANCED_NAME_FEATURES)
        elif name in schema.groups():
            drops.extend(schema.groups()[name])
        elif name in schema.names:
            drops.append(name)
        else:
            raise ConfigError(f"unknown feature or group to drop: {name!r}")
    return schema.drop(drops) if drops else schema


def gbt_constraints(cfg: RunConfig, schema: FeatureSchema) -> tuple[int, ...]:
    """The schema's monotone constraints, or none when use_monotone is off."""
    if cfg.use_monotone:
        return schema.monotone_constraints()
    return (0,) * len(schema)


@dataclass
class TrainResult:
    classifier: EnsembleClassifier
    schema: FeatureSchema
    counts: NameCountsTable
    hyperparams: HyperParams | None
    cluster_params: ClusterParams
    rules: NameRules
    dataset: Dataset  # with splits populated
    report: dict


def _train_member(
    X: np.ndarray,
    y: np.ndarray,
    cfg: RunConfig,
    hp: HyperParams | None,
    schema: FeatureSchema,
    nameless: bool,
):
    if cfg.classifier == "linear":
        return model.train_linear(X, y, regularization=cfg.linear_regularization, schema=schema)
    seed = cfg.seed + (1 if nameless else 0)
    return model.train_gbt(X, y, hp, gbt_constraints(cfg, schema), seed, schema)


def sample_train_val(
    dataset: Dataset,
    cfg: RunConfig,
    counts: NameCountsTable,
    schema: FeatureSchema,
    blocks: list[blocking.Block],
) -> tuple[PairSample, PairSample]:
    """The run's training and validation pairs, from the dataset's blocks."""
    unknown = set(dataset.splits) - {b.key for b in blocks}
    if unknown:
        raise IntegrityError(
            f"splits name {len(unknown)} keys that are not blocks of the corpus, "
            f"such as {min(unknown)!r}"
        )
    train = sample_pairs(
        dataset, "train", cfg.train_cap, cfg.seed, counts, schema, blocks=blocks
    )
    val = sample_pairs(
        dataset, "val", cfg.val_cap, cfg.seed + 101, counts, schema, blocks=blocks
    )
    if not len(val):
        raise ConfigError("empty validation pair set")
    return train, val


def train_pipeline(
    dataset: Dataset, cfg: RunConfig, counts: NameCountsTable | None = None
) -> TrainResult:
    """Sample pairs, train the ensemble, and tune the clustering threshold."""
    if dataset.gold is None:
        raise ConfigError("training requires a corpus with gold clusters")
    if dataset.splits is None:
        dataset = split_blocks(dataset, cfg.seed, cfg.fractions)
    schema = resolve_schema(cfg)
    if counts is None:
        counts = build_name_counts(dataset)

    blocks = blocking.build_blocks(dataset)
    train, val = sample_train_val(dataset, cfg, counts, schema, blocks)
    report: dict = {
        "train_pairs": len(train),
        "val_pairs": len(val),
        "augmented_pairs": 0,
    }
    X, y = train.X, train.y

    if cfg.knockout:
        probs = {g: cfg.knockout_probability for g in KNOCKOUT_GROUPS}
        degraded = knockout_augment(dataset, cfg.seed + 7, probs)
        extra = sample_pairs(
            dataset, "train", cfg.train_cap, cfg.seed, counts, schema,
            source=degraded, blocks=blocks,
        )
        report["augmented_pairs"] = len(extra)
        X = np.concatenate([X, extra.X])
        y = np.concatenate([y, extra.y])

    hp: HyperParams | None = None
    if cfg.classifier == "gbt":
        if cfg.tune_budget > 0:
            hp, tuned_auroc = model.tune_hyperparameters(
                X,
                y,
                val.X,
                val.y,
                cfg.tune_budget,
                cfg.seed,
                gbt_constraints(cfg, schema),
                schema,
                overrides=cfg.hyperparams or None,
            )
            report["tuned_val_auroc"] = tuned_auroc
        else:
            hp = HyperParams.from_doc(cfg.hyperparams) if cfg.hyperparams else HyperParams()

    full = _train_member(X, y, cfg, hp, schema, nameless=False)
    nameless = None
    if cfg.use_nameless:
        masked = mask_nameless(X, schema)
        nameless = _train_member(masked, y, cfg, hp, schema, nameless=True)
    ens = EnsembleClassifier(full_model=full, nameless_model=nameless, schema=schema)

    yv_int = val.y.astype(int)
    if 0 < val.y.sum() < val.y.size:
        report["val_auroc_full"] = metrics.auroc(full.predict_proba(val.X), yv_int)
        report["val_auroc_ensemble"] = metrics.auroc(
            ens.predict_from_features(val.X), yv_int
        )

    rules = NameRules(enabled=cfg.name_rules)
    val_blocks = [b for b in blocks if dataset.splits.get(b.key) == "val"]
    if cfg.eps is not None:
        eps, val_b3 = cfg.eps, None
    else:
        eps, val_b3 = cluster.tune_eps(
            val_blocks,
            ens,
            dataset,
            counts,
            schema,
            dataset.gold,
            linkage=cfg.linkage,
            budget=cfg.eps_budget,
            seed=cfg.seed,
            rules=rules,
            method=cfg.method,
            dbscan_min_samples=cfg.dbscan_min_samples,
        )
        report["val_b3_f1"] = val_b3
    report["eps"] = eps

    params = ClusterParams(
        linkage=cfg.linkage,
        eps=eps,
        method=cfg.method,
        dbscan_min_samples=cfg.dbscan_min_samples,
    )
    return TrainResult(
        classifier=ens,
        schema=schema,
        counts=counts,
        hyperparams=hp,
        cluster_params=params,
        rules=rules,
        dataset=dataset,
        report=report,
    )


def cluster_split(
    result: TrainResult, split: str | None = None, jobs: int = 1
) -> Partition:
    """Cluster the whole corpus, or only blocks of one split."""
    dataset = result.dataset
    blocks = blocking.build_blocks(dataset)
    if split is not None:
        blocks = [b for b in blocks if dataset.splits.get(b.key) == split]
    return cluster.cluster_corpus(
        dataset,
        result.classifier,
        result.cluster_params,
        result.counts,
        result.schema,
        rules=result.rules,
        blocks=blocks,
        jobs=jobs,
    )


def evaluate_partition(
    pred: Partition,
    gold: Partition,
    dataset: Dataset,
    facets: tuple[str, ...] = (),
    facet_bins: dict[str, tuple[float, ...]] | None = None,
) -> dict:
    """Standard metric report: B-cubed, pairwise macro F1, facet tables."""
    gold = gold.restrict(pred.assignment)
    all_blocks = blocking.build_blocks(dataset)
    covered = set(pred.assignment)
    blocks = [b for b in all_blocks if all(m in covered for m in b.members)]
    res = metrics.b3(pred, gold)
    report = {
        "records": len(pred.assignment),
        "b3_precision": res.precision,
        "b3_recall": res.recall,
        "b3_f1": res.f1,
        "pairwise_macro_f1": metrics.pairwise_macro_f1(pred, gold, blocks),
        "facets": {},
    }
    for facet in facets:
        bins = (facet_bins or {}).get(facet)
        fr = metrics.facet_report(pred, gold, dataset, facet, bins=bins, blocks=blocks)
        report["facets"][facet] = [
            {"bin": b.label, "count": b.count, "mean_f1": b.mean_f1} for b in fr.bins
        ]
    return report


def train_cluster_eval(
    dataset: Dataset,
    cfg: RunConfig,
    split: str = "test",
    counts: NameCountsTable | None = None,
) -> dict:
    """One full run; returns the evaluation report on the requested split."""
    result = train_pipeline(dataset, cfg, counts=counts)
    pred = cluster_split(result, split, jobs=cfg.jobs)
    report = evaluate_partition(pred, result.dataset.gold, result.dataset)
    report.update({f"train_{k}": v for k, v in result.report.items()})
    return report


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

LINKAGE_AXES = ("linkage:ward", "linkage:complete", "linkage:single")


def ablation_axis_config(cfg: RunConfig, axis: str) -> RunConfig:
    """Translate one ablation axis name into a run configuration."""
    if axis == "baseline":
        return cfg
    if axis.startswith("drop:"):
        name = axis.split(":", 1)[1]
        return dataclasses.replace(cfg, drop_features=cfg.drop_features + (name,))
    if axis.startswith("linkage:"):
        return dataclasses.replace(cfg, linkage=axis.split(":", 1)[1])
    if axis == "dbscan":
        return dataclasses.replace(cfg, method="dbscan")
    if axis == "linear":
        return dataclasses.replace(cfg, classifier="linear")
    if axis == "no-nameless":
        return dataclasses.replace(cfg, use_nameless=False)
    if axis == "no-monotone":
        return dataclasses.replace(cfg, use_monotone=False)
    if axis.startswith("train-size:"):
        cap = int(axis.split(":", 1)[1])
        return dataclasses.replace(cfg, train_cap=cap)
    raise ConfigError(f"unknown ablation axis {axis!r}")


def run_ablation(
    dataset: Dataset,
    cfg: RunConfig,
    axes: tuple[str, ...],
    seeds: tuple[int, ...] = (0,),
    counts: NameCountsTable | None = None,
) -> list[dict]:
    """Baseline plus one row per axis: mean test B-cubed F1 over seeds and
    the delta from baseline (positive delta = the variant is worse)."""
    rows: list[dict] = []
    baseline_mean = None
    for axis in ("baseline",) + tuple(a for a in axes if a != "baseline"):
        axis_cfg = ablation_axis_config(cfg, axis)
        scores = []
        for seed in seeds:
            run_cfg = dataclasses.replace(axis_cfg, seed=seed)
            report = train_cluster_eval(dataset, run_cfg, counts=counts)
            scores.append(report["b3_f1"])
        mean = float(np.mean(scores))
        if axis == "baseline":
            baseline_mean = mean
        rows.append(
            {
                "axis": axis,
                "mean_b3_f1": mean,
                "delta": baseline_mean - mean,
                "per_seed": scores,
            }
        )
    return rows
