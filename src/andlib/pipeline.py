"""End-to-end composition: train, cluster, evaluate, ablate.

This is the layer the command-line tool calls into; tests drive it directly.
Every entry point is deterministic given (dataset, config, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import blocking, cluster, metrics, model
from .cluster import ClusterParams
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
from .settings import (
    FLAG,
    UNIT,
    integer,
    is_number,
    number,
    one_of,
    optional,
    setting,
)


def _fractions(value) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 3
        and all(is_number(f) and 0 <= f <= 1 for f in value)
        and abs(sum(value) - 1.0) <= 1e-9
    )


def _hyperparams(value) -> bool:
    """An object of hyperparameters; ``HyperParams.from_doc`` names a bad one."""
    return isinstance(value, dict) and HyperParams.from_doc(value) is not None


@dataclass(frozen=True)
class RunConfig(ClusterParams):
    """Resolved settings for one training/clustering run: the clustering
    settings of ``ClusterParams``, with an ``eps`` of None to tune it on the
    validation blocks, and the training settings."""

    NOUN = "config key"
    DOC = "a run config"

    eps: float | None = setting(None, optional(UNIT))
    seed: int = setting(0, integer(0))
    fractions: tuple[float, float, float] = setting(
        (0.8, 0.1, 0.1), (_fractions, "three numbers in [0, 1] that sum to 1")
    )
    train_cap: int = setting(100_000, integer(1))
    val_cap: int = setting(10_000, integer(1))
    tune_budget: int = setting(0, integer(0))  # 0 = use default/overridden hyperparameters
    eps_budget: int = setting(24, integer(1))
    hyperparams: dict = setting(
        rule=(_hyperparams, "an object of hyperparameters"), default_factory=dict
    )
    knockout: bool = setting(False, FLAG)
    knockout_probability: float = setting(0.3, UNIT)
    drop_features: tuple[str, ...] = setting((), (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
        "a list of feature or group names",
    ))
    use_nameless: bool = setting(True, FLAG)
    use_monotone: bool = setting(True, FLAG)
    classifier: str = setting("gbt", one_of("gbt", "linear"))
    linear_regularization: float = setting(1e-3, number(0))


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


def tune_hyperparams(
    X: np.ndarray, y: np.ndarray, val: PairSample, cfg: RunConfig, schema: FeatureSchema,
    budget: int,
) -> tuple[HyperParams, float]:
    """The best of ``budget`` GBT hyperparameter trials by AUROC on ``val``,
    and that AUROC; the config's ``hyperparams`` are held fixed."""
    return model.tune_hyperparameters(
        X, y, val.X, val.y, budget, cfg.seed, gbt_constraints(cfg, schema), schema,
        overrides=cfg.hyperparams or None,
    )


@dataclass
class TrainResult:
    classifier: EnsembleClassifier
    counts: NameCountsTable
    hyperparams: HyperParams | None
    cluster_params: ClusterParams
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
        return model.train_linear(X, y, regularization=cfg.linear_regularization)
    seed = cfg.seed + (1 if nameless else 0)
    return model.train_gbt(X, y, hp, gbt_constraints(cfg, schema), seed, schema)


def _train_members(
    X: np.ndarray,
    y: np.ndarray,
    cfg: RunConfig,
    hp: HyperParams | None,
    schema: FeatureSchema,
    jobs: int = 1,
):
    """The full member and the nameless one (None when it is off). With
    ``jobs`` >= 2 one worker process fits the nameless member while this
    process fits the full one; each fit is deterministic, so the members
    are the same either way."""
    full = (X, y, cfg, hp, schema, False)
    if not cfg.use_nameless:
        return _train_member(*full), None
    nameless = (mask_nameless(X, schema), y, cfg, hp, schema, True)
    if jobs < 2:
        return _train_member(*full), _train_member(*nameless)
    import multiprocessing

    with multiprocessing.get_context().Pool(processes=1) as pool:
        pending = pool.apply_async(_train_member, nameless)
        return _train_member(*full), pending.get()


def sample_train_val(
    dataset: Dataset,
    cfg: RunConfig,
    counts: NameCountsTable,
    schema: FeatureSchema,
    blocks: list[blocking.Block],
) -> tuple[np.ndarray, np.ndarray, PairSample, dict]:
    """The run's training rows ``X, y`` and validation pairs, from the
    dataset's blocks, and a report of their counts. With ``cfg.knockout``
    the training pairs are followed by the same pairs featurized against a
    degraded copy of the corpus."""
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
    report = {"train_pairs": len(train), "val_pairs": len(val), "augmented_pairs": 0}
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
    return X, y, val, report


def train_pipeline(
    dataset: Dataset, cfg: RunConfig, counts: NameCountsTable | None = None, jobs: int = 1
) -> TrainResult:
    """Sample pairs, train the ensemble (``jobs`` as in ``_train_members``),
    and tune the clustering threshold."""
    if dataset.gold is None:
        raise ConfigError("training requires a corpus with gold clusters")
    if dataset.splits is None:
        dataset = split_blocks(dataset, cfg.seed, cfg.fractions)
    schema = resolve_schema(cfg)
    if counts is None:
        counts = build_name_counts(dataset)

    blocks = blocking.build_blocks(dataset)
    X, y, val, report = sample_train_val(dataset, cfg, counts, schema, blocks)

    hp: HyperParams | None = None
    if cfg.classifier == "gbt":
        if cfg.tune_budget > 0:
            hp, report["tuned_val_auroc"] = tune_hyperparams(
                X, y, val, cfg, schema, cfg.tune_budget
            )
        else:
            hp = HyperParams.from_doc(cfg.hyperparams)

    full, nameless = _train_members(X, y, cfg, hp, schema, jobs)
    ens = EnsembleClassifier(full_model=full, nameless_model=nameless, schema=schema)

    yv_int = val.y.astype(int)
    if 0 < val.y.sum() < val.y.size:
        report["val_auroc_full"] = metrics.auroc(full.predict_proba(val.X), yv_int)
        report["val_auroc_ensemble"] = metrics.auroc(
            ens.predict_from_features(val.X), yv_int
        )

    if cfg.eps is not None:
        eps = cfg.eps
    else:
        val_blocks = [b for b in blocks if dataset.splits.get(b.key) == "val"]
        eps, report["val_b3_f1"] = cluster.tune_eps(
            val_blocks, ens, dataset, counts, dataset.gold, cfg, cfg.eps_budget, cfg.seed
        )
    report["eps"] = eps
    settings = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(ClusterParams)}
    return TrainResult(
        classifier=ens,
        counts=counts,
        hyperparams=hp,
        cluster_params=ClusterParams(**{**settings, "eps": eps}),
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
        blocks=blocks,
        jobs=jobs,
    )


def evaluate_partition(
    pred: Partition,
    gold: Partition,
    dataset: Dataset,
    facets: tuple[str, ...] = (),
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
        fr = metrics.facet_report(pred, gold, dataset, facet, blocks=blocks)
        report["facets"][facet] = [
            {"bin": b.label, "count": b.count, "mean_f1": b.mean_f1} for b in fr.bins
        ]
    return report


def train_cluster_eval(
    dataset: Dataset,
    cfg: RunConfig,
    split: str = "test",
    counts: NameCountsTable | None = None,
    jobs: int = 1,
) -> dict:
    """One full run; returns the evaluation report on the requested split."""
    result = train_pipeline(dataset, cfg, counts=counts, jobs=jobs)
    pred = cluster_split(result, split, jobs=jobs)
    report = evaluate_partition(pred, result.dataset.gold, result.dataset)
    report.update({f"train_{k}": v for k, v in result.report.items()})
    return report


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------


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
        cap = axis.split(":", 1)[1]
        if not cap.isdecimal():
            raise ConfigError(f"ablation axis {axis!r}: the training size must be an integer")
        return dataclasses.replace(cfg, train_cap=int(cap))
    raise ConfigError(f"unknown ablation axis {axis!r}")


def ablation_configs(cfg: RunConfig, axes: tuple[str, ...]) -> list[tuple[str, RunConfig]]:
    """The baseline, then each other axis, with its run configuration. Every
    axis is translated and its feature schema resolved here, so an unknown
    axis or feature fails before any training."""
    configs = [
        (axis, ablation_axis_config(cfg, axis))
        for axis in ("baseline",) + tuple(a for a in axes if a != "baseline")
    ]
    for _, axis_cfg in configs:
        resolve_schema(axis_cfg)
    return configs


def run_ablation(
    dataset: Dataset,
    configs: list[tuple[str, RunConfig]],
    seeds: tuple[int, ...] = (0,),
    counts: NameCountsTable | None = None,
    jobs: int = 1,
) -> list[dict]:
    """One row per axis of ``ablation_configs``: mean test B-cubed F1 over
    seeds and the delta from baseline (positive delta = the variant is
    worse)."""
    rows: list[dict] = []
    for axis, axis_cfg in configs:
        scores = []
        for seed in seeds:
            run_cfg = dataclasses.replace(axis_cfg, seed=seed)
            report = train_cluster_eval(dataset, run_cfg, counts=counts, jobs=jobs)
            scores.append(report["b3_f1"])
        mean = float(np.mean(scores))
        baseline_mean = rows[0]["mean_b3_f1"] if rows else mean
        rows.append(
            {
                "axis": axis,
                "mean_b3_f1": mean,
                "delta": baseline_mean - mean,
                "per_seed": scores,
            }
        )
    return rows
