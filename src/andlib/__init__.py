"""Author name disambiguation: blocking, pairwise scoring, clustering,
and evaluation."""

from .blocking import Block, NormalizedName, block_key, build_blocks, normalize_name
from .cluster import (
    ClusterParams,
    DistanceMatrix,
    NameRules,
    cluster_corpus,
    dbscan_cluster,
    distance_matrix,
    hac_cluster,
    tune_eps,
)
from .corpus import (
    Dataset,
    NameCountsTable,
    Paper,
    Partition,
    Signature,
    build_name_counts,
    knockout_augment,
    load_dataset,
    save_dataset,
    split_blocks,
)
from .features import (
    FeatureSchema,
    FeatureSpec,
    default_schema,
    featurize_pair,
    jaro_winkler,
    lcs_distance,
    levenshtein,
    mask_nameless,
    ngram_jaccard,
    prefix_distance,
)
from .gbt import HyperParams, TreeEnsembleModel, fit_boosted_trees
from .metrics import (
    auroc,
    average_precision,
    b3,
    facet_report,
    homonymity,
    pairwise_macro_f1,
    synonymity,
)
from .model import (
    EnsembleClassifier,
    PairSample,
    predict_ensemble,
    sample_pairs,
    train_gbt,
    train_linear,
    tune_hyperparameters,
)
from .synthetic import GeneratorConfig, generate_synthetic_corpus

__version__ = "0.1.0"
