"""Genetic feature selection for nearest-neighbour classifiers.

The pipeline: load or synthesise a labelled dataset, search the space of
binary feature masks with a generational GA whose fitness rewards
recognition hits and penalises mask size, then inspect the survivors with
masked k-NN evaluation and 2D principal-component scatterplots.
"""

from .dataset import (
    Dataset,
    DatasetError,
    load_csv,
    normalize_minmax,
    split_random,
    unify_vocabulary,
    write_csv,
)
from .ga import (
    GaConfig,
    GenerationStats,
    Individual,
    evolve,
    exhaustive_best,
    fitness,
    write_trace,
)
from .knn import (
    REJECT,
    FeatureMask,
    Neighbor,
    classify,
    k_nearest,
    recognition_rate,
)
from .pca import ProjectionModel, fit_pca2, project_rows
from .plot import svg_scatter, write_svg_scatter
from .synth import SynthSpec, class_means, generate, generate_pool

__version__ = "0.1.0"

__all__ = [
    "REJECT",
    "Dataset",
    "DatasetError",
    "FeatureMask",
    "GaConfig",
    "GenerationStats",
    "Individual",
    "Neighbor",
    "ProjectionModel",
    "SynthSpec",
    "class_means",
    "classify",
    "evolve",
    "exhaustive_best",
    "fitness",
    "fit_pca2",
    "generate",
    "generate_pool",
    "k_nearest",
    "load_csv",
    "normalize_minmax",
    "project_rows",
    "recognition_rate",
    "split_random",
    "svg_scatter",
    "unify_vocabulary",
    "write_csv",
    "write_svg_scatter",
    "__version__",
]
