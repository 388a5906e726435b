"""Label-noise-robust training with meta-learned soft labels."""

from .data import (
    Dataset,
    inject_feature_dependent,
    inject_uniform,
    load_dataset,
    make_synthetic,
    mark_unlabeled,
    save_dataset,
    split_dataset,
)
from .harness import (
    TrainConfig,
    baseline_ce,
    build_dataset,
    evaluate,
    run_experiment,
)
from .meta import conventional_step, meta_step
from .nn import Mlp, init_mlp, one_hot

__version__ = "0.1.0"

__all__ = [
    "Dataset", "TrainConfig", "Mlp",
    "make_synthetic", "split_dataset", "inject_uniform",
    "inject_feature_dependent", "mark_unlabeled", "save_dataset",
    "load_dataset", "init_mlp", "one_hot", "meta_step", "conventional_step",
    "baseline_ce", "build_dataset", "evaluate", "run_experiment",
]
