"""softaug: regression-aware GAN augmentation for small tabular datasets."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    SoftaugError, ShapeError, ContractError, ConfigError,
    DataError, SchemaError, ParseError, BudgetError, CatalogError,
    DegeneracyError, ConditioningError, DivergenceError,
)
from .rng import SeededRng, derive_seed, gaussian_noise  # noqa: F401
from .autodiff import Tensor, grad  # noqa: F401
from .layers import Mlp, init_mlp  # noqa: F401
from .optim import Adam  # noqa: F401
from .data import (  # noqa: F401
    TabularDataset, NormalizationSpec, load_csv, save_csv,
    fit_normalizer, apply_normalizer, invert_normalizer, split, synth_make,
    concat,
)
from .regress import Metrics, fit, evaluate  # noqa: F401
from .active import run_active_selection, kmeans, choose_k  # noqa: F401
from .quality import mmd2, diversity_score, select_best_batch  # noqa: F401
from .rgan import (  # noqa: F401
    GanConfig, RganModel, TrainTrace, train, generate,
    save_checkpoint, load_checkpoint,
)
from .harness import (  # noqa: F401
    ExperimentConfig, parse_config, config_to_ini, run_pipeline,
    run_ablation, sweep_amount, sweep_hyper, time_variants,
)
