"""Deterministic desk-scale simulator of differentially private federated
learning with selective parameter tuning and masked sparse aggregation."""

from .accountant import PrivacyParams, PrivacyReport, compose_rounds, epsilon_of, sigma_for_target
from .aggregation import AggregationOp, aggregate, compute_weights
from .comm import CommModel, RoundRecord, delay_seconds, traffic_per_round, write_records
from .config import ResolvedConfig, load_dataset, parse_config, resolve_raw
from .data import SyntheticDatasetSpec, load_delimited, make_dataset, split_train_test
from .dpsgd import (
    AdamState,
    DpConfig,
    SamplerPlan,
    clip_per_sample,
    dp_step,
    epoch_batches,
    noisy_mean,
    private_step,
)
from .errors import (
    ConfigError,
    DomainError,
    DpFedSimError,
    NumericError,
    ProtocolError,
    ShapeError,
)
from .federation import (
    ClientShard,
    EvalResult,
    ExperimentConfig,
    ExperimentResult,
    Seeds,
    evaluate,
    partition_data,
    run_experiment,
    run_local,
)
from .masking import (
    MaskedUpdate,
    PartitionMask,
    deserialize_update,
    extract_masked_update,
    make_mask,
    serialize_update,
)
from .models import (
    ModelSpec,
    ParameterVector,
    SampleBatch,
    forward,
    init_params,
    layer_layout,
    load_params,
    mean_gradient,
    parameter_count,
    per_sample_gradients,
    pretrain,
    save_params,
)
from .rng import derive_seed, standard_normal
from .sweep import render_report, run_sweep

__version__ = "0.1.0"
