"""Each refusal a public call can reach, with the class and message it raises.

One case per raise statement that the rest of the suite does not execute;
tools/linecov.py lists the ones left.
"""

import numpy as np
import pytest

from dpfedsim import (
    ConfigError,
    DomainError,
    DpConfig,
    ExperimentConfig,
    ModelSpec,
    ParameterVector,
    PrivacyParams,
    SampleBatch,
    SamplerPlan,
    ShapeError,
    SyntheticDatasetSpec,
    clip_per_sample,
    compose_rounds,
    compute_weights,
    dp_step,
    extract_masked_update,
    forward,
    init_params,
    layer_layout,
    make_mask,
    noisy_mean,
    partition_data,
    pretrain,
    traffic_per_round,
)
from dpfedsim import MaskedUpdate
from dpfedsim.comm import default_comm
from dpfedsim.federation import initial_params

MLP = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=3)
LINEAR = ModelSpec("linear", input_dim=2, output_dim=1)
DATA = SampleBatch(np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 1, 0, 1]))


def _linear_head_mask():
    return make_mask(layer_layout(LINEAR), ["head.weight"])


CASES = {
    "privacy-negative-epochs": (
        lambda: PrivacyParams(0.1, 1.0, -1),
        DomainError,
        "epochs must be >= 0",
    ),
    "compose-negative-rounds": (
        lambda: compose_rounds(PrivacyParams(0.1, 1.0, 1), -1),
        DomainError,
        "rounds must be >= 0",
    ),
    "weights-of-no-clients": (
        lambda: compute_weights([]),
        ShapeError,
        "cannot compute weights for an empty client set",
    ),
    "traffic-unknown-encoding": (
        lambda: traffic_per_round(_linear_head_mask(), default_comm(LINEAR), "gzip"),
        ShapeError,
        "unknown encoding 'gzip'",
    ),
    "dataset-zero-width": (
        lambda: SyntheticDatasetSpec("gaussian-blobs", classes=2, samples=10, input_dim=0),
        ShapeError,
        "input_dim must be >= 1",
    ),
    "sampler-unknown-mode": (
        lambda: SamplerPlan("stratified", 2, 10, 0),
        ShapeError,
        "unknown sampler mode 'stratified'",
    ),
    "sampler-empty-batch": (
        lambda: SamplerPlan("poisson", 0, 10, 0),
        ShapeError,
        "batch_size and dataset_size must be >= 1",
    ),
    "clip-a-vector": (
        lambda: clip_per_sample(np.ones(3), 1.0),
        ShapeError,
        "expected a \\[batch x dim\\] gradient matrix",
    ),
    "noise-of-the-wrong-width": (
        lambda: noisy_mean(np.ones((2, 3)), 1.0, 1.0, 0, normals=np.zeros(4)),
        ShapeError,
        "normals must have shape \\(3,\\)",
    ),
    "step-over-another-model": (
        lambda: dp_step(init_params(MLP, 0), _linear_head_mask(), np.zeros(2), DpConfig(1.0, 0.0, 0.1), 1),
        ShapeError,
        "mask and parameter vector cover different dimensions",
    ),
    "partition-no-clients": (
        lambda: partition_data(DATA, 0, "iid", seed=0),
        ShapeError,
        "clients must be >= 1",
    ),
    "partition-unknown-scheme": (
        lambda: partition_data(DATA, 2, "zipf", seed=0),
        ShapeError,
        "unknown partition scheme 'zipf'",
    ),
    "pretrain-without-a-public-split": (
        lambda: initial_params(
            ExperimentConfig(
                MLP, 2, 1, 1, 2, DpConfig(1.0, 0.0, 0.1), pretrain_epochs=1, public_fraction=0.5
            ),
            None,
        ),
        ConfigError,
        "pretraining needs a public split",
    ),
    "update-of-unequal-lengths": (
        lambda: MaskedUpdate(0, 0, np.array([1, 2]), np.array([0.5]), 1, 1),
        ShapeError,
        "indices and deltas must be 1-D arrays of equal length",
    ),
    "update-over-another-model": (
        lambda: extract_masked_update(
            init_params(MLP, 1), init_params(MLP, 0), _linear_head_mask(), 0, 0, 1, 1
        ),
        ShapeError,
        "mask covers 3 coordinates, parameters have 17",
    ),
    "parameters-as-a-matrix": (
        lambda: ParameterVector(np.zeros((1, 3)), (("w", 0, 3),)),
        ShapeError,
        "parameter values must be a 1-D array",
    ),
    "layer-of-negative-length": (
        lambda: ParameterVector(np.zeros(0), (("w", 0, -1), ("b", -1, 1))),
        ShapeError,
        "layer 'w' has negative length",
    ),
    "inputs-as-a-vector": (
        lambda: SampleBatch(np.zeros(3), np.zeros(3)),
        ShapeError,
        "inputs must be a \\[batch x input_dim\\] matrix",
    ),
    "targets-of-another-length": (
        lambda: SampleBatch(np.zeros((3, 2)), np.zeros(2)),
        ShapeError,
        "targets length must equal the inputs row count",
    ),
    "parameters-missing-a-layer": (
        lambda: forward(
            MLP,
            ParameterVector(np.zeros(15), layer_layout(MLP)[:-1]),
            DATA,
        ),
        ShapeError,
        "layout has 3 layers, model expects 4",
    ),
    "inputs-of-another-width": (
        lambda: forward(MLP, init_params(MLP, 0), SampleBatch(np.zeros((2, 3)), np.array([0, 1]))),
        ShapeError,
        "inputs have 3 features, model expects 2",
    ),
    "pretrain-negative-epochs": (
        lambda: pretrain(MLP, DATA, -1, 0.1, 0),
        ShapeError,
        "epochs must be >= 0",
    ),
    "pretrain-zero-rate": (
        lambda: pretrain(MLP, DATA, 1, 0.0, 0),
        ShapeError,
        "lr must be > 0",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refusal(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()
