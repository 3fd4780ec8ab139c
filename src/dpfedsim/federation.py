"""End-to-end federated rounds: selection, local private training, masked
aggregation, evaluation, and accounting.

Every round proceeds as: the server picks a participant set, each selected
client copies the broadcast parameters, runs local epochs of clipped and
noise-perturbed gradient steps on its trainable coordinates, and sends back
the masked delta; the server aggregates in ascending client id, evaluates on
the held-out split, charges epsilon, and appends one RoundRecord, whose costs
comm.round_costs prices.  All randomness flows through derived counter-based
streams, so records are bit-reproducible for a given configuration and
independent of client scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import lane
from .accountant import PrivacyParams, compose_rounds, sigma_for_target
from .aggregation import AggregationOp, aggregate
from .comm import CommModel, RoundRecord, default_comm, round_costs
from .data import seeded_split
from .dpsgd import (
    SAMPLER_MODES,
    AdamState,
    DpConfig,
    SamplerPlan,
    dp_step,
    epoch_batches,
    plan_for_epoch,
    private_step,
)
from .errors import ConfigError, DpFedSimError, ShapeError, as_config_error
from .masking import MaskedUpdate, PartitionMask, extract_masked_update, make_mask
from .models import (
    ModelSpec,
    ParameterVector,
    SampleBatch,
    forward,
    init_params,
    layer_layout,
    layer_spans,
    pretrain,
)
from .rng import (
    STREAM_CLIENT,
    STREAM_NOISE,
    STREAM_PARTITION,
    STREAM_PUBLIC_SPLIT,
    STREAM_SELECT,
    box_muller_rows,
    derive_seed,
    generator,
)

PARTITION_SCHEMES = ("iid", "dirichlet")
# the most standard normals run_local draws in one Box-Muller pass
_PASS_VALUES = 32768


@dataclass(frozen=True)
class Seeds:
    """A run's three seed roots; data and noise default to global + 1 and + 2."""

    global_seed: int = 0
    data_seed: int | None = None
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        if self.data_seed is None:
            object.__setattr__(self, "data_seed", self.global_seed + 1)
        if self.noise_seed is None:
            object.__setattr__(self, "noise_seed", self.global_seed + 2)


@dataclass
class ClientShard:
    """One client's private data plus the root of its local random streams."""

    client_id: int
    data: SampleBatch
    rng_seed: int

    @property
    def n_k(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    clients: int
    rounds: int
    local_epochs: int
    batch_size: int
    dp: DpConfig
    delta: float = PrivacyParams.delta
    target_epsilon: float | None = None
    participation_fraction: float = 1.0
    mask_layers: tuple[str, ...] = ()  # empty tuple means full fine-tuning
    aggregation: AggregationOp = AggregationOp("fedavg")
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    sampler_mode: str = "shuffle"
    seeds: Seeds = field(default_factory=Seeds)
    pretrain_epochs: int = 0
    pretrain_lr: float = 0.1
    public_fraction: float = 0.0
    comm: CommModel | None = None  # None means default_comm(model)

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigError("clients must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0.0 < self.participation_fraction <= 1.0):
            raise ConfigError("participation_fraction must lie in (0, 1]")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("delta must lie in (0, 1)")
        if self.target_epsilon is not None and not 0 < self.target_epsilon < math.inf:
            raise ConfigError("target_epsilon must be > 0 and finite when set")
        if self.target_epsilon is not None and self.rounds == 0:
            raise ConfigError("target_epsilon needs rounds >= 1: zero rounds spend no budget")
        if self.partition not in PARTITION_SCHEMES:
            raise ConfigError(f"unknown partition scheme {self.partition!r}")
        if self.sampler_mode not in SAMPLER_MODES:
            raise ConfigError(f"unknown sampler {self.sampler_mode!r}, expected {SAMPLER_MODES}")
        if self.partition == "dirichlet" and not self.dirichlet_alpha > 0:
            raise ConfigError("dirichlet_alpha must be > 0")
        if not (0.0 <= self.public_fraction < 1.0):
            raise ConfigError("public_fraction must lie in [0, 1)")
        if self.pretrain_epochs > 0 and self.public_fraction == 0.0:
            raise ConfigError("pretraining needs a positive public_fraction")
        if self.pretrain_epochs > 0 and not self.pretrain_lr > 0:
            raise ConfigError("pretrain_lr must be > 0")
        if not self.model.is_classifier:
            raise ConfigError("federated experiments require a classification model")
        self.resolved_mask_layers()  # raises on an unknown layer name

    def resolved_mask_layers(self) -> tuple[str, ...]:
        """The layers to tune: mask_layers, or every layer when it is empty."""
        with as_config_error("mask_layers: "):
            spans = layer_spans(layer_layout(self.model), self.mask_layers or None)
        return self.mask_layers or tuple(spans)


@dataclass
class EvalResult:
    loss: float
    accuracy: float


@dataclass
class ExperimentResult:
    records: list[RoundRecord]
    final_params: ParameterVector
    noise_multiplier: float  # the sigma the run trained at, solved when it has a target
    error: str | None = None


def partition_data(
    dataset: SampleBatch,
    clients: int,
    scheme: str,
    seed: int,
    alpha: float = ExperimentConfig.dirichlet_alpha,
    client_seed_root: int | None = None,
) -> list[ClientShard]:
    """Split a dataset into disjoint client shards.

    iid shards differ in size by at most one; the dirichlet scheme draws
    per-class client proportions from Dir(alpha) and redraws (bounded) until
    every shard is non-empty.
    """
    if clients < 1:
        raise ShapeError("clients must be >= 1")
    if dataset.size < clients:
        raise ShapeError(f"cannot split {dataset.size} rows across {clients} clients")
    if scheme not in PARTITION_SCHEMES:
        raise ShapeError(f"unknown partition scheme {scheme!r}")
    rng = generator(seed)
    if scheme == "iid":
        parts = np.array_split(rng.permutation(dataset.size), clients)
    else:
        parts = _dirichlet_parts(dataset, clients, alpha, rng)
    root = seed if client_seed_root is None else client_seed_root
    return [
        ClientShard(cid, dataset.take(np.sort(idx)), derive_seed(root, STREAM_CLIENT, cid))
        for cid, idx in enumerate(parts)
    ]


def _dirichlet_parts(
    dataset: SampleBatch, clients: int, alpha: float, rng: np.random.Generator
) -> list[np.ndarray]:
    labels = dataset.targets.astype(np.int64)
    class_values = np.unique(labels)
    for _ in range(200):
        assignment: list[list[np.ndarray]] = [[] for _ in range(clients)]
        for value in class_values:
            idx = rng.permutation(np.flatnonzero(labels == value))
            props = rng.dirichlet(np.full(clients, alpha))
            cuts = np.round(np.cumsum(props[:-1]) * idx.size).astype(int)
            for cid, chunk in enumerate(np.split(idx, cuts)):
                assignment[cid].append(chunk)
        parts = [np.concatenate(chunks) for chunks in assignment]
        if all(p.size > 0 for p in parts):
            return parts
    raise ShapeError(
        f"could not produce {clients} non-empty dirichlet shards in 200 draws"
    )


def evaluate(spec: ModelSpec, params: ParameterVector, test_set: SampleBatch) -> EvalResult:
    """Mean loss and argmax accuracy (ties resolve to the lowest class index)."""
    if not spec.is_classifier:
        raise ShapeError("accuracy is only defined for classification models")
    losses, scores = forward(spec, params, test_set)
    predicted = np.argmax(scores, axis=1)
    accuracy = float(np.mean(predicted == test_set.targets.astype(np.int64)))
    return EvalResult(loss=float(losses.mean()), accuracy=accuracy)


def run_local(
    spec: ModelSpec,
    client: ClientShard,
    w_t: ParameterVector,
    mask: PartitionMask,
    dp: DpConfig,
    plan: SamplerPlan,
    local_epochs: int,
    round_index: int,
) -> MaskedUpdate:
    """One client's private local training for one round.

    Per batch: one private_step (per-sample gradients of the trainable
    layers only, clipped, averaged with seeded Gaussian noise), applied by
    dp_step in place to one working copy of the parameters.  The step's
    buffers live in one workspace held for this call only.  When the steps
    draw noise and their width keeps off the helper lane, the noise of a pass
    of up to _PASS_VALUES values' worth of an epoch's steps is drawn in one
    rng.box_muller_rows transform and handed to each step; wide steps draw
    their own beside the clip.  The broadcast parameters are never modified;
    tau counts optimizer steps.  Adam's moments are checked at every step,
    the parameters once, when the update is cut: a non-finite delta raises
    NumericError.
    """
    if local_epochs < 1:
        raise ShapeError("local_epochs must be >= 1")
    w = w_t.copy()
    state = AdamState.zeros(mask.trainable_count) if dp.optimizer == "adam" else None
    step = 0
    work: dict = {}
    width = mask.trainable_count
    batched = dp.noise_multiplier != 0.0 and not lane.uses_lane(width)
    per_pass = max(1, _PASS_VALUES // max(width, 1))  # an empty mask draws no values
    for epoch in range(1, local_epochs + 1):
        batches = epoch_batches(plan_for_epoch(plan, round_index, epoch))
        steps = [  # poisson sampling may draw an empty batch, which takes no step
            (idx, derive_seed(client.rng_seed, STREAM_NOISE, round_index, epoch, batch_no))
            for batch_no, idx in enumerate(batches)
            if idx.size
        ]
        for start in range(0, len(steps), per_pass):
            run = steps[start : start + per_pass]
            if batched:
                rows = box_muller_rows([generator(key) for _, key in run], width, work)
            else:
                rows = [None] * len(run)
            for (idx, noise_seed), normals in zip(run, rows):
                grad = private_step(
                    spec, w, client.data.take(idx), mask, dp, noise_seed, work, normals=normals
                )
                step += 1
                dp_step(w, mask, grad, dp, step, state, in_place=True)
    return extract_masked_update(
        w, w_t, mask, client.client_id, round_index, tau=step, n_k=client.n_k
    )


def split_public_private(
    data: SampleBatch, public_fraction: float, seed: int
) -> tuple[SampleBatch | None, SampleBatch]:
    """Carve off a seeded public slice for non-private warm-starting."""
    if public_fraction == 0.0:
        return None, data
    return seeded_split(data, public_fraction, derive_seed(seed, STREAM_PUBLIC_SPLIT))


def initial_params(cfg: ExperimentConfig, public: SampleBatch | None) -> ParameterVector:
    if cfg.pretrain_epochs > 0:
        if public is None:
            raise ConfigError("pretraining needs a public split")
        return pretrain(
            cfg.model, public, cfg.pretrain_epochs, cfg.pretrain_lr, cfg.seeds.global_seed
        )
    return init_params(cfg.model, cfg.seeds.global_seed)


def _select_participants(cfg: ExperimentConfig, round_index: int) -> list[int]:
    # exact decimal product: 0.07 * 100 is 7.000000000000001 in floats
    count = math.ceil(Fraction(repr(cfg.participation_fraction)) * cfg.clients)
    rng = generator(derive_seed(cfg.seeds.global_seed, STREAM_SELECT, round_index))
    chosen = rng.permutation(cfg.clients)[:count]
    return sorted(int(c) for c in chosen)


def client_shards(
    cfg: ExperimentConfig, train_data: SampleBatch
) -> tuple[SampleBatch | None, list[ClientShard]]:
    """The public slice (None without one) and the client shards of a run, or a ConfigError."""
    with as_config_error():
        public, private = split_public_private(
            train_data, cfg.public_fraction, cfg.seeds.data_seed
        )
        shards = partition_data(
            private,
            cfg.clients,
            cfg.partition,
            derive_seed(cfg.seeds.data_seed, STREAM_PARTITION),
            alpha=cfg.dirichlet_alpha,
            client_seed_root=cfg.seeds.noise_seed,
        )
    return public, shards


def _client_epsilon(cfg: ExperimentConfig, plan: SamplerPlan, rounds_participated: int) -> float:
    """What a client's plan has cost it so far: inf without noise, else
    compose_rounds (0 before its first round)."""
    if cfg.dp.noise_multiplier == 0.0:
        return math.inf
    per_round = PrivacyParams(
        sampling_ratio=plan.sampling_ratio,
        noise_multiplier=cfg.dp.noise_multiplier,
        epochs=cfg.local_epochs,
        delta=cfg.delta,
    )
    return compose_rounds(per_round, rounds_participated).epsilon


def run_experiment(
    cfg: ExperimentConfig, train_data: SampleBatch, test_data: SampleBatch
) -> ExperimentResult:
    """Execute the full protocol and return per-round records plus the model.

    Each shard's SamplerPlan is built once: local training batches by it,
    and a target_epsilon's noise multiplier and every round's epsilon charge
    its sampling ratio.  Before round 0 a configuration is refused with
    ConfigError alone; any DpFedSimError inside a round stops the run, which
    returns the partial record list with the error message attached.
    """
    public, shards = client_shards(cfg, train_data)
    plans = [
        SamplerPlan(cfg.sampler_mode, min(cfg.batch_size, s.n_k), s.n_k, s.rng_seed)
        for s in shards
    ]
    if cfg.target_epsilon is not None:  # the most-sampled shard spends it, the rest less
        q = max(plan.sampling_ratio for plan in plans)
        sigma = sigma_for_target(q, cfg.rounds * cfg.local_epochs, cfg.delta, cfg.target_epsilon)
        cfg = replace(cfg, dp=replace(cfg.dp, noise_multiplier=sigma))
    w = initial_params(cfg, public)
    mask = make_mask(layer_layout(cfg.model), cfg.resolved_mask_layers())
    comm = cfg.comm or default_comm(cfg.model)
    participation = [0] * cfg.clients
    records: list[RoundRecord] = []
    error: str | None = None
    for t in range(cfg.rounds):
        selected = _select_participants(cfg, t)
        try:
            updates = []  # not a comprehension: this frees last round's updates first
            for cid in selected:
                updates.append(
                    run_local(cfg.model, shards[cid], w, mask, cfg.dp, plans[cid], cfg.local_epochs, t)
                )
            w = aggregate(w, updates, cfg.aggregation)
        except DpFedSimError as exc:
            error = f"round {t}: {exc}"
            break
        for cid in selected:
            participation[cid] += 1
        metrics = evaluate(cfg.model, w, test_data)
        epsilon = max(
            _client_epsilon(cfg, plans[k], participation[k]) for k in range(cfg.clients)
        )
        sizes = [shards[k].n_k for k in selected]
        costs = round_costs(mask, comm, sizes, cfg.local_epochs)
        records.append(RoundRecord(t, metrics.loss, metrics.accuracy, epsilon, *costs, len(selected)))
    return ExperimentResult(records, w, cfg.dp.noise_multiplier, error)
