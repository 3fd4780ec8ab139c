"""Communication cost model and the metrics sink.

Traffic per client per round is the trainable fraction of the full-model
upload cost, C = (d_t / d) * B_f, and delay is pure bandwidth division; both
are closed-form, so totals are exact.  round_costs prices a whole round,
wall_s included, with masking's wire sizes; the file formats are in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ShapeError
from .masking import DEFAULT_ENCODING, ENCODINGS, HEADER, INDEX, VALUE, PartitionMask
from .models import ModelSpec, parameter_count

MB = 1_000_000  # metrics use SI megabytes
DEFAULT_BANDWIDTH_MBPS = 25.0 / 3.0  # 8.333... MB/s

ROUNDS_FILE = "rounds.csv"
SUMMARY_FILE = "summary.txt"
_ROUNDS_VERSION = "# dpfedsim-rounds v1"
_SUMMARY_VERSION = "# dpfedsim-summary v1"


@dataclass(frozen=True)
class CommModel:
    """Link model, every comm.* setting: bandwidth, full-model upload size,
    fixed per-message cost, whether the broadcast is masked too, the modeled
    compute seconds per coordinate and the upload's wire encoding."""

    bandwidth_mbps: float
    full_model_bytes: float
    per_message_overhead_bytes: float = 0.0
    masked_broadcast: bool = False
    seconds_per_coord: float = 1e-9
    encoding: str = DEFAULT_ENCODING

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth_mbps < math.inf:  # every bound here fails NaN too
            raise ShapeError("bandwidth must be > 0 and finite")
        if not 0 < self.full_model_bytes < math.inf:
            raise ShapeError("full_model_bytes must be > 0 and finite")
        if not 0 <= self.per_message_overhead_bytes < math.inf:
            raise ShapeError("overhead must be >= 0 and finite")
        if self.encoding not in ENCODINGS:
            raise ShapeError(f"unknown encoding {self.encoding!r}, expected {ENCODINGS}")
        if not self.seconds_per_coord >= 0:
            raise ShapeError("seconds_per_coord must be >= 0")


def default_comm(spec: ModelSpec) -> CommModel:
    """The link of a run that sets none: B_f = 4 d, every parameter one wire value."""
    return CommModel(DEFAULT_BANDWIDTH_MBPS, float(VALUE.itemsize * parameter_count(spec)))


@dataclass(frozen=True)
class RoundRecord:
    """Everything the simulator reports about one communication round."""

    round_index: int
    global_loss: float
    global_accuracy: float
    epsilon_to_date: float
    bytes_up_per_client: float
    bytes_down_per_client: float
    modeled_delay_s: float
    wall_time_s: float
    participants: int


# rounds.csv column -> RoundRecord field, in file order: every field but participants
_COLUMNS = {
    "round": "round_index",
    "loss": "global_loss",
    "accuracy": "global_accuracy",
    "epsilon": "epsilon_to_date",
    "bytes_up": "bytes_up_per_client",
    "bytes_down": "bytes_down_per_client",
    "delay_s": "modeled_delay_s",
    "wall_s": "wall_time_s",
}


def traffic_per_round(mask: PartitionMask, comm: CommModel, encoding: str | None = None) -> float:
    """Upstream bytes per client per round for a full masked update, in the
    link's encoding unless given another; the one traffic model."""
    encoding = comm.encoding if encoding is None else encoding
    if encoding == "dense-f32":
        payload = mask.trainable_fraction * comm.full_model_bytes
    elif encoding == "sparse-idx32-f32":
        # the header and the (index, value) pairs, but not the body
        payload = float(HEADER.size + (INDEX.itemsize + VALUE.itemsize) * mask.trainable_count)
    else:
        raise ShapeError(f"unknown encoding {encoding!r}")
    return payload + comm.per_message_overhead_bytes


def delay_seconds(nbytes: float, comm: CommModel) -> float:
    """Transfer time under the linear bandwidth model."""
    if not nbytes >= 0:  # NaN fails too
        raise ShapeError("byte count must be >= 0")
    return nbytes / (comm.bandwidth_mbps * MB)


def round_costs(
    mask: PartitionMask, comm: CommModel, sizes: list[int], local_epochs: int
) -> tuple[float, float, float, float]:
    """A round's cost fields of RoundRecord, in field order, for selected clients
    of sizes n_k over the link comm: bytes up (traffic_per_round) and down (the
    same when comm.masked_broadcast, else the full model) per client, the
    upload delay, and wall_s = down delay
    + max n_k * E * (d + d_t) * comm.seconds_per_coord + up delay."""
    up = traffic_per_round(mask, comm)
    down = up if comm.masked_broadcast else comm.full_model_bytes + comm.per_message_overhead_bytes
    coords = mask.total_count + mask.trainable_count
    compute_s = max(n_k * local_epochs * coords * comm.seconds_per_coord for n_k in sizes)
    delay_up = delay_seconds(up, comm)
    return up, down, delay_up, delay_seconds(down, comm) + compute_s + delay_up


def render_value(value: object) -> str:
    """A value as the metrics files and the resolved config write it: a float
    by repr, so it reads back exactly (inf, -inf and nan too), a bool as
    true/false, anything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_rounds_table(records: list[RoundRecord]) -> str:
    lines = [_ROUNDS_VERSION, ",".join(_COLUMNS)]
    for r in records:
        lines.append(",".join(render_value(getattr(r, field)) for field in _COLUMNS.values()))
    return "\n".join(lines) + "\n"


def summarize(records: list[RoundRecord]) -> dict[str, float | int | str]:
    """Aggregate totals; a pure function of the records, so rewrites are idempotent.
    With no records, every value but the round count is 0.0."""
    last = records[-1] if records else RoundRecord(0, *[0.0] * 7, 0)
    return {
        "rounds": len(records),
        "final_loss": last.global_loss,
        "final_accuracy": last.global_accuracy,
        "final_epsilon": last.epsilon_to_date,
        "total_bytes_up": sum((r.bytes_up_per_client * r.participants for r in records), 0.0),
        "total_bytes_down": sum((r.bytes_down_per_client * r.participants for r in records), 0.0),
        "total_delay_s": sum((r.modeled_delay_s for r in records), 0.0),
        "total_wall_s": sum((r.wall_time_s for r in records), 0.0),
        "bytes_up_per_client_round": last.bytes_up_per_client,
    }


def write_records(records: list[RoundRecord], out_dir: str | Path) -> dict:
    """Persist the per-round table and key=value summary under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / ROUNDS_FILE).write_text(render_rounds_table(records))
    summary = summarize(records)
    lines = [_SUMMARY_VERSION] + [f"{k}={render_value(v)}" for k, v in summary.items()]
    (out / SUMMARY_FILE).write_text("\n".join(lines) + "\n")
    return summary


def read_summary(path: str | Path) -> dict[str, str]:
    """Parse a summary file back into raw key -> string values."""
    result: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        result[key.strip()] = value.strip()
    return result
