"""Traffic/delay cost model and the metrics sink formats."""

from dataclasses import fields

import numpy as np
import pytest

from dpfedsim import (
    CommModel,
    MaskedUpdate,
    ModelSpec,
    RoundRecord,
    ShapeError,
    delay_seconds,
    layer_layout,
    make_mask,
    resolve_raw,
    serialize_update,
    traffic_per_round,
    write_records,
)
from dpfedsim.comm import MB, read_summary, render_rounds_table, summarize
from dpfedsim.federation import default_comm
from dpfedsim.masking import PartitionMask

RNG = np.random.default_rng
BANDWIDTH = 1456.0 / 174.72  # back-solved from the reference link: 8.333... MB/s


def mask_with(trainable, total):
    mask = np.zeros(total, dtype=bool)
    mask[:trainable] = True
    return PartitionMask(("head",), mask)


def record(t, **kw):
    base = dict(
        round_index=t,
        global_loss=0.5,
        global_accuracy=0.9,
        epsilon_to_date=1.0,
        bytes_up_per_client=100.0,
        bytes_down_per_client=400.0,
        modeled_delay_s=0.25,
        wall_time_s=0.5,
        participants=2,
    )
    base.update(kw)
    return RoundRecord(**base)


# ---------------------------------------------------------------- traffic


def test_full_mask_costs_full_model():
    comm = CommModel(bandwidth_mbps=10.0, full_model_bytes=1000.0, per_message_overhead_bytes=8.0)
    assert traffic_per_round(mask_with(50, 50), comm) == 1008.0


def test_zero_trainable_costs_overhead_only():
    comm = CommModel(10.0, 1000.0, 8.0)
    assert traffic_per_round(mask_with(0, 50), comm) == 8.0


def test_dense_traffic_is_four_bytes_per_trainable_coordinate():
    # at full_model_bytes = 4 * d, (d_t / d) * B_f is 4 * d_t up to the last bit
    # (d_t = 7, d = 25 gives 28.000000000000004)
    for d in range(1, 61):
        comm = CommModel(1.0, 4.0 * d)
        for d_t in range(d + 1):
            assert traffic_per_round(mask_with(d_t, d), comm) == pytest.approx(4 * d_t, rel=1e-15)


def test_sparse_traffic_header_only_when_empty():
    comm = CommModel(1.0, 4.0 * 50)
    assert traffic_per_round(mask_with(0, 50), comm, "sparse-idx32-f32") == 16.0
    assert traffic_per_round(mask_with(0, 50), comm, "dense-f32") == 0.0
    assert traffic_per_round(mask_with(8, 50), comm, "sparse-idx32-f32") == 16.0 + 8 * 8


WIRE_SPEC = ModelSpec("mlp", input_dim=64, output_dim=4, hidden_dim=256)


@pytest.mark.parametrize(
    "layers",
    [(), ("head.bias",), ("head.weight", "head.bias"), ("hidden.bias", "head.bias")],
)
def test_the_traffic_model_leaves_out_a_fixed_part_of_the_wire_blob(layers):
    # serialize_update writes a 32-byte header and body that traffic_per_round
    # does not count; the sparse model's 16 stands for no field of it
    layout = layer_layout(WIRE_SPEC)
    mask = make_mask(layout, layers or [name for name, _, _ in layout])
    comm = default_comm(WIRE_SPEC)  # B_f = 4 d, no per-message overhead
    deltas = RNG(0).normal(size=mask.trainable_count)
    update = MaskedUpdate(3, 1, mask.indices, deltas, tau=5, n_k=48)
    for encoding, gap in (("dense-f32", 32.0), ("sparse-idx32-f32", 16.0)):
        blob = serialize_update(update, mask.total_count, encoding)
        assert len(blob) - traffic_per_round(mask, comm, encoding) == pytest.approx(gap, abs=1e-9)


def test_the_auto_model_size_is_the_default_link_of_a_run():
    raw = {
        "model.kind": "mlp",
        "model.input_dim": "64",
        "model.output_dim": "4",
        "model.hidden_dim": "256",
        "clients": "10",
        "rounds": "1",
    }
    experiment = resolve_raw(raw).experiment
    assert experiment.comm == default_comm(experiment.model)
    assert experiment.comm.full_model_bytes == 4.0 * 17668


def test_traffic_ratio_identity_under_dense_encoding():
    comm = CommModel(1.0, 4.0 * 17)
    ratio = traffic_per_round(mask_with(8, 17), comm) / traffic_per_round(mask_with(17, 17), comm)
    assert ratio == pytest.approx(8 / 17, rel=1e-15)


def test_reference_scale_traffic_and_delay():
    # 0.0021 of a 1456 MB model is ~3.06 MB, within 2% of the 3.10 MB reference;
    # at the back-solved 8.33 MB/s the delays are 0.37 s vs 174.72 s (~470x)
    comm = CommModel(BANDWIDTH, 1456.0 * MB, 0.0)
    masked = traffic_per_round(mask_with(21, 10000), comm)
    assert masked == pytest.approx(3.0576 * MB, rel=1e-12)
    assert abs(masked - 3.10 * MB) / (3.10 * MB) < 0.02
    d_masked = delay_seconds(masked, comm)
    d_full = delay_seconds(comm.full_model_bytes, comm)
    assert d_masked == pytest.approx(0.37, abs=0.01)
    assert d_full == pytest.approx(174.72, abs=0.1)
    assert abs(d_full / d_masked - 470.0) / 470.0 < 0.02


def test_ratio_identity_no_overhead():
    comm = CommModel(5.0, 123456.0, 0.0)
    for d_t, d in [(1, 10), (3, 7), (10, 10)]:
        ratio = traffic_per_round(mask_with(d_t, d), comm) / traffic_per_round(
            mask_with(d, d), comm
        )
        assert ratio == pytest.approx(d_t / d, rel=1e-15)


def test_speedup_identity_no_overhead():
    comm = CommModel(2.5, 9999.0, 0.0)
    up_masked = traffic_per_round(mask_with(3, 300), comm)
    up_full = traffic_per_round(mask_with(300, 300), comm)
    speedup = delay_seconds(up_full, comm) / delay_seconds(up_masked, comm)
    assert speedup == pytest.approx(100.0, rel=1e-12)


def test_zero_bytes_zero_delay():
    assert delay_seconds(0.0, CommModel(1.0, 1.0)) == 0.0


@pytest.mark.parametrize("nbytes", [-1.0, float("nan")])
def test_delay_rejects_a_bad_byte_count(nbytes):
    # a NaN byte count used to come back as a NaN delay
    with pytest.raises(ShapeError, match="byte count"):
        delay_seconds(nbytes, CommModel(1.0, 1.0))


def test_totals_linear_in_rounds():
    records_5 = [record(t) for t in range(5)]
    records_10 = [record(t) for t in range(10)]
    s5, s10 = summarize(records_5), summarize(records_10)
    assert s10["total_bytes_up"] == 2 * s5["total_bytes_up"]
    assert s10["total_delay_s"] == 2 * s5["total_delay_s"]
    assert s5["total_bytes_up"] == 5 * 100.0 * 2  # rounds x bytes x participants


# ---------------------------------------------------------------- sink


def test_empty_records_header_only(tmp_path):
    summary = write_records([], tmp_path)
    text = (tmp_path / "rounds.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "round,loss,accuracy,epsilon,bytes_up,bytes_down,delay_s,wall_s"
    assert len(lines) == 2
    assert summary["rounds"] == 0
    assert summary["total_bytes_up"] == 0.0


def test_five_round_table(tmp_path):
    records = [record(t) for t in range(5)]
    summary = write_records(records, tmp_path)
    lines = (tmp_path / "rounds.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 5
    assert summary["total_bytes_up"] == 5 * 100.0 * 2


def test_write_is_idempotent(tmp_path):
    records = [record(t) for t in range(3)]
    write_records(records, tmp_path)
    first = (tmp_path / "rounds.csv").read_bytes()
    first_summary = (tmp_path / "summary.txt").read_bytes()
    write_records(records, tmp_path)
    assert (tmp_path / "rounds.csv").read_bytes() == first
    assert (tmp_path / "summary.txt").read_bytes() == first_summary


def test_infinite_epsilon_renders_as_inf(tmp_path):
    records = [record(0, epsilon_to_date=float("inf"))]
    write_records(records, tmp_path)
    text = (tmp_path / "rounds.csv").read_text()
    assert ",inf," in text
    summary = read_summary(tmp_path / "summary.txt")
    assert summary["final_epsilon"] == "inf"


def test_table_floats_round_trip():
    records = [record(0, global_loss=1 / 3, modeled_delay_s=0.1 + 0.2)]
    table = render_rounds_table(records)
    row = table.strip().splitlines()[-1].split(",")
    assert float(row[1]) == 1 / 3
    assert float(row[6]) == 0.1 + 0.2


def test_summary_read_back(tmp_path):
    records = [record(t) for t in range(2)]
    written = write_records(records, tmp_path)
    raw = read_summary(tmp_path / "summary.txt")
    assert float(raw["final_accuracy"]) == written["final_accuracy"]
    assert int(raw["rounds"]) == 2


def test_unwritable_path_raises_os_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(OSError):
        write_records([record(0)], blocker / "nested")


def test_no_rounds_keep_their_bytes(tmp_path):
    # pinned before a run with no rounds went through the same summary code
    summary = write_records([], tmp_path)
    assert (tmp_path / "rounds.csv").read_bytes() == (
        b"# dpfedsim-rounds v1\nround,loss,accuracy,epsilon,bytes_up,bytes_down,delay_s,wall_s\n"
    )
    assert (tmp_path / "summary.txt").read_bytes() == (
        b"# dpfedsim-summary v1\nrounds=0\nfinal_loss=0.0\nfinal_accuracy=0.0\n"
        b"final_epsilon=0.0\ntotal_bytes_up=0.0\ntotal_bytes_down=0.0\ntotal_delay_s=0.0\n"
        b"total_wall_s=0.0\nbytes_up_per_client_round=0.0\n"
    )
    assert summarize([]) == summary
    assert [type(v) for v in summary.values()] == [int] + [float] * 8


def test_every_record_field_but_participants_is_a_column_in_field_order():
    names = [f.name for f in fields(RoundRecord)]
    values = {name: i + 0.5 for i, name in enumerate(names)}
    rec = RoundRecord(**values)
    row = render_rounds_table([rec]).splitlines()[-1].split(",")
    assert row == [repr(values[name]) for name in names if name != "participants"]
