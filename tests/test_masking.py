"""Partition masks, masked update extraction, wire format."""

import hashlib

import numpy as np
import pytest

from dpfedsim import (
    AdamState,
    DpConfig,
    MaskedUpdate,
    ModelSpec,
    ParameterVector,
    AggregationOp,
    ShapeError,
    aggregate,
    deserialize_update,
    dp_step,
    extract_masked_update,
    layer_layout,
    make_mask,
    serialize_update,
)
from dpfedsim.errors import NumericError, ProtocolError
from dpfedsim.masking import BODY, HEADER, INDEX, MAGIC, VALUE, WIRE_VERSION

RNG = np.random.default_rng

MLP = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=3)
LAYOUT = layer_layout(MLP)
DIM = 17  # 2*3 + 3 + 3*2 + 2


def random_params(seed):
    return ParameterVector(RNG(seed).normal(size=DIM), LAYOUT)


# ---------------------------------------------------------------- masks


def test_full_mask_counts():
    mask = make_mask(LAYOUT, [name for name, _, _ in LAYOUT])
    assert mask.trainable_count == mask.total_count == DIM


def test_empty_mask_counts():
    mask = make_mask(LAYOUT, [])
    assert mask.trainable_count == 0
    assert mask.total_count == DIM


def test_head_mask_selects_eight_of_seventeen():
    mask = make_mask(LAYOUT, ["head.weight", "head.bias"])
    assert mask.trainable_count == 8
    assert mask.total_count == 17
    # exactly the union of the two layers' ranges
    expected = np.zeros(17, dtype=bool)
    expected[9:17] = True
    assert np.array_equal(mask.coordinate_mask, expected)


def test_unknown_layer_lists_valid_names():
    with pytest.raises(ShapeError, match="hidden.weight"):
        make_mask(LAYOUT, ["nope.weight"])


@pytest.mark.parametrize(
    "layers,run",
    [
        ([name for name, _, _ in LAYOUT], slice(0, 17)),
        (["hidden.bias", "head.weight"], slice(6, 15)),
        (["head.weight", "head.bias"], slice(9, 17)),
        (["hidden.weight", "head.weight"], None),
        ([], None),
    ],
)
def test_the_selector_is_a_slice_exactly_when_the_indices_form_one_run(layers, run):
    mask = make_mask(LAYOUT, layers)
    if run is None:
        assert mask.selector is mask.indices
    else:
        assert mask.selector == run
    update = MaskedUpdate(0, 0, mask.indices, np.zeros(mask.trainable_count), 1, 1)
    assert type(update.selector) is type(mask.selector)
    w = random_params(3)
    assert np.array_equal(w.values[mask.selector], w.values[mask.indices])


def _masked_path_digest(layers):
    """sha256 of what dp_step (sgd and adam, pure and in place),
    extract_masked_update and aggregate (fedavg and fednova) make."""
    spec = ModelSpec("mlp", input_dim=5, output_dim=3, hidden_dim=7)
    layout = layer_layout(spec)
    mask = make_mask(layout, layers)
    w0 = ParameterVector(RNG(0).normal(size=mask.total_count), layout)
    h = hashlib.sha256()
    updates = []
    for cid, optimizer in enumerate(("sgd", "adam")):
        cfg = DpConfig(1.0, 0.0, 0.05, optimizer=optimizer)
        state = AdamState.zeros(mask.trainable_count) if optimizer == "adam" else None
        w = w0
        for step in range(1, 4):
            grad = RNG(10 * cid + step).normal(size=mask.trainable_count)
            w = dp_step(w, mask, grad, cfg, step, state, in_place=step > 1)
            h.update(w.values.tobytes())
        updates.append(extract_masked_update(w, w0, mask, cid, 0, tau=3, n_k=10 + cid))
        h.update(updates[-1].deltas.tobytes())
    for kind in ("fedavg", "fednova"):
        h.update(aggregate(w0, updates, AggregationOp(kind)).values.tobytes())
    return h.hexdigest()


# pinned while the three gathered and scattered through the index array
@pytest.mark.parametrize(
    "layers,expected",
    [
        (
            ["hidden.bias", "head.weight"],
            "56cf1ef332f1268371f955ef049058aa0d9e0805b27527b97d40003bf62895f3",
        ),
        (
            ["hidden.weight", "head.weight"],
            "36d54e53d0f22b9097557f801378cecef8a0ae6977bc12f22666a491370ce272",
        ),
        (
            ["hidden.weight", "hidden.bias", "head.weight", "head.bias"],
            "fcf6678ee1b97a9e9f44a2c2317f6f6454270d5ed8616942ded53a5628697d4d",
        ),
    ],
)
def test_the_masked_step_update_and_aggregate_keep_their_bytes(layers, expected):
    assert _masked_path_digest(layers) == expected


# ---------------------------------------------------------------- extraction


def test_zero_delta_entries_are_retained():
    w = random_params(0)
    mask = make_mask(LAYOUT, ["head.bias"])
    update = extract_masked_update(w, w, mask, client_id=0, round_index=0, tau=1, n_k=10)
    assert update.entry_count == 2
    assert np.all(update.deltas == 0.0)


def test_updates_reference_the_read_only_mask_indices():
    mask = make_mask(LAYOUT, ["head.weight", "head.bias"])
    w0, w1 = random_params(0), random_params(1)
    updates = [extract_masked_update(w1, w0, mask, cid, 0, tau=1, n_k=5) for cid in range(3)]
    assert all(u.indices is mask.indices for u in updates)
    with pytest.raises(ValueError, match="read-only"):
        updates[0].indices[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        mask.indices[-1] = 0
    assert np.array_equal(mask.indices, np.flatnonzero(mask.coordinate_mask))


def test_full_mask_extraction_is_dense_difference():
    w0, w1 = random_params(1), random_params(2)
    mask = make_mask(LAYOUT, [name for name, _, _ in LAYOUT])
    update = extract_masked_update(w1, w0, mask, 0, 0, tau=1, n_k=1)
    assert np.array_equal(update.deltas, w1.values - w0.values)


def test_extraction_matches_dense_diff_oracle_on_head_mask():
    # brute force: the dense difference is nonzero only at head indices
    from dpfedsim import DpConfig, dp_step

    w0 = random_params(3)
    mask = make_mask(LAYOUT, ["head.weight", "head.bias"])
    grad = RNG(4).normal(size=mask.trainable_count)
    w1 = dp_step(w0, mask, grad, DpConfig(1.0, 0.0, 0.05), step_index=1)
    dense = w1.values - w0.values
    assert np.all(np.flatnonzero(dense) >= 9)
    update = extract_masked_update(w1, w0, mask, 0, 0, tau=1, n_k=1)
    assert np.array_equal(update.deltas, dense[mask.indices])


def test_round_trip_apply_reproduces_masked_coordinates():
    w0, w1 = random_params(5), random_params(6)
    mask = make_mask(LAYOUT, ["hidden.bias", "head.weight"])
    update = extract_masked_update(w1, w0, mask, 0, 0, tau=2, n_k=3)
    rebuilt = aggregate(w0, [update], AggregationOp("fedavg"))
    # one update has weight 1.0, so this is exactly w0 + delta; that lands
    # within one rounding of w1
    assert np.array_equal(
        rebuilt.values[mask.indices], w0.values[mask.indices] + update.deltas
    )
    got = rebuilt.values[mask.indices]
    want = w1.values[mask.indices]
    assert np.all((got == want) | (np.nextafter(got, want) == want))
    frozen = ~mask.coordinate_mask
    assert np.array_equal(rebuilt.values[frozen], w0.values[frozen])


def test_layout_mismatch_rejected():
    other = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=4)
    w_other = ParameterVector(np.zeros(22), layer_layout(other))
    mask = make_mask(LAYOUT, ["head.bias"])
    with pytest.raises(ShapeError):
        extract_masked_update(random_params(0), w_other, mask, 0, 0, 1, 1)


def test_update_invariants():
    with pytest.raises(ShapeError):
        MaskedUpdate(0, 0, np.array([3, 2]), np.array([0.1, 0.2]), 1, 1)
    with pytest.raises(NumericError):
        MaskedUpdate(0, 0, np.array([1, 2]), np.array([0.1, np.inf]), 1, 1)


def test_nonfinite_update_is_a_numeric_error():
    # run_experiment turns NumericError into a partial result (CLI exit 3)
    with pytest.raises(NumericError, match="finite"):
        MaskedUpdate(0, 0, np.array([1, 2]), np.array([np.nan, 0.2]), 1, 1)


# ---------------------------------------------------------------- payloads


def test_reference_scale_masked_payload():
    # at trainable fraction 0.0021 a 1456 MB full model compresses to ~3.06 MB,
    # within 2% of the 3.10 MB reference point
    full_mb = 1456.0
    masked_mb = 0.0021 * full_mb
    assert masked_mb == pytest.approx(3.0576, abs=1e-10)
    assert abs(masked_mb - 3.10) / 3.10 < 0.02


# ---------------------------------------------------------------- wire format


def test_serialize_dense_round_trip():
    w0, w1 = random_params(9), random_params(10)
    mask = make_mask(LAYOUT, ["head.weight", "head.bias"])
    update = extract_masked_update(w1, w0, mask, client_id=3, round_index=7, tau=5, n_k=40)
    blob = serialize_update(update, total_dim=DIM, encoding="dense-f32")
    assert blob[:4] == b"FDPS"
    assert len(blob) == 16 + 16 + 4 * update.entry_count
    back = deserialize_update(blob, mask)
    assert back.client_id == 3 and back.round_index == 7
    assert back.tau == 5 and back.n_k == 40
    assert np.array_equal(back.indices, update.indices)
    assert np.array_equal(back.deltas, update.deltas.astype(np.float32).astype(np.float64))


def test_serialize_sparse_round_trip_without_mask():
    update = MaskedUpdate(1, 2, np.array([0, 4, 16]), np.array([0.25, -1.5, 3.0]), 2, 9)
    blob = serialize_update(update, total_dim=DIM, encoding="sparse-idx32-f32")
    back = deserialize_update(blob)
    assert np.array_equal(back.indices, update.indices)
    assert np.array_equal(back.deltas, update.deltas)  # exactly representable in f32


def test_deserialize_rejects_sparse_index_out_of_range():
    for index in (DIM, 1000):
        update = MaskedUpdate(1, 2, np.array([0, index]), np.array([0.5, 0.5]), 2, 9)
        blob = serialize_update(update, total_dim=DIM, encoding="sparse-idx32-f32")
        with pytest.raises(ProtocolError, match="out of range"):
            deserialize_update(blob)
    last = MaskedUpdate(1, 2, np.array([0, DIM - 1]), np.array([0.5, 0.5]), 2, 9)
    back = deserialize_update(serialize_update(last, DIM, "sparse-idx32-f32"))
    assert back.indices.tolist() == [0, DIM - 1]


def test_deserialize_rejects_sparse_indices_out_of_order():
    # a hand-built blob: serialize_update only sends a valid MaskedUpdate
    good = MaskedUpdate(1, 2, np.array([3, 5]), np.array([0.5, -0.5]), 2, 9)
    blob = serialize_update(good, total_dim=DIM, encoding="sparse-idx32-f32")
    body = HEADER.size + BODY.size
    for indices in ([5, 3], [4, 4]):
        bad = blob[:body] + np.array(indices, dtype=INDEX).tobytes() + blob[body + 8 :]
        with pytest.raises(ProtocolError, match="strictly increasing"):
            deserialize_update(bad)
    assert deserialize_update(blob).indices.tolist() == [3, 5]


def _blob(encoding="dense-f32"):
    """A valid blob of a head update, and its mask."""
    mask = make_mask(LAYOUT, ["head.weight", "head.bias"])
    update = extract_masked_update(random_params(10), random_params(9), mask, 1, 2, 2, 9)
    return serialize_update(update, total_dim=DIM, encoding=encoding), mask


@pytest.mark.parametrize("encoding", ["dense-f32", "sparse-idx32-f32"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_deserialize_rejects_non_finite_values_as_a_protocol_error(encoding, value):
    # a hand-built blob: its last value on the wire overwritten
    blob, mask = _blob(encoding)
    bad = blob[: -VALUE.itemsize] + np.array([value], dtype=VALUE).tobytes()
    with pytest.raises(ProtocolError, match="finite") as caught:
        deserialize_update(bad, mask)
    assert not isinstance(caught.value, NumericError)
    assert np.array_equal(deserialize_update(blob, mask).indices, mask.indices)


def test_deserialize_rejects_a_blob_shorter_than_header_and_body():
    blob, mask = _blob()
    with pytest.raises(ProtocolError, match="shorter than the fixed header"):
        deserialize_update(blob[: HEADER.size + BODY.size - 1], mask)


@pytest.mark.parametrize(
    "version, code, message",
    [(WIRE_VERSION + 1, 1, "unsupported wire version 2"), (WIRE_VERSION, 3, "unknown encoding code 3")],
)
def test_deserialize_rejects_an_unknown_version_or_encoding_code(version, code, message):
    blob, mask = _blob()
    bad = HEADER.pack(MAGIC, version, code, 1, 2) + blob[HEADER.size :]
    with pytest.raises(ProtocolError, match=message):
        deserialize_update(bad, mask)


def test_deserialize_rejects_a_dense_blob_read_with_a_mask_of_another_size():
    blob, _ = _blob()
    with pytest.raises(ProtocolError, match="mask does not match"):
        deserialize_update(blob, make_mask(LAYOUT, ["head.bias"]))


def test_deserialize_rejects_a_dense_payload_of_the_wrong_length():
    blob, mask = _blob()
    for bad in (blob[: -VALUE.itemsize], blob + bytes(VALUE.itemsize)):
        with pytest.raises(ProtocolError, match="dense payload has the wrong size"):
            deserialize_update(bad, mask)


def test_serialize_rejects_an_unknown_encoding():
    update = MaskedUpdate(1, 2, np.array([3, 5]), np.array([0.5, -0.5]), 2, 9)
    with pytest.raises(ShapeError, match="unknown encoding 'dense-f16'"):
        serialize_update(update, DIM, "dense-f16")


def test_deserialize_rejects_bad_magic_and_size():
    update = MaskedUpdate(1, 2, np.array([0, 4]), np.array([0.5, 0.5]), 2, 9)
    blob = serialize_update(update, DIM, "sparse-idx32-f32")
    with pytest.raises(ProtocolError):
        deserialize_update(b"XXXX" + blob[4:])
    with pytest.raises(ProtocolError):
        deserialize_update(blob[:-2])
    mask = make_mask(LAYOUT, ["head.bias"])
    dense = serialize_update(update, DIM, "dense-f32")
    with pytest.raises(ProtocolError):
        deserialize_update(dense)  # mask required
