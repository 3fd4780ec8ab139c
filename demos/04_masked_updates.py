#!/usr/bin/env python3
"""Trainable-subset masks, masked update extraction, and the wire format."""

import numpy as np

from dpfedsim import (
    CommModel,
    DpConfig,
    ModelSpec,
    deserialize_update,
    dp_step,
    extract_masked_update,
    init_params,
    layer_layout,
    make_mask,
    serialize_update,
    traffic_per_round,
)

spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=8)
layout = layer_layout(spec)
w0 = init_params(spec, seed=0)

# freeze the backbone, train the classification head only
mask = make_mask(layout, ["head.weight", "head.bias"])
print(f"model d={mask.total_count}, trainable d_t={mask.trainable_count}, "
      f"fraction={mask.trainable_fraction:.4f}")

# one private step, then the masked delta a client would transmit
grad = np.random.default_rng(1).normal(size=mask.trainable_count)
w1 = dp_step(w0, mask, grad, DpConfig(1.0, 0.0, 0.1), step_index=1)
update = extract_masked_update(w1, w0, mask, client_id=0, round_index=0, tau=1, n_k=64)
print("update indices:", update.indices)
print("backbone untouched:",
      np.array_equal(w1.values[~mask.coordinate_mask], w0.values[~mask.coordinate_mask]))

# traffic model: dense sends values only, sparse pays for indices + header
comm = CommModel(bandwidth_mbps=25.0 / 3.0, full_model_bytes=4.0 * mask.total_count)
print("\ntraffic bytes dense-f32 :", traffic_per_round(mask, comm, "dense-f32"))
print("traffic bytes sparse    :", traffic_per_round(mask, comm, "sparse-idx32-f32"))

# the actual wire form round-trips through float32 values
blob = serialize_update(update, total_dim=mask.total_count, encoding="dense-f32")
print(f"\nwire blob: {len(blob)} bytes, magic={blob[:4]!r}")
back = deserialize_update(blob, mask)
print("round trip max |delta error|:",
      np.max(np.abs(back.deltas - update.deltas)), "(float32 resolution)")
