"""One map from layer names to coordinate ranges, and its one unknown-layer error."""

from dataclasses import replace

import numpy as np
import pytest

from dpfedsim import (
    ConfigError,
    ModelSpec,
    SampleBatch,
    ShapeError,
    init_params,
    layer_layout,
    per_sample_gradients,
    resolve_raw,
)
from dpfedsim.cli import EXIT_CONFIG, main
from dpfedsim.masking import make_mask
from dpfedsim.models import layer_spans

SPEC = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=4)
LAYOUT = layer_layout(SPEC)
NAMES = ["hidden.weight", "hidden.bias", "head.weight", "head.bias"]
RAW = {
    "model.kind": "mlp",
    "model.input_dim": "2",
    "model.output_dim": "2",
    "model.hidden_dim": "4",
    "clients": "2",
    "rounds": "1",
    "batch_size": "8",
    "dataset.samples": "80",
}


def test_spans_follow_the_layout():
    assert layer_spans(LAYOUT) == {
        "hidden.weight": slice(0, 8),
        "hidden.bias": slice(8, 12),
        "head.weight": slice(12, 20),
        "head.bias": slice(20, 22),
    }


def test_named_spans_come_in_layout_order():
    spans = layer_spans(LAYOUT, ["head.bias", "hidden.weight", "head.bias"])
    assert spans == {"hidden.weight": slice(0, 8), "head.bias": slice(20, 22)}
    assert layer_spans(LAYOUT, []) == {}


def _shape_error(call) -> str:
    with pytest.raises(ShapeError) as info:
        call()
    return str(info.value)


def test_every_lookup_raises_one_unknown_layer_error(tmp_path, capsys):
    params = init_params(SPEC, seed=0)
    batch = SampleBatch(np.zeros((3, 2)), np.array([0, 1, 0]))
    texts = {
        _shape_error(lambda: layer_spans(LAYOUT, ["head.typo"])),
        _shape_error(lambda: make_mask(LAYOUT, ["head.weight", "head.typo"])),
        _shape_error(lambda: per_sample_gradients(SPEC, params, batch, layers=["head.typo"])),
        _shape_error(lambda: params.layer("head.typo")),
    }
    assert len(texts) == 1
    (text,) = texts
    assert "'head.typo'" in text
    assert all(name in text for name in NAMES)

    with pytest.raises(ConfigError) as info:
        replace(resolve_raw(RAW).experiment, mask_layers=("head.typo",))
    assert str(info.value) == f"mask_layers: {text}"

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in RAW.items()))
    out = tmp_path / "out"
    args = ["federated", "--config", str(cfg), "--set", "mask_layers=head.typo", "--out", str(out)]
    assert main(args) == EXIT_CONFIG
    assert not out.exists()
    assert f"configuration error: mask_layers: {text}" in capsys.readouterr().err
