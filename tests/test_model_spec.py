"""Which model specifications each kind accepts, and what a rejection names."""

import pytest

from dpfedsim import ModelSpec, ShapeError
from dpfedsim.models import KINDS

# (kind, dimensions, whether targets are class indices)
VALID = [
    ("linear", dict(input_dim=3, output_dim=1), False),
    ("logistic", dict(input_dim=3, output_dim=2), True),
    ("mlp", dict(input_dim=3, output_dim=1, hidden_dim=1), True),
    ("mlp", dict(input_dim=3, output_dim=4, hidden_dim=5, activation="relu"), True),
    ("mlp", dict(input_dim=1, output_dim=2, hidden_dim=2, activation="tanh"), True),
]

# (kind, dimensions, the field the error must name)
REJECTED = [
    ("bogus", dict(input_dim=3, output_dim=2), "kind"),
    ("linear", dict(input_dim=3, output_dim=2), "output_dim"),
    ("linear", dict(input_dim=3, output_dim=3), "output_dim"),
    ("logistic", dict(input_dim=3, output_dim=1), "output_dim"),
    ("logistic", dict(input_dim=3, output_dim=3), "output_dim"),
    ("linear", dict(input_dim=3, output_dim=1, hidden_dim=4), "hidden_dim"),
    ("logistic", dict(input_dim=3, output_dim=2, hidden_dim=4), "hidden_dim"),
    ("logistic", dict(input_dim=3, output_dim=2, hidden_dim=-1), "hidden_dim"),
    ("mlp", dict(input_dim=3, output_dim=2, hidden_dim=0), "hidden_dim"),
    ("mlp", dict(input_dim=3, output_dim=2, hidden_dim=-2), "hidden_dim"),
    ("mlp", dict(input_dim=3, output_dim=2, hidden_dim=4, activation="gelu"), "activation"),
    ("mlp", dict(input_dim=0, output_dim=2, hidden_dim=4), "input_dim"),
    ("mlp", dict(input_dim=3, output_dim=0, hidden_dim=4), "output_dim"),
]


def _case_id(case) -> str:
    kind, dims, _ = case
    return "-".join([kind, *(f"{key}={value}" for key, value in dims.items())])


@pytest.mark.parametrize("case", VALID, ids=_case_id)
def test_every_kind_accepts_its_valid_shapes(case):
    kind, dims, classifier = case
    spec = ModelSpec(kind, **dims)
    assert spec.is_classifier is classifier


@pytest.mark.parametrize("case", REJECTED, ids=_case_id)
def test_a_rejected_spec_names_its_field(case):
    kind, dims, field = case
    with pytest.raises(ShapeError, match=field):
        ModelSpec(kind, **dims)


def test_every_kind_is_covered():
    assert {kind for kind, _, _ in VALID} == set(KINDS)
