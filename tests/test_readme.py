"""The README's configuration and library examples run as written."""

import re
from pathlib import Path

from dpfedsim.config import load_dataset, parse_kv_text, resolve_raw

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_the_configuration_example_resolves_and_loads():
    (text,) = _blocks("ini")
    resolved = resolve_raw(parse_kv_text(text, origin="README.md"))
    assert resolved.values["model.hidden_dim"] == 8
    train, test = load_dataset(resolved)
    assert train.size + test.size == resolved.values["dataset.samples"]


def test_the_library_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
    assert "noise multiplier solved from the run's shards:" in capsys.readouterr().out
