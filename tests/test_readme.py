"""The README's configuration and library examples run as written."""

import re
from pathlib import Path

from dpfedsim.config import SCHEMA, load_dataset, parse_kv_text, resolve_raw

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_the_configuration_example_resolves_and_loads():
    (text,) = _blocks("ini")
    resolved = resolve_raw(parse_kv_text(text, origin="README.md"))
    assert resolved.values["model.hidden_dim"] == 8
    train, test = load_dataset(resolved)
    assert train.size + test.size == resolved.values["dataset.samples"]


def test_the_rules_table_lists_the_schema_rows_whose_default_is_a_rule():
    numbers = ["no", "one", "two", "three", "four", "five", "six", "seven", "eight"]
    rules = [key for key, (_, default, _) in SCHEMA.items() if callable(default)]
    found = re.search(r"(\w+) defaults\s+are rules over keys above them:\n\n((?:\|.*\n)+)", README.read_text())
    assert found.group(1).lower() == numbers[len(rules)]
    rows = found.group(2).splitlines()[2:]  # under the header and the rule line
    assert [re.match(r"\| `([^`]+)` \|", row).group(1) for row in rows] == rules


def test_the_library_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
    assert "noise multiplier solved from the run's shards:" in capsys.readouterr().out
