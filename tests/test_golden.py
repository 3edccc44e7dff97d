"""The CLI's exact output and the rank distances' last bits, against the
records in tests/golden/cli.json (see golden_outputs.py to regenerate)."""

import ast
import json
from pathlib import Path

import golden_outputs

SOURCE = Path(__file__).resolve().parents[1] / "src" / "evidist"


def _load() -> list[dict]:
    with open(golden_outputs.GOLDEN, encoding="utf-8") as file:
        return json.load(file)


def _mismatches(expected: list[dict], actual: list[dict]) -> list[str]:
    assert len(actual) == len(expected), f"{len(actual)} records, golden file has {len(expected)}"
    return [
        f"golden {want}\n   now {got}" for want, got in zip(expected, actual) if want != got
    ]


def test_cli_outputs_match_golden():
    expected = [record for record in _load() if "argv" in record]
    mismatches = _mismatches(expected, golden_outputs.cli_records())
    assert not mismatches, f"{len(mismatches)} CLI records differ:\n" + "\n".join(mismatches[:10])


def test_generated_rankings_match_golden():
    # One set for every supported Python (see golden_outputs).
    expected = [record for record in _load() if "generated" in record]
    mismatches = _mismatches(expected, golden_outputs.library_records())
    assert not mismatches, "\n".join(mismatches)


def test_golden_file_is_as_regenerated():
    # A hand edit that the generator would not write shows here.
    with open(golden_outputs.GOLDEN, encoding="utf-8") as file:
        assert file.read() == golden_outputs.dumps(_load())


def test_package_never_uses_builtin_sum():
    # From Python 3.12 on, sum() of floats compensates its rounding, so its
    # last bits depend on the interpreter; the package adds left to right
    # (core._left_sum). Most golden values print with four decimals, which
    # would hide a stray sum() in, say, a mass total.
    paths = sorted(SOURCE.glob("*.py"))
    assert any(path.name == "core.py" for path in paths)
    uses = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "sum"
    ]
    assert not uses, f"builtin sum() used at {', '.join(uses)}"
