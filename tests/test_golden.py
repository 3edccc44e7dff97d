"""The CLI's exact output and the rank distances' last bits, against the
records in tests/golden/cli.json (see golden_outputs.py to regenerate)."""

import json

import golden_outputs


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
    library = [record for record in _load() if "generated" in record]
    assert {record["python"] for record in library} == {"<3.12", ">=3.12"}
    expected = [record for record in library if record["python"] == golden_outputs.PYTHON]
    mismatches = _mismatches(expected, golden_outputs.library_records())
    assert not mismatches, "\n".join(mismatches)


def test_golden_file_is_as_regenerated():
    # A hand edit that the generator would not write shows here.
    with open(golden_outputs.GOLDEN, encoding="utf-8") as file:
        assert file.read() == golden_outputs.dumps(_load())
