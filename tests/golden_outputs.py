"""Golden outputs: the exact bytes of a fixed set of CLI commands, and the
last bits of the rank distances on a generated document.

Run ``PYTHONPATH=src python tests/golden_outputs.py`` from the repository
root to rewrite tests/golden/cli.json from the current code;
tests/test_golden.py recomputes every record and compares. The records
are the same on every supported Python: evidist adds floats strictly left
to right, never with the builtin sum(), which compensates its rounding
from Python 3.12 on. Rewriting the file is a test change, so say which
records changed and why.

Each CLI record holds the argv, the exit status, stderr and stdout; an
output longer than FULL_LIMIT characters is kept as its sha256. The
commands run in a scratch directory that holds the shipped examples under
``examples/`` and the malformed documents under ``malformed/``, so paths
in messages do not depend on the checkout. argparse's "invalid choice"
messages are left out: their quoting is argparse's, not evidist's, and
may change between Python releases.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile

from evidist.cli import run_cli
from evidist.distance import DistanceMeasure
from evidist.document import parse_document
from evidist.ranking import rank_by_distance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "docs", "examples")
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli.json")
FULL_LIMIT = 2048
MEASURES = ("red", "jousselme", "betp", "betp:all", "betp:singleton", "betp:focal")
GENERATED_SEED = 20_130_601
GENERATED_COUNT = 2_000
GENERATED_SIZE = 20


def generated_document(seed: int, count: int, size: int) -> str:
    """A rank-like document: ``count`` BBAs of 1 to 6 entries on frame
    g1..g<size>, about 40 % singletons, 40 % runs of 2 to 4 grades and
    20 % random subsets, spelled by labels or positions; about one BBA in
    twenty repeats an earlier one, which makes exact ties. Every draw is
    ``random.Random(seed).random()``, whose stream is the same on every
    Python version; ``randrange``, ``choice`` and ``sample`` make no such
    promise.
    """
    draw = random.Random(seed).random
    labels = [f"g{i}" for i in range(1, size + 1)]
    bbas: dict[str, list] = {}
    for index in range(count):
        name = f"b{index:05d}"
        if bbas and draw() < 0.05:
            earlier = list(bbas.values())
            bbas[name] = earlier[int(draw() * len(earlier))]
            continue
        entries = []
        for _ in range(1 + int(draw() * 6)):
            kind = draw()
            if kind < 0.4:
                positions = [1 + int(draw() * size)]
            elif kind < 0.8:
                length = 2 + int(draw() * 3)
                low = 1 + int(draw() * (size - length + 1))
                positions = list(range(low, low + length))
            else:
                positions = [p for p in range(1, size + 1) if draw() < 0.5] or [size]
            if draw() < 0.5:
                positions = [labels[p - 1] for p in positions]
            entries.append({"set": positions, "mass": draw() + 0.05})
        # A plain loop: sum() of floats rounds differently from 3.12 on.
        total = 0.0
        for entry in entries:
            total += entry["mass"]
        for entry in entries:
            entry["mass"] /= total
        bbas[name] = entries
    return json.dumps({"frame": labels, "bbas": bbas}, separators=(",", ":"))


def _bba_document(bbas: str, frame: str = '["A", "B", "C"]') -> str:
    return '{"frame": %s, "bbas": %s}' % (frame, bbas)


def _third_entry(third: str) -> str:
    return _bba_document(
        '{"m": [{"set": ["A"], "mass": 0.5}, {"set": ["B"], "mass": 0.5}, %s]}' % third
    )


# The rejected and edge-case documents of tests/test_document.py and
# tests/test_cli.py, plus two documents with two bad BBAs each.
MALFORMED: dict[str, str | bytes] = {
    "missing-bbas": '{"frame": ["A"]}',
    "extra-top-key": '{"frame": ["A"], "bbas": {}, "extra": 1}',
    "frame-not-list": '{"frame": "A", "bbas": {}}',
    "duplicate-label": '{"frame": ["A", "A"], "bbas": {}}',
    "comma-label": '{"frame": ["a,b", "c"], "bbas": {"m": [{"set": [1], "mass": 1.0}]}}',
    "brace-label": '{"frame": ["c", "{d}"], "bbas": {}}',
    "bbas-not-object": '{"frame": ["A"], "bbas": []}',
    "bba-not-list": '{"frame": ["A"], "bbas": {"m": {}}}',
    "entry-missing-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"]}]}}',
    "entry-extra-key": (
        '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 1.0, "note": "x"}]}}'
    ),
    "empty-set": '{"frame": ["A"], "bbas": {"m": [{"set": [], "mass": 1.0}]}}',
    "unknown-label": '{"frame": ["A"], "bbas": {"m": [{"set": ["B"], "mass": 1.0}]}}',
    "position-out-of-range": '{"frame": ["A"], "bbas": {"m": [{"set": [2], "mass": 1.0}]}}',
    "bool-member": '{"frame": ["A"], "bbas": {"m": [{"set": [true], "mass": 1.0}]}}',
    "null-member": '{"frame": ["A"], "bbas": {"m": [{"set": ["A", 1, null], "mass": 1.0}]}}',
    "float-member": '{"frame": ["A"], "bbas": {"m": [{"set": [1, 1.0], "mass": 1.0}]}}',
    "string-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": "1"}]}}',
    "negative-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": -1.0}]}}',
    "nan-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": NaN}]}}',
    "infinity-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": Infinity}]}}',
    "minus-infinity-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": -Infinity}]}}',
    "1e999-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 1e999}]}}',
    "mass-sum-0.5": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 0.5}]}}',
    "mass-sum-0.99": '{"frame": ["A", "B"], "bbas": {"m": [{"set": ["A"], "mass": 0.99}]}}',
    "syntax-error": '{\n  "frame": [,]\n}',
    "duplicate-top-level-key": '{"frame": ["A"], "frame": ["B"], "bbas": {}}',
    "duplicate-bba-name": (
        '{"frame": ["A", "B"], "bbas": {"m": [{"set": ["A"], "mass": 1.0}],'
        ' "m": [{"set": ["B"], "mass": 1.0}]}}'
    ),
    "duplicate-entry-key": (
        '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 0.5, "mass": 1.0}]}}'
    ),
    "deep-nesting": "[" * 100_000,
    "400-digit-mass": '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": %s}]}}' % ("1" * 400),
    "5000-digit-integer": (
        '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": %s}]}}' % ("1" * 5000)
    ),
    "not-utf-8": b"\xff\xfe{}",
    "third-non-dict": _third_entry('"A"'),
    "third-missing-key": _third_entry('{"set": ["C"]}'),
    "third-extra-key": _third_entry('{"set": ["C"], "mass": 0.0, "note": "x"}'),
    "third-empty-set": _third_entry('{"set": [], "mass": 0.0}'),
    "third-null-set": _third_entry('{"set": null, "mass": 0.0}'),
    "third-bool-member": _third_entry('{"set": ["C", true], "mass": 0.0}'),
    "third-float-member": _third_entry('{"set": [3.0], "mass": 0.0}'),
    "third-null-member": _third_entry('{"set": [null], "mass": 0.0}'),
    "third-string-mass": _third_entry('{"set": ["C"], "mass": "0.5"}'),
    "third-null-mass": _third_entry('{"set": ["C"], "mass": null}'),
    "third-integer-mass-1": _third_entry('{"set": ["C"], "mass": 1}'),
    "third-unknown-label": _third_entry('{"set": ["Z"], "mass": 0.0}'),
    "third-position-0": _third_entry('{"set": [0], "mass": 0.0}'),
    "third-position-N+1": _third_entry('{"set": [4], "mass": 0.0}'),
    "irregular-zero-mass": _bba_document('{"m": [{"set": ["A"], "mass": 0.0}]}'),
    "irregular-zero-mass-dropped": _bba_document(
        '{"m": [{"set": ["A"], "mass": 0.0}, {"set": ["B"], "mass": 1.0}]}'
    ),
    "irregular-negative-mass": _bba_document(
        '{"m": [{"set": ["A"], "mass": -0.5}, {"set": ["B"], "mass": 1.5}]}'
    ),
    "irregular-overflowing-mass": _bba_document('{"m": [{"set": ["A"], "mass": 1e999}]}'),
    "irregular-integer-mass": _bba_document('{"m": [{"set": ["A"], "mass": 1}]}'),
    "irregular-empty-set": _bba_document(
        '{"m": [{"set": ["A"], "mass": 0.5}, {"set": [], "mass": 0.5}]}'
    ),
    "irregular-before-regular": _bba_document(
        '{"m": [{"set": ["Z"], "mass": 0.5}, {"set": ["B"], "mass": 0.5}]}'
    ),
    "irregular-shape-before-value": _bba_document(
        '{"m": [{"set": [4], "mass": 0.5}, {"set": ["B"], "mass": "0.5"}]}'
    ),
    "integer-masses": _bba_document(
        '{"m": [{"set": ["A"], "mass": 0}, {"set": ["B"], "mass": 0.0},'
        ' {"set": ["C"], "mass": 1}]}'
    ),
    # The first bad BBA in document order is reported, whichever route
    # (regular entries or build_bba) each one takes.
    "two-bad-regular-first": _bba_document(
        '{"z": [{"set": ["A"], "mass": 0.5}], "m": [{"set": ["Q"], "mass": 1.0}]}'
    ),
    "two-bad-checked-first": _bba_document(
        '{"z": [{"set": ["Q"], "mass": 1.0}], "m": [{"set": ["A"], "mass": 0.5}]}'
    ),
    # Valid, but the pignistic probabilities of "m" round to a sum just
    # past the mass-sum tolerance.
    "edge-sum": (
        '{"frame": ["A", "B", "C", "D", "E", "F", "G"],'
        ' "bbas": {"m": [{"set": ["A", "B", "C", "D", "E", "F"], "mass": 0.06},'
        ' {"set": ["A", "B", "C", "E", "F", "G"], "mass": 0.17},'
        ' {"set": ["A", "B", "E", "G"], "mass": 0.770000001}],'
        ' "r": [{"set": ["D"], "mass": 1.0}]}}'
    ),
    # Two names that differ only by a leading space: a name is taken as given.
    "spaced-names": _bba_document(
        '{" m": [{"set": ["A"], "mass": 1.0}], "m": [{"set": ["B"], "mass": 1.0}]}'
    ),
}


def _example_commands() -> list[list[str]]:
    commands = []
    for file_name in sorted(os.listdir(EXAMPLES)):
        path = f"examples/{file_name}"
        with open(os.path.join(EXAMPLES, file_name), encoding="utf-8") as file:
            names = list(json.load(file)["bbas"])
        commands.append(["validate", path])
        commands += [["ppt", path, "--bba", name] for name in names]
        for measure in MEASURES:
            commands += [
                ["dist", path, "--pair", f"{first},{second}", "--measure", measure]
                for first in names
                for second in names
            ]
            commands += [
                ["rank", path, "--reference", name, "--measure", measure] for name in names
            ]
        commands += [
            ["combine", path, "--bbas", f"{first},{second}"]
            for first in names
            for second in names
            if first != second
        ]
        commands += [
            ["combine", path, "--bbas", ",".join((first, second, third))]
            for first in names
            for second in names
            for third in names
            if len({first, second, third}) == 3
        ]
    return commands


def _usage_commands() -> list[list[str]]:
    pairs = "examples/grades_pairs.json"
    return [
        [],
        ["validate"],
        ["ppt", pairs],
        ["validate", pairs, "--loud"],
        ["dist", pairs, "--pair", "m1,m2", "--measure", "nope"],
        ["dist", pairs, "--pair", "m1,m2", "--measure", "red:all"],
        ["dist", pairs, "--pair", "m1,m2", "--measure", "betp:bogus"],
        ["dist", pairs, "--pair", "m1"],
        ["dist", pairs, "--pair", "m1,m2,m3"],
        ["dist", pairs, "--pair", "m1,mX"],
        ["combine", pairs, "--bbas", "m1"],
        ["combine", pairs, "--bbas", "m1,mX"],
        ["dist", pairs, "--pair", "m1, m2"],
        ["dist", pairs, "--pair", "m1,"],
        ["combine", pairs, "--bbas", "m1,m2,"],
        ["dist", "malformed/spaced-names.json", "--pair", " m,m"],
        ["combine", "malformed/spaced-names.json", "--bbas", " m,m"],
        ["rank", pairs, "--reference", "mX"],
        ["rank", pairs, "--reference", "m1", "--measure", "betp:"],
        ["ppt", pairs, "--bba", "mX"],
        ["validate", "no-such-file.json"],
        ["validate", pairs + "/"],
        ["validate", ""],
        ["validate", "examples"],
    ]


def _malformed_commands() -> list[list[str]]:
    commands = []
    for case in MALFORMED:
        path = f"malformed/{case}.json"
        commands += [
            ["validate", path],
            ["ppt", path, "--bba", "m"],
            ["rank", path, "--reference", "m"],
            ["combine", path, "--bbas", "m,m"],
        ]
    return commands


def cli_commands() -> list[list[str]]:
    """Every argv of the CLI records, each in CSV and in JSON."""
    base = (
        _example_commands()
        + [["repro", "examples"], ["repro", "sweep"]]
        + _usage_commands()
        + _malformed_commands()
    )
    return [argv for command in base for argv in (command, ["--format", "json", *command])]


def _output(record: dict, key: str, text: str):
    if len(text) > FULL_LIMIT:
        record[key + "_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        record[key] = text


def cli_records() -> list[dict]:
    """Run every command in a scratch directory and record what it does."""
    records = []
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(EXAMPLES, os.path.join(scratch, "examples"))
        os.mkdir(os.path.join(scratch, "malformed"))
        for case, text in MALFORMED.items():
            data = text if isinstance(text, bytes) else text.encode()
            with open(os.path.join(scratch, "malformed", f"{case}.json"), "wb") as file:
                file.write(data)
        previous = os.getcwd()
        os.chdir(scratch)
        try:
            for argv in cli_commands():
                out, err = io.StringIO(), io.StringIO()
                record = {"argv": argv, "exit": run_cli(argv, stdout=out, stderr=err)}
                _output(record, "stderr", err.getvalue())
                _output(record, "stdout", out.getvalue())
                records.append(record)
        finally:
            os.chdir(previous)
    return records


def _sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def library_records() -> list[dict]:
    """The generated document's masses and, for each measure spelling,
    its ranking from the first BBA, with every float as ``float.hex``."""
    text = generated_document(GENERATED_SEED, GENERATED_COUNT, GENERATED_SIZE)
    document = parse_document(text)
    records = [
        {"generated": "text", "sha256": _sha256_lines([text])},
        {
            "generated": "masses",
            "sha256": _sha256_lines(
                f"{name} {bits} {mass.hex()}"
                for name, bba in document.bbas.items()
                for bits, mass in bba._by_bits.items()
            ),
        },
    ]
    reference = next(iter(document.bbas.values()))
    for spelling in MEASURES:
        result = rank_by_distance(reference, document.bbas, DistanceMeasure.parse(spelling))
        records.append(
            {
                "generated": f"rank {spelling}",
                "measure": result.measure,
                "ties": sum(entry.tied for entry in result.entries),
                "sha256": _sha256_lines(
                    f"{entry.rank} {entry.name} {entry.distance.hex()} {entry.tied}"
                    for entry in result.entries
                ),
            }
        )
    return records


def dumps(golden: list[dict]) -> str:
    """One record per line, so that a diff shows each changed record."""
    return "[\n" + ",\n".join(json.dumps(record) for record in golden) + "\n]\n"


def regenerate():
    """Rewrite the golden file from the current code."""
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as file:
        file.write(dumps(cli_records() + library_records()))


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}", file=sys.stderr)
