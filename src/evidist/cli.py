"""Command-line interface.

Subcommands: validate, combine, ppt, dist, rank, repro. Every command
emits CSV (default) or JSON via the global --format flag. Numbers are
displayed with exactly 4 decimal places so repeated runs are
byte-identical. Exit codes: 0 success, 1 usage error, 2 parse or
validation error, 3 computation error.

Each command imports the modules it uses when it runs, so a process
compiles only those (``validate`` needs none beyond the document
parser).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections.abc import Sequence

from .core import _left_sum
from .document import EvidenceDocument, _CollectorPause, parse_document
from .errors import DocumentError, EvidenceError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="evidist",
        description="Evidence distances and BBA ranking on ordered frames.",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser("validate", help="check a document and summarize its BBAs")
    p.add_argument("file", help="evidence document")

    p = commands.add_parser("combine", help="combine BBAs with Dempster's rule")
    p.add_argument("file", help="evidence document")
    p.add_argument("--bbas", required=True, help="comma-separated BBA names (two or more)")

    p = commands.add_parser("ppt", help="pignistic probability transformation of a BBA")
    p.add_argument("file", help="evidence document")
    p.add_argument("--bba", required=True, help="BBA name")

    p = commands.add_parser("dist", help="distance between two BBAs")
    p.add_argument("file", help="evidence document")
    p.add_argument("--pair", required=True, help="two comma-separated BBA names")
    p.add_argument(
        "--measure",
        default="red",
        help="red, jousselme, or betp[:all|singleton|focal] (default: red)",
    )

    p = commands.add_parser("rank", help="rank all BBAs by distance to a reference")
    p.add_argument("file", help="evidence document")
    p.add_argument("--reference", required=True, help="reference BBA name")
    p.add_argument(
        "--measure",
        default="red",
        help="red, jousselme, or betp[:all|singleton|focal] (default: red)",
    )

    p = commands.add_parser("repro", help="recompute a built-in benchmark report")
    p.add_argument("report", choices=("examples", "sweep"), help="which report")

    return parser


def _load_document(path: str) -> EvidenceDocument:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(
            f"cannot read {path}: not UTF-8 text (byte {exc.start})"
        ) from None
    return parse_document(text)


def _split_names(raw: str, *, minimum: int, flag: str) -> list[str]:
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if len(names) < minimum:
        raise _UsageError(f"{flag} needs at least {minimum} comma-separated names")
    return names


def _parse_measure(raw: str):
    from .distance import DistanceMeasure

    try:
        return DistanceMeasure.parse(raw)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_validate(args):
    document = _load_document(args.file)
    rows = [
        {
            "bba": name,
            "focal_sets": len(bba._by_bits),
            "mass_sum": _left_sum(bba._by_bits.values()),
        }
        for name, bba in document.bbas.items()
    ]
    return ["bba", "focal_sets", "mass_sum"], rows


def _cmd_combine(args):
    from .combination import combine_all

    document = _load_document(args.file)
    names = _split_names(args.bbas, minimum=2, flag="--bbas")
    combined = combine_all(document.bba(name) for name in names)
    rows = [
        {"set": repr(fs), "mass": mass} for fs, mass in combined.entries
    ]
    return ["set", "mass"], rows


def _cmd_ppt(args):
    from .pignistic import ppt

    document = _load_document(args.file)
    distribution = ppt(document.bba(args.bba))
    rows = [
        {"element": label, "probability": probability}
        for label, probability in zip(
            document.frame.labels, distribution.probabilities
        )
    ]
    return ["element", "probability"], rows


def _cmd_dist(args):
    document = _load_document(args.file)
    names = [name.strip() for name in args.pair.split(",") if name.strip()]
    if len(names) != 2:
        raise _UsageError("--pair needs exactly two comma-separated names")
    measure = _parse_measure(args.measure)
    value = measure.evaluate(document.bba(names[0]), document.bba(names[1]))
    rows = [
        {
            "bba_1": names[0],
            "bba_2": names[1],
            "measure": measure.label,
            "distance": value,
        }
    ]
    return ["bba_1", "bba_2", "measure", "distance"], rows


def rank_by_distance(reference, candidates, measure, **options):
    """:func:`evidist.ranking.rank_by_distance`, imported on first call. It
    is an attribute of this module, not an import inside ``_cmd_rank``, so
    that the benchmark harness can wrap it, as it wraps ``parse_document``."""
    from .ranking import rank_by_distance

    return rank_by_distance(reference, candidates, measure, **options)


def _cmd_rank(args):
    document = _load_document(args.file)
    measure = _parse_measure(args.measure)
    reference = document.bba(args.reference)
    result = rank_by_distance(
        reference,
        document.bbas,
        measure,
        reference_name=args.reference,
    )
    rows = [
        {
            "bba": entry.name,
            "distance": entry.distance,
            "rank": entry.rank,
            "tied": entry.tied,
        }
        for entry in result.entries
    ]
    return ["bba", "distance", "rank", "tied"], rows


def _cmd_repro(args):
    from . import repro

    if args.report == "examples":
        rows = repro.comparison_rows()
        return ["case", "bba_1", "bba_2", "measure", "computed", "expected", "match"], rows
    rows = repro.sweep_rows()
    return ["case", "jousselme", "betp_focal", "red"], rows


_COMMANDS = {
    "validate": _cmd_validate,
    "combine": _cmd_combine,
    "ppt": _cmd_ppt,
    "dist": _cmd_dist,
    "rank": _cmd_rank,
    "repro": _cmd_repro,
}


def _display(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _render(fields: list[str], rows: list[dict], fmt: str, out: io.TextIOBase):
    if fmt == "json":
        payload = [
            {
                key: (round(value, 4) if isinstance(value, float) else value)
                for key, value in row.items()
            }
            for row in rows
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_display(row[field]) for field in fields])


def run_cli(
    argv: Sequence[str] | None = None,
    stdout: io.TextIOBase | None = None,
    stderr: io.TextIOBase | None = None,
) -> int:
    """Run one CLI invocation and return its exit status.

    The command runs, and its output is written, with the cyclic garbage
    collector paused; the collector's prior state is restored on every
    exit. A collection during a command could only rescan the document
    the command holds, and by the time the collector resumes, reference
    counting has freed it.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"evidist: {exc}", file=err)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    if args.command is None:
        print("evidist: missing command (see evidist --help)", file=err)
        return EXIT_USAGE
    with _CollectorPause():
        return _run_command(args, out, err)


def _run_command(args, out: io.TextIOBase, err: io.TextIOBase) -> int:
    try:
        fields, rows = _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"evidist: {exc}", file=err)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"evidist: cannot read {exc.filename}: file not found", file=err)
        return EXIT_INVALID
    except OSError as exc:
        print(f"evidist: {exc}", file=err)
        return EXIT_INVALID
    except ValidationError as exc:
        print(f"evidist: {exc}", file=err)
        return EXIT_INVALID
    except EvidenceError as exc:
        print(f"evidist: {exc}", file=err)
        return EXIT_COMPUTE
    _render(fields, rows, args.format, out)
    return EXIT_OK


def main():
    sys.exit(run_cli())
