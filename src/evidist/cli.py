"""Command-line interface.

Subcommands: validate, combine, ppt, dist, rank, repro. Every command
emits CSV (default) or JSON via the global --format flag. Numbers are
displayed with exactly 4 decimal places so repeated runs are
byte-identical. Exit codes: 0 success, 1 usage error, 2 parse or
validation error, 3 computation error, and from ``main`` 141 when
stdout's reader has gone away.

``run_cli`` runs an invocation on one path: one ``try`` block parses
the arguments, reads the document and runs the command, and its
handlers, one per exit status, decide the status; each error handler
writes one ``evidist: ...`` line to stderr.

``_GRAMMAR`` states the arguments. argparse, built from it, is imported
only for help, usage errors and non-canonical spellings.

A command takes the document its ``file`` argument names, read in one
place, and returns its column names and its rows as tuples in that
order. It imports the modules it uses when it runs, so a process
compiles only those (``validate`` needs none beyond the parser).
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections.abc import Iterable, Sequence
from operator import itemgetter
from types import SimpleNamespace

from .core import _left_sum
from .document import EvidenceDocument, _CollectorPause, _utf8_text, parse_document
from .errors import DocumentError, EvidenceError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


def _build_parser():
    """argparse's parser of _GRAMMAR, for what _parse_well_formed refuses."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # Raise where argparse would print and exit, so that run_cli writes
        # usage errors and help text to the streams it was given.
        def error(self, message):
            raise _UsageError(message)

        def print_help(self, file=None):
            raise _HelpRequested(self.format_help())

    parser = _Parser(
        prog="evidist",
        description="Evidence distances and BBA ranking on ordered frames.",
    )
    parser.add_argument(
        "--format", choices=_FORMATS, default=_FORMATS[0], help="output format (default: csv)"
    )
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, summary, (positional, about, choices), options) in _GRAMMAR.items():
        p = commands.add_parser(name, help=summary)
        p.add_argument(positional, choices=choices, help=about)
        for flag, about, default in options:
            p.add_argument(flag, required=default is None, default=default, help=about)
    return parser


def _argv_list(argv: Iterable[str] | None) -> list[str]:
    """argv as a list of str, sys.argv[1:] for None; anything else is a
    usage error."""
    if argv is None:
        return sys.argv[1:]
    if isinstance(argv, (str, bytes)) or not isinstance(argv, Iterable):
        raise _UsageError(f"argv must be a sequence of str, got {type(argv).__name__}")
    argv = list(argv)
    for position, item in enumerate(argv):
        if not isinstance(item, str):
            raise _UsageError(f"argv[{position}] must be a str, got {type(item).__name__}")
    return argv


def _parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for a canonical argv, else None: [--format F]
    command, then its positional and options once each, in any order,
    with values non-empty and not "-"-led."""
    tokens = iter(argv)
    fmt, token = _FORMATS[0], next(tokens, None)
    if token == "--format":
        fmt, token = next(tokens, None), next(tokens, None)
    if fmt not in _FORMATS or token not in _GRAMMAR:
        return None
    args = {"format": fmt, "command": token}
    _, _, (positional, _, choices), options = _GRAMMAR[token]
    defaults = {flag[2:]: default for flag, _, default in options}
    for token in tokens:
        dest = token[2:] if token[:2] == "--" and token[2:] in defaults else positional
        value = token if dest == positional else next(tokens, "")
        if dest in args or not value or value[0] == "-":
            return None
        args[dest] = value
    args = {positional: None, **defaults, **args}
    if None in args.values() or choices and args[positional] not in choices:
        return None
    return SimpleNamespace(**args)


def _load_document(path: str) -> EvidenceDocument:
    try:
        file = open(path, "rb")
    except FileNotFoundError:
        raise DocumentError(f"cannot read {path}: file not found") from None
    # No name keeps the bytes: they are freed once decoded, before the parse
    # (Python 3.10 would keep an argument of parse_document alive in it).
    with file:
        return parse_document(_utf8_text(file.read()))


def _split_names(raw: str) -> list[str]:
    # Each name is kept as given, as --reference and --bba take it.
    return raw.split(",")


def _parse_measure(raw: str):
    from .distance import DistanceMeasure

    try:
        return DistanceMeasure.parse(raw)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_validate(document, args):
    rows = [
        (name, len(bba._by_bits), _left_sum(bba._by_bits.values()))
        for name, bba in document.bbas.items()
    ]
    return ("bba", "focal_sets", "mass_sum"), rows


def _cmd_combine(document, args):
    from .combination import combine_all

    names = _split_names(args.bbas)
    if len(names) < 2:
        raise _UsageError("--bbas needs at least 2 comma-separated names")
    combined = combine_all(document.bba(name) for name in names)
    return ("set", "mass"), [(repr(fs), mass) for fs, mass in combined.entries]


def _cmd_ppt(document, args):
    from .pignistic import ppt

    distribution = ppt(document.bba(args.bba))
    rows = list(zip(document.frame.labels, distribution.probabilities))
    return ("element", "probability"), rows


def _cmd_dist(document, args):
    names = _split_names(args.pair)
    if len(names) != 2:
        raise _UsageError("--pair needs exactly two comma-separated names")
    measure = _parse_measure(args.measure)
    first, second = names
    value = measure.evaluate(document.bba(first), document.bba(second))
    return ("bba_1", "bba_2", "measure", "distance"), [(first, second, measure.label, value)]


def rank_by_distance(reference, candidates, measure, **options):
    """:func:`evidist.ranking.rank_by_distance`, imported on first call. It
    is an attribute of this module, not an import inside ``_cmd_rank``, so
    that the benchmark harness can wrap it, as it wraps ``parse_document``."""
    from .ranking import rank_by_distance

    return rank_by_distance(reference, candidates, measure, **options)


def _cmd_rank(document, args):
    measure = _parse_measure(args.measure)
    reference = document.bba(args.reference)
    result = rank_by_distance(reference, document.bbas, measure, reference_name=args.reference)
    rows = [(entry.name, entry.distance, entry.rank, entry.tied) for entry in result.entries]
    return ("bba", "distance", "rank", "tied"), rows


def _cmd_repro(document, args):
    from . import repro

    if args.report == "examples":
        fields, rows = repro._COMPARISON_FIELDS, repro.comparison_rows()
    else:
        fields, rows = repro._SWEEP_FIELDS, repro.sweep_rows()
    return fields, list(map(itemgetter(*fields), rows))


_FORMATS = ("csv", "json")
_FILE = ("file", "evidence document", None)
_MEASURE = ("--measure", "red, jousselme, or betp[:all|singleton|focal] (default: red)", "red")

# command: (function, summary, (positional, help, choices), options);
# option: (flag, help, default), required if default is None.
_GRAMMAR = {
    "validate": (_cmd_validate, "check a document and summarize its BBAs", _FILE, ()),
    "combine": (_cmd_combine, "combine BBAs with Dempster's rule", _FILE,
                (("--bbas", "comma-separated BBA names (two or more)", None),)),
    "ppt": (_cmd_ppt, "pignistic probability transformation of a BBA", _FILE,
            (("--bba", "BBA name", None),)),
    "dist": (_cmd_dist, "distance between two BBAs", _FILE,
             (("--pair", "two comma-separated BBA names", None), _MEASURE)),
    "rank": (_cmd_rank, "rank all BBAs by distance to a reference", _FILE,
             (("--reference", "reference BBA name", None), _MEASURE)),
    "repro": (_cmd_repro, "recompute a built-in benchmark report",
              ("report", "which report", ("examples", "sweep")), ()),
}


def _display(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _render(fields: tuple[str, ...], rows: list[tuple], fmt: str, out: io.TextIOBase):
    if fmt == "json":
        payload = [
            {
                key: (round(value, 4) if isinstance(value, float) else value)
                for key, value in zip(fields, row)
            }
            for row in rows
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_display(value) for value in row])


def run_cli(
    argv: Sequence[str] | None = None,
    stdout: io.TextIOBase | None = None,
    stderr: io.TextIOBase | None = None,
) -> int:
    """Run one CLI invocation and return its exit status.

    It runs, output included, with the cyclic garbage collector paused
    (``_CollectorPause``): a collection could only rescan the document
    the command holds, which reference counting frees before the
    collector resumes.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    with _CollectorPause():
        try:
            argv = _argv_list(argv)
            args = _parse_well_formed(argv) or _build_parser().parse_args(argv)
            if args.command is None:
                raise _UsageError("missing command (see evidist --help)")
            # Read before any argument check: a bad document is reported first.
            document = _load_document(args.file) if hasattr(args, "file") else None
            fields, rows = _GRAMMAR[args.command][0](document, args)
        except _HelpRequested as exc:
            out.write(str(exc))
            return EXIT_OK
        except _UsageError as exc:
            print(f"evidist: {exc}", file=err)
            return EXIT_USAGE
        except (OSError, ValidationError) as exc:
            print(f"evidist: {exc}", file=err)
            return EXIT_INVALID
        except EvidenceError as exc:
            print(f"evidist: {exc}", file=err)
            return EXIT_COMPUTE
        _render(fields, rows, args.format, out)
        return EXIT_OK


def main():
    try:
        status = run_cli()
        # Flush here, so that a reader that has gone away fails inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # Stdout's reader closed it (evidist rank ... | head). Point stdout
        # at devnull, so the flush at interpreter exit does not fail again,
        # and exit with the status a shell reports for SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
