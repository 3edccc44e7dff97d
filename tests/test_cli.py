"""Command-line surface: subcommands, formats, exit codes, diagnostics."""

import gc
import io
import json
import os
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evidist
from conftest import EDGE_SUM_DOCUMENT
from evidist import cli as cli_module
from evidist.cli import run_cli
from evidist.document import parse_document
from evidist.errors import DocumentError

SINGLETONS = """\
{
  "frame": ["Poor", "Low", "Middle", "High", "Perfect"],
  "bbas": {
    "m1": [{"set": ["Poor"], "mass": 1.0}],
    "m2": [{"set": ["Low"], "mass": 1.0}],
    "m3": [{"set": ["Middle"], "mass": 1.0}]
  }
}
"""

SENSORS = """\
{
  "frame": ["Low", "Medium", "High"],
  "bbas": {
    "gauge": [{"set": ["Low"], "mass": 0.6}, {"set": ["Low", "Medium"], "mass": 0.4}],
    "probe": [{"set": ["Low"], "mass": 0.5}, {"set": ["Medium"], "mass": 0.5}],
    "unknown": [{"set": ["Low", "Medium", "High"], "mass": 1.0}]
  }
}
"""


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def singletons_file(tmp_path):
    path = tmp_path / "singletons.json"
    path.write_text(SINGLETONS, encoding="utf-8")
    return str(path)


@pytest.fixture
def sensors_file(tmp_path):
    path = tmp_path / "sensors.json"
    path.write_text(SENSORS, encoding="utf-8")
    return str(path)


class TestDist:
    def test_red_pair(self, singletons_file):
        code, out, err = cli("dist", singletons_file, "--pair", "m1,m2", "--measure", "red")
        assert (code, err) == (0, "")
        assert out == "bba_1,bba_2,measure,distance\nm1,m2,red,0.5000\n"

    def test_default_measure_is_red(self, singletons_file):
        code, out, _ = cli("dist", singletons_file, "--pair", "m1,m3")
        assert code == 0
        assert out.splitlines()[1] == "m1,m3,red,0.7071"

    def test_betp_mode_spelling(self, singletons_file):
        code, out, _ = cli("dist", singletons_file, "--pair", "m1,m2", "--measure", "betp:focal")
        assert code == 0
        assert out.splitlines()[1] == "m1,m2,betp:focal,1.0000"

    def test_betp_zero_prints_as_float(self, sensors_file):
        code, out, _ = cli("dist", sensors_file, "--pair", "gauge,gauge", "--measure", "betp")
        assert code == 0
        assert out.splitlines()[1] == "gauge,gauge,betp:all,0.0000"
        code, out, _ = cli(
            "--format", "json", "dist", sensors_file, "--pair", "gauge,gauge", "--measure", "betp"
        )
        assert code == 0
        assert '"distance": 0.0\n' in out
        assert json.loads(out)[0]["distance"] == 0.0

    def test_bad_measure_is_usage_error(self, singletons_file):
        code, out, err = cli("dist", singletons_file, "--pair", "m1,m2", "--measure", "nope")
        assert code == 1
        assert out == ""
        assert "unknown measure" in err

    def test_pair_needs_two_names(self, singletons_file):
        code, _, err = cli("dist", singletons_file, "--pair", "m1")
        assert code == 1 and "exactly two" in err
        code, _, err = cli("dist", singletons_file, "--pair", "m1,m2,m3")
        assert code == 1 and "exactly two" in err

    @pytest.mark.parametrize("command", ["dist", "combine"])
    @pytest.mark.parametrize(
        "names,missing", [("m1, m2", "' m2'"), ("m1,", "''"), (",m1", "''")]
    )
    def test_names_are_looked_up_as_given(self, singletons_file, command, names, missing):
        option = "--pair" if command == "dist" else "--bbas"
        code, out, err = cli(command, singletons_file, option, names)
        assert (code, out) == (2, "")
        assert err.startswith(f"evidist: no BBA named {missing} in document")

    def test_a_name_with_a_space_is_not_another_name(self, tmp_path):
        path = tmp_path / "spaced.json"
        path.write_text(
            '{"frame": ["A", "B"], "bbas": {" m": [{"set": ["A"], "mass": 1.0}],'
            ' "m": [{"set": ["B"], "mass": 1.0}]}}',
            encoding="utf-8",
        )
        code, out, err = cli("dist", str(path), "--pair", " m,m")
        assert (code, out, err) == (0, "bba_1,bba_2,measure,distance\n m,m,red,1.0000\n", "")
        code, out, err = cli("combine", str(path), "--bbas", " m,m")
        assert (code, out) == (3, "") and "total conflict" in err
        assert cli("combine", str(path), "--bbas", "m,m") == (0, "set,mass\n{B},1.0000\n", "")


class TestRank:
    def test_red_ranking_rows(self, singletons_file):
        code, out, _ = cli("rank", singletons_file, "--reference", "m1", "--measure", "red")
        assert code == 0
        assert out.splitlines() == [
            "bba,distance,rank,tied",
            "m1,0.0000,1,false",
            "m2,0.5000,2,false",
            "m3,0.7071,3,false",
        ]

    def test_ties_are_flagged(self, tmp_path):
        text = SINGLETONS.replace('{"set": ["Middle"], "mass": 1.0}', '{"set": ["Perfect"], "mass": 1.0}')
        path = tmp_path / "ties.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = cli("rank", str(path), "--reference", "m1", "--measure", "jousselme")
        assert code == 0
        assert out.splitlines()[2:] == ["m2,1.0000,2,true", "m3,1.0000,3,true"]

    def test_betp_reference_row_prints_as_float(self, sensors_file):
        code, out, _ = cli("rank", sensors_file, "--reference", "gauge", "--measure", "betp")
        assert code == 0
        assert out.splitlines()[1] == "gauge,0.0000,1,false"
        code, out, _ = cli(
            "--format", "json", "rank", sensors_file, "--reference", "gauge", "--measure", "betp"
        )
        assert code == 0
        assert '"distance": 0.0,' in out

    def test_unknown_reference(self, singletons_file):
        code, _, err = cli("rank", singletons_file, "--reference", "mX")
        assert code == 2
        assert "no BBA named 'mX'" in err


class TestCombineAndPpt:
    def test_combine_two_sources(self, sensors_file):
        code, out, _ = cli("combine", sensors_file, "--bbas", "gauge,probe")
        assert code == 0
        assert out.splitlines() == ["set,mass", "{Low},0.7143", "{Medium},0.2857"]

    def test_combine_three_sources_folds(self, sensors_file):
        # The vacuous source is neutral, so the fold matches the two-way result.
        code, out, _ = cli("combine", sensors_file, "--bbas", "gauge,probe,unknown")
        assert code == 0
        assert out.splitlines()[1:] == ["{Low},0.7143", "{Medium},0.2857"]

    def test_multi_element_sets_are_csv_quoted(self, sensors_file):
        code, out, _ = cli("combine", sensors_file, "--bbas", "gauge,unknown")
        assert code == 0
        assert out.splitlines() == ["set,mass", "{Low},0.6000", '"{Low,Medium}",0.4000']

    def test_combine_needs_two_names(self, sensors_file):
        code, _, err = cli("combine", sensors_file, "--bbas", "gauge")
        assert code == 1
        assert "at least 2" in err

    def test_total_conflict_exit_code(self, singletons_file):
        code, out, err = cli("combine", singletons_file, "--bbas", "m1,m2")
        assert code == 3
        assert out == ""
        assert "total conflict" in err

    def test_ppt_rows(self, sensors_file):
        code, out, _ = cli("ppt", sensors_file, "--bba", "gauge")
        assert code == 0
        assert out.splitlines() == [
            "element,probability",
            "Low,0.8000",
            "Medium,0.2000",
            "High,0.0000",
        ]


class TestValidate:
    def test_summary_rows(self, sensors_file):
        code, out, _ = cli("validate", sensors_file)
        assert code == 0
        assert out.splitlines() == [
            "bba,focal_sets,mass_sum",
            "gauge,2,1.0000",
            "probe,2,1.0000",
            "unknown,1,1.0000",
        ]

    def test_invalid_document_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 0.5}]}}')
        code, out, err = cli("validate", str(path))
        assert code == 2
        assert out == ""
        assert "'m'" in err

    def test_nan_mass_exit_code(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"frame": ["A", "B"], "bbas": {"m": '
            '[{"set": ["A"], "mass": 1.0}, {"set": ["B"], "mass": NaN}]}}'
        )
        code, out, err = cli("validate", str(path))
        assert code == 2
        assert out == ""
        assert "NaN" in err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 1.0}],'
            b' "m": [{"set": ["A"], "mass": 1.0}]}}',
            b"[" * 100_000,
            b'{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": ' + b"1" * 400 + b"}]}}",
            b'{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": ' + b"1" * 5000 + b"}]}}",
            b"\xff\xfe{}",
        ],
        ids=["duplicate-key", "deep-nesting", "400-digit-mass", "5000-digit-integer", "not-utf-8"],
    )
    def test_undecodable_document_exit_code(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("evidist: ") and err.count("\n") == 1

    def test_reports_what_parse_document_reports_on_the_same_bytes(self, tmp_path):
        # CR-only line breaks: a text-mode read would turn each into "\n"
        # and so move the reported line and column.
        content = b'{\r  "frame": ["A"],\r  "bbas": {"m": [}\r}\r'
        path = tmp_path / "cr-only.json"
        path.write_bytes(content)
        with pytest.raises(DocumentError) as excinfo:
            parse_document(content)
        assert "line 1," in str(excinfo.value)
        assert cli("validate", str(path)) == (2, "", f"evidist: {excinfo.value}\n")

    def test_ambiguous_label_exit_code(self, tmp_path):
        path = tmp_path / "label.json"
        path.write_text('{"frame": ["a,b", "c"], "bbas": {"m": [{"set": [1], "mass": 1.0}]}}')
        code, out, err = cli("combine", str(path), "--bbas", "m,m")
        assert (code, out) == (2, "")
        assert "'a,b'" in err

    def test_empty_label_exit_code(self, tmp_path):
        path = tmp_path / "label.json"
        path.write_text('{"frame": ["", "B"], "bbas": {"m": [{"set": [""], "mass": 1.0}]}}')
        code, out, err = cli("combine", str(path), "--bbas", "m,m")
        assert (code, out) == (2, "")
        assert err.startswith("evidist: frame: label ''")

    def test_missing_file(self):
        code, _, err = cli("validate", "no-such-file.json")
        assert code == 2
        assert "file not found" in err


class TestUsage:
    def test_unknown_subcommand(self):
        code, _, err = cli("frobnicate")
        assert code == 1
        assert err

    def test_missing_command(self):
        code, _, err = cli()
        assert code == 1
        assert "missing command" in err

    def test_unknown_flag(self, singletons_file):
        code, _, err = cli("validate", singletons_file, "--loud")
        assert code == 1
        assert err

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: evidist [-h]"), (["rank", "--help"], "usage: evidist rank [-h]")],
        ids=["top-level", "subcommand"],
    )
    def test_help_goes_to_the_given_stdout(self, argv, usage, capsys):
        code, out, err = cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([5], "argv[0] must be a str, got int"),
            (["validate", 5], "argv[1] must be a str, got int"),
            (["ppt", "x", "--bba", 5], "argv[3] must be a str, got int"),
            (["validate", b"x"], "argv[1] must be a str, got bytes"),
            ("validate", "argv must be a sequence of str, got str"),
            (b"validate", "argv must be a sequence of str, got bytes"),
            (5, "argv must be a sequence of str, got int"),
        ],
        ids=["int-command", "int-file", "int-option-value", "bytes-file", "str", "bytes", "int"],
    )
    def test_argv_that_is_not_a_list_of_str(self, argv, message):
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(argv, stdout=out, stderr=err) == 1
        assert (out.getvalue(), err.getvalue()) == ("", f"evidist: {message}\n")


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None for a usage error,
    help or a missing command."""
    try:
        args = cli_module._build_parser().parse_args(argv)
    except (cli_module._UsageError, cli_module._HelpRequested):
        return None
    return None if args.command is None else vars(args)


OPTIONS = sorted({flag for *_, options in cli_module._GRAMMAR.values() for flag, _, _ in options})
ODD_FLAGS = ("--format", "--ref", "--meas", "--b", "--form", "--loud", "-h", "--help", "--")
GOOD = ("m1", "m1,m2", "red", "betp:focal", "json", "examples", "sweep", "doc.json", "rank", "a b")
BAD = ("", "-", "-1", "-x", "--", "-h", "--bba")
HEADS = [(), (), ("--format", "csv"), ("--format", "json"), ("--format",), ("--format", "xml"),
         ("--format=json",), ("-h",), ("--",)]


@st.composite
def command_lines(draw):
    """argv in the shape the CLI takes: a command with its positional and
    its options in any order, then up to three of the usual ways to get it
    wrong: items repeated, left out or abbreviated, --opt=value, a flag
    without its value, a value that is empty or starts with "-", --format
    after the command, -h and --."""
    head = draw(st.sampled_from(HEADS))
    command = draw(st.sampled_from([*cli_module._GRAMMAR, None, "nope"]))
    _, _, (_, _, choices), options = cli_module._GRAMMAR.get(command, (0, 0, (0, 0, None), ()))
    value = st.sampled_from(GOOD + GOOD + BAD)
    items = [(draw(st.sampled_from(choices + ("m1",)) if choices else value),)]
    items += [(flag, draw(value)) for flag, _, _ in options]
    items = draw(st.permutations(items))
    flag = st.sampled_from(OPTIONS + list(ODD_FLAGS))
    noise = st.one_of(
        st.tuples(flag, value),
        st.tuples(value),
        st.builds("{}={}".format, flag, value).map(lambda token: (token,)),
    )
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(items)))
        action = draw(st.sampled_from(("insert", "delete", "drop value")))
        if action == "insert":
            items.insert(index, draw(noise))
        elif index < len(items):
            items[index : index + 1] = [] if action == "delete" else [items[index][:1]]
    return [*head, *([command] if command else []), *(token for i in items for token in i)]


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_hand_parser_agrees_with_argparse(argv):
    # Where the hand parser accepts, argparse gives the same namespace;
    # where argparse refuses, the hand parser has refused too.
    hand = cli_module._parse_well_formed(argv)
    assert hand is None or vars(hand) == argparse_vars(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "doc.json"],
        ["--format", "json", "ppt", "doc.json", "--bba", "m1"],
        ["combine", "--bbas", "m1,m2,m3", "doc.json"],
        ["dist", "--measure", "betp:focal", "doc.json", "--pair", "m1,m2"],
        ["rank", "doc.json", "--reference", "m1"],
        ["--format", "csv", "repro", "sweep"],
    ],
    ids=["validate", "json-ppt", "options-first", "measure-first", "default-measure", "repro"],
)
def test_well_formed_commands_take_the_hand_parser(argv):
    hand = cli_module._parse_well_formed(argv)
    assert hand is not None
    assert vars(hand) == argparse_vars(argv)


class TestJsonFormat:
    def test_dist_json(self, singletons_file):
        code, out, _ = cli("--format", "json", "dist", singletons_file, "--pair", "m1,m2")
        assert code == 0
        assert json.loads(out) == [
            {"bba_1": "m1", "bba_2": "m2", "measure": "red", "distance": 0.5}
        ]

    def test_rank_json_types(self, singletons_file):
        code, out, _ = cli("--format", "json", "rank", singletons_file, "--reference", "m1")
        rows = json.loads(out)
        assert code == 0
        assert rows[0] == {"bba": "m1", "distance": 0.0, "rank": 1, "tied": False}
        assert rows[2]["distance"] == 0.7071


class TestRepro:
    def test_examples_report_shape_and_flags(self):
        code, out, _ = cli("repro", "examples")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "case,bba_1,bba_2,measure,computed,expected,match"
        assert len(lines) == 19
        mismatched = [line for line in lines[1:] if line.endswith("false")]
        assert mismatched == [
            "overlapping-pairs,m1,m2,jousselme,0.7071,1.0000,false",
            "overlapping-pairs,m1,m3,jousselme,0.7071,1.0000,false",
        ]

    def test_sweep_report_shape(self):
        code, out, _ = cli("repro", "sweep")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "case,jousselme,betp_focal,red"
        assert len(lines) == 21
        assert lines[1] == "1,0.7858,0.6050,0.1871"

    def test_repro_requires_known_report(self):
        code, _, err = cli("repro", "tables")
        assert code == 1
        assert err

    def test_same_process_determinism(self):
        for args in (("repro", "examples"), ("repro", "sweep")):
            first = cli(*args)
            second = cli(*args)
            assert first == second
        json_first = cli("--format", "json", "repro", "sweep")
        json_second = cli("--format", "json", "repro", "sweep")
        assert json_first == json_second


class TestCollectorPause:
    """run_cli pauses the cyclic collector for the whole command and
    leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv,status",
        [
            (["rank", "{singletons}", "--reference", "m1"], 0),
            (["dist", "{singletons}", "--pair", "a"], 1),
            (["ppt", "{singletons}", "--bba", "m9"], 2),
            (["validate", "{missing}"], 2),
            (["combine", "{singletons}", "--bbas", "m1,m2"], 3),
        ],
        ids=["exit-0", "exit-1", "exit-2", "exit-2-missing-file", "exit-3"],
    )
    def test_state_after_a_command(self, enabled, argv, status, singletons_file, tmp_path):
        paths = {"singletons": singletons_file, "missing": str(tmp_path / "none.json")}
        argv = [arg.format(**paths) for arg in argv]
        (gc.enable if enabled else gc.disable)()
        assert cli(*argv)[0] == status
        assert gc.isenabled() is enabled

    def test_no_collection_starts_during_a_rank(self, tmp_path):
        labels = [f"g{i}" for i in range(20)]
        bbas = {
            f"m{i}": [
                {"set": [labels[i % 20]], "mass": 0.5},
                {"set": [1 + i % 7, 2 + i % 11], "mass": 0.25},
                {"set": labels[:3], "mass": 0.25},
            ]
            for i in range(2000)
        }
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"frame": labels, "bbas": bbas}), encoding="utf-8")
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        for measure in ("red", "jousselme", "betp"):
            argv = ["rank", str(path), "--reference", "m0", "--measure", measure]
            out, err = io.StringIO(), io.StringIO()
            # Only collections that start inside run_cli count: the first
            # allocation after it returns may start one.
            gc.collect()
            gc.callbacks.append(record)
            try:
                code = run_cli(argv, stdout=out, stderr=err)
            finally:
                gc.callbacks.remove(record)
            assert code == 0
            assert out.getvalue().count("\n") == 2001
        assert starts == []


REPO = Path(__file__).resolve().parents[1]


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


NO_NUMPY_SCRIPT = """
import io, sys
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
import evidist
from evidist.cli import run_cli

examples = sys.argv[1]
sensors = examples + "/sensor_readings.json"
grades = examples + "/grades_singletons.json"
commands = [
    ["validate", sensors],
    ["combine", sensors, "--bbas", "gauge,probe"],
    ["ppt", sensors, "--bba", "gauge"],
    ["dist", grades, "--pair", "m1,m2", "--measure", "red"],
    ["dist", grades, "--pair", "m1,m2", "--measure", "jousselme"],
    ["dist", grades, "--pair", "m1,m2", "--measure", "betp"],
    ["dist", grades, "--pair", "m1,m2", "--measure", "betp:focal"],
    ["rank", grades, "--reference", "m1"],
    ["--format", "json", "rank", grades, "--reference", "m1", "--measure", "red"],
    ["repro", "examples"],
    ["repro", "sweep"],
]
for argv in commands:
    code = run_cli(argv, stdout=io.StringIO(), stderr=sys.stderr)
    assert code == 0, (argv, code)
assert evidist.correlation_matrix(1) == ((1.0,),)
assert evidist.correlation_matrix(5)[1] == (0.75, 1.0, 0.75, 0.5, 0.25)
with open(grades) as handle:
    document = evidist.parse_document(handle.read())
identity, jousselme = evidist.red_reduces_to_jousselme(
    document.bba("m1"), document.bba("m3")
)
assert abs(identity - jousselme) <= 1e-12, (identity, jousselme)
print("ok")
"""


def test_runs_without_numpy():
    # The package has no runtime dependencies: with numpy made unimportable,
    # every command and the reference matrix still work.
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, str(REPO / "docs" / "examples")],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["repro", "sweep"],
        ["--help"],
        ["validate", str(REPO / "docs" / "examples" / "grades_pairs.json")],
    ],
    ids=["repro-sweep", "help", "validate"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # The read end is closed before the child starts, so its first write
    # to stdout fails, as when a reader such as head exits early.
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "evidist", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=src_env(),
            timeout=60,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, b"")


LEAN_IMPORT_SCRIPT = """
import io, sys
import evidist.cli

examples = sys.argv[1]
sensors = examples + "/sensor_readings.json"
grades = examples + "/grades_singletons.json"


def run(*argv):
    code = evidist.cli.run_cli(list(argv), stdout=io.StringIO())
    assert code == 0, (argv, code)


def loaded(*names):
    return " ".join(sorted(name for name in names if name in sys.modules))


HEAVY = ("typing", "pathlib", "dataclasses", "inspect", "ast", "dis", "tokenize")
run("validate", examples + "/grades_pairs.json")
run("combine", sensors, "--bbas", "gauge,probe")
run("ppt", sensors, "--bba", "gauge")
run("dist", grades, "--pair", "m1,m2", "--measure", "betp:focal")
run("--format", "json", "rank", grades, "--reference", "m1", "--measure", "red")
print(loaded(*HEAVY, "evidist.repro"))
run("repro", "examples")
run("repro", "sweep")
print(loaded(*HEAVY))
"""


def test_validate_loads_no_dataclasses_and_no_repro():
    # Each CLI process pays for every module it loads: dataclasses pulls in
    # inspect, ast, dis and tokenize, and only the repro command needs
    # repro. Under -S no site-packages .pth file preloads typing or
    # pathlib, so what loads them here is evidist.
    result = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_IMPORT_SCRIPT, str(REPO / "docs" / "examples")],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n\n"


def test_public_annotations_resolve():
    # Annotations are strings, written with builtin generics, X | Y and
    # collections.abc; each must still evaluate in its module.
    for name in evidist.__all__:
        obj = getattr(evidist, name)
        if not callable(obj):
            continue
        typing.get_type_hints(obj)
        for member in vars(obj).values() if isinstance(obj, type) else ():
            # Methods, classmethods, properties and cached properties.
            for attribute in ("__func__", "fget", "func"):
                member = getattr(member, attribute, member)
            if isinstance(member, types.FunctionType):
                typing.get_type_hints(member)
    hints = typing.get_type_hints(run_cli)
    assert hints["stdout"] == io.TextIOBase | None


def test_file_argument_is_opened_as_given():
    # The path is not normalised: a trailing slash is not dropped, and an
    # empty path is not the current directory.
    path = str(REPO / "docs" / "examples" / "grades_pairs.json") + "/"
    assert cli("validate", path) == (2, "", f"evidist: [Errno 20] Not a directory: {path!r}\n")
    assert cli("validate", "") == (2, "", "evidist: cannot read : file not found\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["ppt", "--bba", "m"],
        ["dist", "--pair", "m,r", "--measure", "red"],
        ["rank", "--reference", "r", "--measure", "betp"],
    ],
    ids=["ppt", "dist-red", "rank-betp"],
)
def test_mass_sum_at_tolerance_edge(tmp_path, argv):
    # "m" is valid, but its pignistic probabilities round to a sum just
    # past the mass-sum tolerance.
    path = tmp_path / "edge.json"
    path.write_text(EDGE_SUM_DOCUMENT, encoding="utf-8")
    code, out, err = cli(argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert out
