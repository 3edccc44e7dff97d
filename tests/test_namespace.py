"""The package namespace: public names resolve on first use, and each CLI
command loads only the evidist modules it needs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evidist

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "docs" / "examples"

PUBLIC = {
    "combination": ("combine_all", "combine_dempster", "conflict"),
    "core": (
        "Bba", "FocalSet", "Frame", "build_bba", "build_frame", "focal_sort_key",
        "mass_of", "vacuous_bba",
    ),
    "distance": (
        "DistanceMeasure", "correlation_matrix", "jaccard_similarity",
        "jousselme_distance", "red_distance", "red_reduces_to_jousselme",
    ),
    "document": ("EvidenceDocument", "parse_document", "serialize_document"),
    "errors": (
        "DocumentError", "EvidenceError", "FrameMismatchError", "NumericalError",
        "TotalConflictError", "ValidationError",
    ),
    "pignistic": ("BetPMode", "PignisticDistribution", "betp_of_subset", "dif_betp", "ppt"),
    "ranking": ("RankedCandidate", "RankingResult", "rank_by_distance"),
}

# As the package listed it when it imported every submodule eagerly.
ALL = [
    "Bba", "BetPMode", "DistanceMeasure", "DocumentError", "EvidenceDocument",
    "EvidenceError", "FocalSet", "Frame", "FrameMismatchError", "NumericalError",
    "PignisticDistribution", "RankedCandidate", "RankingResult", "TotalConflictError",
    "ValidationError", "betp_of_subset", "build_bba", "build_frame", "combine_all",
    "combine_dempster", "conflict", "correlation_matrix", "dif_betp", "focal_sort_key",
    "jaccard_similarity", "jousselme_distance", "mass_of", "parse_document", "ppt",
    "rank_by_distance", "red_distance", "red_reduces_to_jousselme", "serialize_document",
    "vacuous_bba", "__version__",
]


def test_all_is_unchanged():
    assert evidist.__all__ == ALL
    assert sorted(name for names in PUBLIC.values() for name in names) == ALL[:-1]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_the_submodules_objects(module):
    submodule = importlib.import_module(f"evidist.{module}")
    assert getattr(evidist, module) is submodule
    for name in PUBLIC[module]:
        assert getattr(evidist, name) is getattr(submodule, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from evidist import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ALL)
    assert all(namespace[name] is getattr(evidist, name) for name in ALL)
    assert namespace["__version__"] == "0.1.0"


def test_dir_lists_public_names_and_submodules():
    listed = dir(evidist)
    assert listed == sorted(listed)
    assert set(ALL) <= set(listed)
    assert set(PUBLIC) <= set(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'evidist' has no attribute 'nope'$"):
        evidist.nope
    assert not hasattr(evidist, "nope")
    with pytest.raises(ImportError):
        exec("from evidist import nope", {})


LOADED_SCRIPT = """
import io, sys
argv = sys.argv[1:]
if argv:
    import evidist.cli
    code = evidist.cli.run_cli(argv, stdout=io.StringIO())
    assert code == 0, (argv, code)
else:
    import evidist
print(" ".join(sorted(name for name in sys.modules if name.startswith("evidist."))))
print(" ".join(name for name in ("argparse", "csv") if name in sys.modules))
"""

DOCUMENT_COMMANDS = ("evidist.cli", "evidist.core", "evidist.document", "evidist.errors")
SENSORS = str(EXAMPLES / "sensor_readings.json")
GRADES = str(EXAMPLES / "grades_singletons.json")


def _python_s(*args: str) -> str:
    """Stdout of ``python -S`` with the source tree on the path. -S skips
    site, whose .pth files may import modules of their own; it also hides
    site-packages, hence PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded(*argv: str) -> tuple[set[str], set[str]]:
    """The evidist submodules, and which of argparse and csv, that a
    process loads to run argv (to import evidist if argv is empty)."""
    modules, others = _python_s("-c", LOADED_SCRIPT, *argv).splitlines()
    return set(modules.split()), set(others.split())


def test_bare_import_loads_no_submodule():
    assert _loaded() == (set(), set())


def test_submodules_are_reachable_after_a_bare_import():
    script = "import evidist; print(evidist.core.__name__, evidist.ranking.__name__)"
    assert _python_s("-c", script) == "evidist.core evidist.ranking\n"


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["validate", SENSORS], ()),
        (["ppt", SENSORS, "--bba", "gauge"], ("evidist.pignistic",)),
        (["combine", SENSORS, "--bbas", "gauge,probe"], ("evidist.combination",)),
        (
            ["dist", GRADES, "--pair", "m1,m2", "--measure", "betp:focal"],
            ("evidist.distance", "evidist.pignistic"),
        ),
        (
            ["rank", GRADES, "--reference", "m1"],
            ("evidist.distance", "evidist.pignistic", "evidist.ranking"),
        ),
    ],
    ids=["validate", "ppt", "combine", "dist", "rank"],
)
def test_command_loads_only_its_modules(argv, extra):
    # A well-formed command is parsed without argparse.
    assert _loaded(*argv) == ({*DOCUMENT_COMMANDS, *extra}, {"csv"})


def test_json_output_does_not_load_csv():
    assert _loaded("--format", "json", "validate", SENSORS) == (set(DOCUMENT_COMMANDS), set())


def test_help_loads_argparse():
    assert _loaded("rank", "--help") == (set(DOCUMENT_COMMANDS), {"argparse"})
