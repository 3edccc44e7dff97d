"""Evidence document parsing, validation, and round-tripping."""

import gc
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bbas_on, make_frame
from evidist.cli import run_cli
from evidist import document as document_module
from evidist.core import build_bba, build_frame, mass_of, vacuous_bba
from evidist.document import (
    EvidenceDocument,
    _regular_masses,
    parse_document,
    serialize_document,
)
from evidist.errors import DocumentError, FrameMismatchError, ValidationError

DOCS_EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"

ONE_BBA_TEXT = '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 1.0}]}}'

SINGLETONS_TEXT = json.dumps(
    {
        "frame": ["Poor", "Low", "Middle", "High", "Perfect"],
        "bbas": {
            "m1": [{"set": ["Poor"], "mass": 1.0}],
            "m2": [{"set": ["Low"], "mass": 1.0}],
            "m3": [{"set": ["Middle"], "mass": 1.0}],
        },
    }
)


def test_parse_categorical_document():
    document = parse_document(SINGLETONS_TEXT)
    assert document.frame.size == 5
    assert list(document.bbas) == ["m1", "m2", "m3"]
    for name, position in (("m1", 1), ("m2", 2), ("m3", 3)):
        bba = document.bba(name)
        assert len(bba.entries) == 1
        assert mass_of(bba, document.frame.subset([position])) == 1.0


def test_labels_and_positions_are_equivalent():
    by_label = parse_document(
        '{"frame": ["Poor", "Low"], "bbas": {"m": [{"set": ["Poor"], "mass": 1.0}]}}'
    )
    by_position = parse_document(
        '{"frame": ["Poor", "Low"], "bbas": {"m": [{"set": [1], "mass": 1.0}]}}'
    )
    assert by_label.bba("m") == by_position.bba("m")


def test_mass_sum_tolerance_boundary():
    template = '{"frame": ["A", "B"], "bbas": {"m": [{"set": ["A"], "mass": %s}]}}'
    accepted = parse_document(template % "0.999999999")
    assert len(accepted.bba("m").entries) == 1
    with pytest.raises(DocumentError, match="'m'"):
        parse_document(template % "0.99")


def test_renormalize_flag():
    text = '{"frame": ["A", "B"], "bbas": {"m": [{"set": ["A"], "mass": 0.5}, {"set": ["B"], "mass": 0.25}]}}'
    with pytest.raises(DocumentError):
        parse_document(text)
    document = parse_document(text, renormalize=True)
    assert mass_of(document.bba("m"), document.frame.subset(["A"])) == pytest.approx(2 / 3)


def test_syntax_error_reports_position():
    with pytest.raises(DocumentError, match=r"line 2, column"):
        parse_document('{\n  "frame": [,]\n}')


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"frame": ["A"]}', "missing key"),
        ('{"frame": ["A"], "bbas": {}, "extra": 1}', "unknown key"),
        ('{"frame": "A", "bbas": {}}', "must be a list"),
        ('{"frame": ["A", "A"], "bbas": {}}', "frame"),
        ('{"frame": ["a,b", "c"], "bbas": {}}', "frame: label 'a,b'"),
        ('{"frame": ["c", "{d}"], "bbas": {}}', "frame: label '{d}'"),
        ('{"frame": ["A"], "bbas": []}', "must be an object"),
        ('{"frame": ["A"], "bbas": {"m": {}}}', "list of entries"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A"]}]}}', "missing key"),
        (
            '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 1.0, "note": "x"}]}}',
            "unknown key",
        ),
        ('{"frame": ["A"], "bbas": {"m": [{"set": [], "mass": 1.0}]}}', "non-empty"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["B"], "mass": 1.0}]}}', "unknown label"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": [2], "mass": 1.0}]}}', "out of range"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": [true], "mass": 1.0}]}}', "members"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A", 1, null], "mass": 1.0}]}}', "got None$"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": [1, 1.0], "mass": 1.0}]}}', "got 1.0$"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": "1"}]}}', "number"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": -1.0}]}}', "'m'"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": NaN}]}}', "NaN"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": Infinity}]}}', "Infinity"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": -Infinity}]}}', "-Infinity"),
        ('{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 1e999}]}}', "'m'.*finite"),
        pytest.param(
            '{"frame": ["A"], "frame": ["B"], "bbas": {}}',
            "duplicate key 'frame'",
            id="duplicate-top-level-key",
        ),
        pytest.param(
            '{"frame": ["A", "B"], "bbas": {"m": [{"set": ["A"], "mass": 1.0}],'
            ' "m": [{"set": ["B"], "mass": 1.0}]}}',
            "duplicate key 'm'",
            id="duplicate-bba-name",
        ),
        pytest.param(
            '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": 0.5, "mass": 1.0}]}}',
            "duplicate key 'mass'",
            id="duplicate-entry-key",
        ),
        pytest.param("[" * 100_000, "nests too deeply", id="deep-nesting"),
        pytest.param(
            '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": %s}]}}' % ("1" * 400),
            "'m', entry 1.*too large for a float",
            id="400-digit-mass",
        ),
        pytest.param(
            '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": %s}]}}' % ("1" * 5000),
            "too many digits",
            id="5000-digit-integer",
        ),
        pytest.param(b"\xff", r"^not UTF-8 text \(byte 0\)$", id="bytes-not-utf-8"),
        pytest.param(
            bytearray(b'{"frame": ["\x80"]}'),
            r"^not UTF-8 text \(byte 12\)$",
            id="bytearray-not-utf-8",
        ),
        # json.loads alone would detect UTF-16, UTF-32 and a UTF-8 byte order
        # mark, and pass encoded surrogates; the CLI reads files as UTF-8.
        pytest.param(
            ONE_BBA_TEXT.encode("utf-16"), r"^not UTF-8 text \(byte 0\)$", id="utf-16"
        ),
        pytest.param(
            ONE_BBA_TEXT.encode("utf-32"), r"^not UTF-8 text \(byte 0\)$", id="utf-32"
        ),
        pytest.param(
            ONE_BBA_TEXT.encode("utf-8-sig"),
            r"^syntax error at line 1, column 1: Unexpected UTF-8 BOM",
            id="utf-8-bom",
        ),
        pytest.param(b"\xff\xfe{}", r"^not UTF-8 text \(byte 0\)$", id="utf-16-bom-bytes"),
        pytest.param(
            b'{"frame": ["\xed\xa0\x80"], "bbas": {}}',
            r"^not UTF-8 text \(byte 12\)$",
            id="encoded-surrogate",
        ),
    ],
)
def test_rejected_documents(text, fragment):
    with pytest.raises(DocumentError, match=fragment):
        parse_document(text)


def test_unknown_bba_name_lists_available():
    document = parse_document(SINGLETONS_TEXT)
    with pytest.raises(DocumentError, match="m1, m2, m3"):
        document.bba("m9")


def test_unknown_bba_name_lists_at_most_ten():
    bbas = {f"b{i:02d}": [{"set": ["A"], "mass": 1.0}] for i in range(25)}
    document = parse_document(json.dumps({"frame": ["A"], "bbas": bbas}))
    first_ten = ", ".join(f"b{i:02d}" for i in range(10))
    expected = f"no BBA named 'nope' in document (available: {first_ten} and 15 more)"
    with pytest.raises(DocumentError) as excinfo:
        document.bba("nope")
    assert str(excinfo.value) == expected


def test_round_trip_fixture():
    document = parse_document(SINGLETONS_TEXT)
    assert parse_document(serialize_document(document)) == document


_FIVE = build_frame(["A", "B", "C", "D", "E"])
_THREE = build_frame(["x", "y", "z"])


@pytest.mark.parametrize(
    "frame,name,bba,error,message",
    [
        (_FIVE, "m", build_bba(_THREE, [(["z"], 1.0)]), FrameMismatchError,
         "bba 'm' belongs to a different frame"),
        (_THREE, "m", build_bba(_FIVE, [(["E"], 1.0)]), FrameMismatchError,
         "bba 'm' belongs to a different frame"),
        (_FIVE, "m", 5, ValidationError, "bba 'm': expected a Bba, got int"),
        (_FIVE, 1, vacuous_bba(_FIVE), ValidationError, "BBA names must be str, got 1"),
        (_FIVE, ("m",), vacuous_bba(_FIVE), ValidationError,
         "BBA names must be str, got ('m',)"),
    ],
    ids=["smaller-frame", "larger-frame", "not-a-bba", "int-name", "tuple-name"],
)
def test_serialize_checks_names_and_bbas(frame, name, bba, error, message):
    # ``bbas`` is a plain dict, so an entry can be added after parsing.
    document = parse_document(json.dumps({"frame": list(frame.labels), "bbas": {}}))
    document.bbas[name] = bba
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        serialize_document(document)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        EvidenceDocument(frame, {name: bba})


@given(size=st.integers(1, 8), data=st.data())
def test_round_trip_random_documents(size, data):
    frame = make_frame(size)
    names = data.draw(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True)
    )
    document = EvidenceDocument(
        frame, {name: data.draw(bbas_on(frame)) for name in names}
    )
    assert parse_document(serialize_document(document)) == document


def test_duplicate_sets_in_document_merge():
    text = (
        '{"frame": ["A", "B"], "bbas": {"m": ['
        '{"set": ["A", "B"], "mass": 0.8}, {"set": [2, 1], "mass": 0.2}]}}'
    )
    bba = parse_document(text).bba("m")
    assert len(bba.entries) == 1
    assert mass_of(bba, bba.frame.full_set()) == 1.0


@pytest.mark.parametrize(
    "name", ["grades_singletons.json", "grades_pairs.json", "sensor_readings.json"]
)
def test_shipped_examples_parse(name):
    document = parse_document((DOCS_EXAMPLES / name).read_text(encoding="utf-8"))
    assert document.bbas


# The third entry of BBA 'm' after two valid ones, and the exact message
# `validate` prints for it. Entries that pass the parser's inline test
# and those that fail it must report as they always have.
_THIRD_ENTRY_REJECTIONS = {
    "non-dict": ('"A"', "bba 'm', entry 3 must be an object"),
    "missing-key": ('{"set": ["C"]}', "bba 'm', entry 3 is missing key(s): mass"),
    "extra-key": (
        '{"set": ["C"], "mass": 0.0, "note": "x"}',
        "bba 'm', entry 3 has unknown key(s): note",
    ),
    "empty-set": (
        '{"set": [], "mass": 0.0}',
        "bba 'm', entry 3: 'set' must be a non-empty list",
    ),
    "null-set": (
        '{"set": null, "mass": 0.0}',
        "bba 'm', entry 3: 'set' must be a non-empty list",
    ),
    "bool-member": (
        '{"set": ["C", true], "mass": 0.0}',
        "bba 'm', entry 3: set members must be labels or 1-based positions, got True",
    ),
    "float-member": (
        '{"set": [3.0], "mass": 0.0}',
        "bba 'm', entry 3: set members must be labels or 1-based positions, got 3.0",
    ),
    "null-member": (
        '{"set": [null], "mass": 0.0}',
        "bba 'm', entry 3: set members must be labels or 1-based positions, got None",
    ),
    "string-mass": (
        '{"set": ["C"], "mass": "0.5"}',
        "bba 'm', entry 3: 'mass' must be a number, got '0.5'",
    ),
    "null-mass": (
        '{"set": ["C"], "mass": null}',
        "bba 'm', entry 3: 'mass' must be a number, got None",
    ),
    "integer-mass-1": (
        '{"set": ["C"], "mass": 1}',
        "bba 'm': masses sum to 2.0, expected 1 within 1e-09",
    ),
    "unknown-label": ('{"set": ["Z"], "mass": 0.0}', "bba 'm': unknown label 'Z'"),
    "position-0": ('{"set": [0], "mass": 0.0}', "bba 'm': index 0 out of range 1..3"),
    "position-N+1": ('{"set": [4], "mass": 0.0}', "bba 'm': index 4 out of range 1..3"),
}


def _third_entry_document(third: str) -> str:
    return (
        '{"frame": ["A", "B", "C"], "bbas": {"m": [{"set": ["A"], "mass": 0.5}, '
        '{"set": ["B"], "mass": 0.5}, %s]}}' % third
    )


@pytest.mark.parametrize("case", sorted(_THIRD_ENTRY_REJECTIONS))
def test_rejected_third_entry_keeps_its_message(case, tmp_path):
    third, message = _THIRD_ENTRY_REJECTIONS[case]
    path = tmp_path / "doc.json"
    path.write_text(_third_entry_document(third), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["validate", str(path)], stdout=out, stderr=err) == 2
    assert err.getvalue() == f"evidist: {message}\n"
    assert out.getvalue() == ""


def test_integer_mass_is_accepted():
    text = (
        '{"frame": ["A", "B", "C"], "bbas": {"m": [{"set": ["A"], "mass": 0}, '
        '{"set": ["B"], "mass": 0.0}, {"set": ["C"], "mass": 1}]}}'
    )
    ((focal_set, mass),) = parse_document(text).bba("m").entries
    assert focal_set.labels == ("C",)
    assert type(mass) is float and mass == 1.0


def _hex_masses(bba):
    return [(bits, mass.hex()) for bits, mass in bba._by_bits.items()]


@st.composite
def regular_entry_lists(draw, frame):
    """Regular entries with float masses summing to one. Sets are spelled
    by labels and positions mixed, may repeat a member, and the first set
    is spelled again in a last entry, so masses merge."""
    space = (1 << frame.size) - 1
    sets = draw(st.lists(st.integers(1, space), min_size=1, max_size=6))
    sets.append(sets[0])
    weights = [draw(st.integers(1, 100)) for _ in sets]
    total = sum(weights)
    entries = []
    for bits, weight in zip(sets, weights):
        positions = [i + 1 for i in range(frame.size) if bits >> i & 1]
        positions += draw(st.lists(st.sampled_from(positions), max_size=2))
        positions = draw(st.permutations(positions))
        members = [draw(st.sampled_from((p, frame.label(p)))) for p in positions]
        entries.append({"set": members, "mass": weight / total})
    return entries


@given(size=st.integers(1, 8), data=st.data())
def test_regular_entries_match_build_bba(size, data):
    frame = make_frame(size)
    bbas = {name: data.draw(regular_entry_lists(frame)) for name in ("a", "b", "c")}
    document = parse_document(json.dumps({"frame": list(frame.labels), "bbas": bbas}))
    for name, entries in bbas.items():
        assert _regular_masses(frame._bits, entries) is not None
        expected = build_bba(frame, [(e["set"], e["mass"]) for e in entries])
        assert _hex_masses(document.bba(name)) == _hex_masses(expected)


# BBA 'm' on frame A, B, C as entry-list JSON, with the exit status and
# stderr of `validate` on it. None of these lists is regular, so each goes
# through _parse_entry and build_bba, which report as they always have.
_IRREGULAR_BBAS = {
    "zero-mass": (
        '[{"set": ["A"], "mass": 0.0}]',
        2,
        "bba 'm': masses sum to 0.0, expected 1 within 1e-09",
    ),
    "zero-mass-dropped": (
        '[{"set": ["A"], "mass": 0.0}, {"set": ["B"], "mass": 1.0}]',
        0,
        "",
    ),
    "negative-mass": (
        '[{"set": ["A"], "mass": -0.5}, {"set": ["B"], "mass": 1.5}]',
        2,
        "bba 'm': focal masses must be nonnegative, got -0.5 on {A}",
    ),
    "overflowing-mass": (
        '[{"set": ["A"], "mass": 1e999}]',
        2,
        "bba 'm': focal masses must be finite, got inf on {A}",
    ),
    "integer-mass": ('[{"set": ["A"], "mass": 1}]', 0, ""),
    "empty-set": (
        '[{"set": ["A"], "mass": 0.5}, {"set": [], "mass": 0.5}]',
        2,
        "bba 'm', entry 2: 'set' must be a non-empty list",
    ),
    "irregular-before-regular": (
        '[{"set": ["Z"], "mass": 0.5}, {"set": ["B"], "mass": 0.5}]',
        2,
        "bba 'm': unknown label 'Z'",
    ),
    # The malformed second entry is found before the first one's position.
    "shape-before-value": (
        '[{"set": [4], "mass": 0.5}, {"set": ["B"], "mass": "0.5"}]',
        2,
        "bba 'm', entry 2: 'mass' must be a number, got '0.5'",
    ),
}


@pytest.mark.parametrize("case", sorted(_IRREGULAR_BBAS))
def test_irregular_bbas_take_the_checked_route(case, tmp_path, monkeypatch):
    entries, status, message = _IRREGULAR_BBAS[case]
    frame = build_frame(["A", "B", "C"])
    assert _regular_masses(frame._bits, json.loads(entries)) is None
    built = []
    monkeypatch.setattr(
        document_module,
        "build_bba",
        lambda *args, **kwargs: built.append(args) or build_bba(*args, **kwargs),
    )
    path = tmp_path / "doc.json"
    text = '{"frame": ["A", "B", "C"], "bbas": {"m": %s}}' % entries
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["validate", str(path)], stdout=out, stderr=err) == status
    assert err.getvalue() == (f"evidist: {message}\n" if message else "")
    # Only an entry of the wrong shape stops the parse before build_bba.
    assert len(built) == (0 if "entry 2" in message else 1)


def test_entry_key_order_does_not_matter():
    text = (
        '{"frame": ["A", "B"], "bbas": {'
        '"m": [{"set": ["A"], "mass": 0.25}, {"set": [1, 2], "mass": 0.75}], '
        '"n": [{"mass": 0.25, "set": ["A"]}, {"mass": 0.75, "set": [1, 2]}]}}'
    )
    document = parse_document(text)
    assert _hex_masses(document.bba("m")) == _hex_masses(document.bba("n"))
    assert _regular_masses(document.frame._bits, json.loads(text)["bbas"]["n"]) == {
        1: 0.25,
        3: 0.75,
    }


def test_renormalize_takes_the_checked_route(monkeypatch):
    built = []
    monkeypatch.setattr(
        document_module,
        "build_bba",
        lambda *args, **kwargs: built.append(kwargs) or build_bba(*args, **kwargs),
    )
    parse_document(SINGLETONS_TEXT, renormalize=True)
    assert built == [{"renormalize": True}] * 3
    built.clear()
    parse_document(SINGLETONS_TEXT)
    assert built == []


# Entry lists of BBAs on frame A, B, C that fail the parse, and the message
# each gives. "sum" fails on the regular route, in Bba._from_bits; the
# others take the checked route and fail in build_bba or _parse_entry.
_BAD_ENTRY_LISTS = {
    "sum": ('[{"set": ["A"], "mass": 0.5}]', "masses sum to 0.5, expected 1 within 1e-09"),
    "label": ('[{"set": ["Q"], "mass": 1.0}]', "unknown label 'Q'"),
    "shape": ('[{"set": ["A"]}]', "entry 1 is missing key(s): mass"),
}


@pytest.mark.parametrize(
    "first,second,renormalize",
    [
        (first, second, renormalize)
        for renormalize in (False, True)
        for first in _BAD_ENTRY_LISTS
        for second in _BAD_ENTRY_LISTS
        # A sum off one is no fault under renormalize.
        if first != second and not (renormalize and "sum" in (first, second))
    ],
)
def test_first_bad_bba_in_document_order_is_reported(first, second, renormalize):
    # "z" comes before "m" in the document but not in sorted order.
    text = (
        '{"frame": ["A", "B", "C"], "bbas": {"y": [{"set": ["B"], "mass": 1.0}], '
        '"z": %s, "m": %s}}' % (_BAD_ENTRY_LISTS[first][0], _BAD_ENTRY_LISTS[second][0])
    )
    message = _BAD_ENTRY_LISTS[first][1]
    separator = ", " if message.startswith("entry") else ": "
    with pytest.raises(DocumentError) as caught:
        parse_document(text, renormalize=renormalize)
    assert str(caught.value) == f"bba 'z'{separator}{message}"


class TestCollectorPause:
    """parse_document pauses the cyclic collector and leaves it as it was."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_after_a_parse(self, enabled):
        (gc.enable if enabled else gc.disable)()
        parse_document(SINGLETONS_TEXT)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"frame": ["A"]', id="syntax"),
            pytest.param(
                '{"frame": ["A", "B"], "bbas": {"m": [{"set": ["A"], "mass": 0.5}]}}',
                id="mass-sum",
            ),
            pytest.param("[" * 100_000, id="deep-nesting"),
            pytest.param(
                '{"frame": ["A"], "bbas": {"m": [{"set": ["A"], "mass": %s}]}}'
                % ("1" * 5000),
                id="5000-digit-integer",
            ),
        ],
    )
    def test_state_after_a_rejected_document(self, enabled, text):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(DocumentError):
            parse_document(text)
        assert gc.isenabled() is enabled

    def test_no_collection_starts_during_a_parse(self):
        labels = [f"g{i}" for i in range(20)]
        bbas = {
            f"m{i}": [
                {"set": [labels[i % 20]], "mass": 0.5},
                {"set": [1 + i % 7, 2 + i % 11], "mass": 0.25},
                {"set": labels[:3], "mass": 0.25},
            ]
            for i in range(3000)
        }
        text = json.dumps({"frame": labels, "bbas": bbas})
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.callbacks.append(record)
        try:
            document = parse_document(text)
        finally:
            gc.callbacks.remove(record)
        assert len(document.bbas) == 3000
        assert starts == []
