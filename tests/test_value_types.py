"""The value types behave as frozen dataclasses did: repr, equality,
hashing, immutability, copy and pickle, and construction by position or
keyword; and each one that callers build checks its fields when built."""

import copy
import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError

import pytest

import evidist
from evidist import (
    Bba,
    BetPMode,
    DistanceMeasure,
    EvidenceDocument,
    FocalSet,
    Frame,
    PignisticDistribution,
    RankedCandidate,
    RankingResult,
    ValidationError,
    build_bba,
    parse_document,
    ppt,
    rank_by_distance,
)

DOCUMENT = """\
{
  "frame": ["A", "B", "C"],
  "bbas": {
    "m1": [{"set": ["A"], "mass": 0.5}, {"set": ["A", "B"], "mass": 0.5}],
    "m2": [{"set": ["C"], "mass": 1.0}]
  }
}
"""


def frame():
    return Frame(("A", "B", "C"))


def bba():
    return build_bba(frame(), [(["A"], 0.5), (["A", "B"], 0.5)])


def ranking():
    document = parse_document(DOCUMENT)
    return rank_by_distance(
        document.bba("m1"), document.bbas, DistanceMeasure("red"), reference_name="m1"
    )


# Each type: a factory (called twice for two equal, separately built
# values), its repr and its fields.
CASES = {
    Frame: (frame, "Frame(labels=('A', 'B', 'C'))", ("labels",)),
    FocalSet: (lambda: FocalSet(frame(), 0b101), "{A,C}", ("frame", "bits")),
    Bba: (bba, "Bba({A}: 0.5, {A,B}: 0.5)", ("frame", "_by_bits")),
    PignisticDistribution: (
        lambda: ppt(bba()),
        "PignisticDistribution(frame=Frame(labels=('A', 'B', 'C')), "
        "probabilities=(0.75, 0.25, 0.0))",
        ("frame", "probabilities"),
    ),
    EvidenceDocument: (
        lambda: parse_document(DOCUMENT),
        "EvidenceDocument(frame=Frame(labels=('A', 'B', 'C')), "
        "bbas={'m1': Bba({A}: 0.5, {A,B}: 0.5), 'm2': Bba({C}: 1)})",
        ("frame", "bbas"),
    ),
    DistanceMeasure: (
        lambda: DistanceMeasure("betp"),
        "DistanceMeasure(kind='betp', mode=<BetPMode.ALL_SUBSETS: 'all'>)",
        ("kind", "mode"),
    ),
    RankedCandidate: (
        lambda: RankedCandidate("m2", 0.75, 2, False),
        "RankedCandidate(name='m2', distance=0.75, rank=2, tied=False)",
        ("name", "distance", "rank", "tied"),
    ),
    RankingResult: (
        ranking,
        "RankingResult(measure='red', reference='m1', entries=("
        "RankedCandidate(name='m1', distance=0.0, rank=1, tied=False), "
        "RankedCandidate(name='m2', distance=0.8838834764831844, rank=2, tied=False)))",
        ("measure", "reference", "entries"),
    ),
}
# A different value of each type, for inequality.
OTHERS = {
    Frame: lambda: Frame(("A", "B")),
    FocalSet: lambda: FocalSet(frame(), 0b001),
    Bba: lambda: build_bba(frame(), [(["A"], 1.0)]),
    PignisticDistribution: lambda: PignisticDistribution(frame(), (1.0, 0.0, 0.0)),
    EvidenceDocument: lambda: EvidenceDocument(frame(), {}),
    DistanceMeasure: lambda: DistanceMeasure("betp", BetPMode.FOCAL_SETS),
    RankedCandidate: lambda: RankedCandidate("m2", 0.75, 2, True),
    RankingResult: lambda: RankingResult("red", "m2", ()),
}

each_type = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@each_type
def test_repr(cls):
    build, text, _ = CASES[cls]
    assert repr(build()) == text


@each_type
def test_type_and_fields(cls):
    build, _, fields = CASES[cls]
    value = build()
    assert type(value) is cls
    assert cls.__match_args__ == fields
    assert set(fields) <= set(vars(value))


@each_type
def test_equality_and_hash(cls):
    build = CASES[cls][0]
    first, second, other = build(), build(), OTHERS[cls]()
    assert first is not second
    assert first == second and not first != second
    assert first != other and not first == other
    assert first != "not a value" and first != object()
    if cls is EvidenceDocument:
        # Its BBAs sit in a dict, so it is unhashable, as before.
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2


@each_type
def test_attributes_cannot_be_set_or_deleted(cls):
    build, _, fields = CASES[cls]
    value = build()
    before = dict(vars(value))
    for field in (*fields, "unrelated"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
    for field in fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    assert vars(value) == before


@each_type
def test_copies_and_pickles_are_equal(cls):
    build, text, fields = CASES[cls]
    value = build()
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and repr(clone) == text
        for field in fields:
            assert getattr(clone, field) == getattr(value, field)
        with pytest.raises(FrozenInstanceError):
            setattr(clone, fields[0], None)


def test_copied_frame_keeps_its_member_table():
    clone = pickle.loads(pickle.dumps(frame()))
    assert clone.subset(["A", 3]) == FocalSet(clone, 0b101)


def test_keyword_and_positional_construction_agree():
    f = frame()
    assert Frame(labels=("A", "B", "C")) == f
    assert FocalSet(frame=f, bits=3) == FocalSet(f, 3)
    assert PignisticDistribution(frame=f, probabilities=(1.0, 0.0, 0.0)) == (
        PignisticDistribution(f, (1.0, 0.0, 0.0))
    )
    assert EvidenceDocument(frame=f, bbas={}) == EvidenceDocument(f, {})
    assert DistanceMeasure(kind="red") == DistanceMeasure("red", None)
    assert DistanceMeasure(kind="betp", mode=BetPMode.SINGLETONS) == DistanceMeasure(
        "betp", BetPMode.SINGLETONS
    )
    assert DistanceMeasure("betp").mode is BetPMode.ALL_SUBSETS
    assert RankedCandidate(name="a", distance=0.5, rank=1, tied=True) == (
        RankedCandidate("a", 0.5, 1, True)
    )
    assert RankingResult(measure="red", reference="r", entries=()) == (
        RankingResult("red", "r", ())
    )


def test_positional_patterns_match_the_fields():
    match FocalSet(frame(), 0b110):
        case FocalSet(Frame(labels), bits):
            assert (labels, bits) == (("A", "B", "C"), 0b110)
        case _:
            pytest.fail("no match")


def _value_types(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _value_types(subclass)


for _module in pkgutil.iter_modules(evidist.__path__):
    if _module.name != "__main__":
        importlib.import_module(f"evidist.{_module.name}")
# Result records: only rank_by_distance builds them, from values it checked.
RESULT_RECORDS = {"RankedCandidate", "RankingResult"}
CHECKED_TYPES = [
    cls for cls in _value_types(evidist.core._Frozen) if cls.__name__ not in RESULT_RECORDS
]


def test_the_guard_sees_every_value_type():
    names = {cls.__name__ for cls in CHECKED_TYPES} | RESULT_RECORDS
    assert names >= {cls.__name__ for cls in CASES}


@pytest.mark.parametrize("cls", CHECKED_TYPES, ids=lambda cls: cls.__name__)
def test_construction_checks_the_fields(cls):
    # Valid by construction holds only if every public constructor checks.
    with pytest.raises(ValidationError):
        cls(5, *[None] * (len(cls._fields) - 1))
