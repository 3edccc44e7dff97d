"""Ranking candidates by distance to a reference."""

import random

import pytest
from hypothesis import given

from conftest import bba_pairs, make_frame, random_bba
from evidist.core import build_bba, build_frame
from evidist.distance import DistanceMeasure
from evidist.errors import FrameMismatchError, ValidationError
from evidist.ranking import rank_by_distance

GRADES = ("Poor", "Low", "Middle", "High", "Perfect")


def singleton_set():
    frame = build_frame(GRADES)
    return {
        "m1": build_bba(frame, [({1}, 1.0)]),
        "m2": build_bba(frame, [({2}, 1.0)]),
        "m3": build_bba(frame, [({3}, 1.0)]),
    }


def test_order_aware_measure_separates_grades():
    bbas = singleton_set()
    result = rank_by_distance(bbas["m1"], bbas, DistanceMeasure.parse("red"))
    assert [e.name for e in result.entries] == ["m1", "m2", "m3"]
    assert [e.rank for e in result.entries] == [1, 2, 3]
    assert result.entries[0].distance == pytest.approx(0.0, abs=1e-12)
    assert result.entries[1].distance == pytest.approx(0.5, abs=1e-12)
    assert result.entries[2].distance == pytest.approx(0.7071, abs=5e-4)
    assert not any(e.tied for e in result.entries)
    assert result.measure == "red"


@pytest.mark.parametrize("case", ["singletons", "disjoint-pairs", "overlapping-pairs"])
def test_order_aware_ranking_holds_across_benchmark_scenarios(case):
    from evidist.repro import comparison_documents

    document = comparison_documents()[case]
    result = rank_by_distance(
        document.bba("m1"),
        document.bbas,
        DistanceMeasure.parse("red"),
        reference_name="m1",
    )
    assert [e.name for e in result.entries] == ["m1", "m2", "m3"]
    distances = [e.distance for e in result.entries]
    assert distances[0] < distances[1] < distances[2]


def test_reference_among_candidates_ranks_first():
    bbas = singleton_set()
    result = rank_by_distance(
        bbas["m2"], bbas, DistanceMeasure.parse("red"), reference_name="m2"
    )
    assert result.entries[0].name == "m2"
    assert result.entries[0].distance == 0.0
    assert result.reference == "m2"


def test_order_blind_measure_ties_and_keeps_input_order():
    frame = build_frame(GRADES)
    reference = build_bba(frame, [({1}, 1.0)])
    candidates = [
        ("m2", build_bba(frame, [({2}, 1.0)])),
        ("m3", build_bba(frame, [({5}, 1.0)])),
    ]
    result = rank_by_distance(reference, candidates, DistanceMeasure.parse("jousselme"))
    assert [e.name for e in result.entries] == ["m2", "m3"]
    assert all(e.tied for e in result.entries)
    assert all(e.distance == pytest.approx(1.0, abs=1e-12) for e in result.entries)
    # Reversed input keeps the reversed order among the tied pair.
    flipped = rank_by_distance(
        reference, list(reversed(candidates)), DistanceMeasure.parse("jousselme")
    )
    assert [e.name for e in flipped.entries] == ["m3", "m2"]


def test_empty_candidates_rejected():
    bbas = singleton_set()
    with pytest.raises(ValidationError):
        rank_by_distance(bbas["m1"], {}, DistanceMeasure.parse("red"))


@pytest.mark.parametrize(
    "candidates,message",
    [
        ({"x": 5}, "candidate 'x' is not a Bba, got int"),
        ([("x", None)], "candidate 'x' is not a Bba, got NoneType"),
        ("ab", "candidate 1 is not a (name, Bba) pair, got 'a'"),
        ([5], "candidate 1 is not a (name, Bba) pair, got 5"),
    ],
    ids=["mapping-value", "pair-value", "string", "bare-int"],
)
def test_non_bba_candidates_rejected(candidates, message):
    reference = singleton_set()["m1"]
    with pytest.raises(ValidationError) as caught:
        rank_by_distance(reference, candidates, DistanceMeasure.parse("red"))
    assert str(caught.value) == message


@pytest.mark.parametrize("text", ["red", "jousselme", "betp:focal"])
def test_non_bba_reference_rejected(text):
    with pytest.raises(ValidationError, match=r"^the reference is not a Bba, got int$"):
        rank_by_distance(5, singleton_set(), DistanceMeasure.parse(text))


def test_later_bad_candidate_named_by_position():
    bbas = singleton_set()
    candidates = [("m1", bbas["m1"]), ("m2", bbas["m2"]), ("m3",)]
    with pytest.raises(ValidationError, match=r"^candidate 3 is not a \(name, Bba\) pair"):
        rank_by_distance(bbas["m1"], candidates, DistanceMeasure.parse("red"))


def test_frame_mismatch_names_candidate():
    bbas = singleton_set()
    stray = build_bba(make_frame(3), [({1}, 1.0)])
    with pytest.raises(FrameMismatchError, match="stray"):
        rank_by_distance(
            bbas["m1"], {"stray": stray}, DistanceMeasure.parse("red")
        )


def test_candidate_on_equal_frame_is_accepted():
    # Equal but built separately: compared by value after identity fails.
    reference = build_bba(build_frame(GRADES), [({1}, 1.0)])
    twin = build_bba(build_frame(GRADES), [({2}, 1.0)])
    assert twin.frame is not reference.frame
    for text in ("red", "jousselme", "betp"):
        result = rank_by_distance(
            reference, {"self": reference, "twin": twin}, DistanceMeasure.parse(text)
        )
        assert [e.name for e in result.entries] == ["self", "twin"]


def test_candidate_on_other_frame_of_same_size_is_rejected():
    reference = build_bba(build_frame(GRADES), [({1}, 1.0)])
    stray = build_bba(make_frame(5), [({1}, 1.0)])
    with pytest.raises(FrameMismatchError, match="stray"):
        rank_by_distance(reference, {"stray": stray}, DistanceMeasure.parse("jousselme"))


@given(pair=bba_pairs(max_size=8))
def test_output_shape_invariants(pair):
    reference, other = pair
    candidates = [("a", other), ("b", reference), ("c", other)]
    result = rank_by_distance(reference, candidates, DistanceMeasure.parse("red"))
    names = [e.name for e in result.entries]
    assert sorted(names) == ["a", "b", "c"]
    distances = [e.distance for e in result.entries]
    assert all(d >= 0.0 for d in distances)
    assert distances == sorted(distances)
    assert [e.rank for e in result.entries] == [1, 2, 3]


def test_shuffle_invariance_of_scored_multiset():
    rng = random.Random(5)
    frame = make_frame(6)
    reference = random_bba(rng, frame)
    named = [(f"c{i}", random_bba(rng, frame)) for i in range(8)]
    measure = DistanceMeasure.parse("red")
    baseline = rank_by_distance(reference, named, measure)
    expected = sorted((e.name, e.distance) for e in baseline.entries)
    for _ in range(5):
        shuffled = named[:]
        rng.shuffle(shuffled)
        result = rank_by_distance(reference, shuffled, measure)
        assert sorted((e.name, e.distance) for e in result.entries) == expected
        assert [e.distance for e in result.entries] == sorted(
            e.distance for e in result.entries
        )
