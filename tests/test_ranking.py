"""Ranking candidates by distance to a reference."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from conftest import bba_pairs, bbas_on, make_frame, random_bba
from evidist.core import build_bba, build_frame
from evidist.distance import DistanceMeasure
from evidist.document import parse_document
from evidist.errors import FrameMismatchError, ValidationError
from evidist.ranking import TIE_TOLERANCE, RankedCandidate, RankingResult, rank_by_distance

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


@pytest.mark.parametrize("text", ["betp:singleton", "betp:focal"])
@pytest.mark.parametrize(
    "first,second",
    [
        ([(["A"], 0.3), (["B"], 0.7000000000000001)], [(["A"], 0.3), (["B"], 0.7)]),
        ([(["A"], 1.0), (["C"], 1e-12)], [(["A"], 1.0)]),  # 1e-12 and 0.0
    ],
    ids=["within-the-tolerance", "at-the-tolerance"],
)
def test_near_tie_keeps_input_order(text, first, second):
    # The distances differ, so the sort puts the second candidate first,
    # and the tie puts it back second.
    frame = build_frame(["A", "B", "C"])
    reference = build_bba(frame, [(["A"], 1.0)])
    candidates = [("first", build_bba(frame, first)), ("second", build_bba(frame, second))]
    result = rank_by_distance(reference, candidates, DistanceMeasure.parse(text))
    assert [(e.name, e.rank, e.tied) for e in result.entries] == [
        ("first", 1, True),
        ("second", 2, True),
    ]
    assert 0 < result.entries[0].distance - result.entries[1].distance <= TIE_TOLERANCE


def plain_ranking(names, distances):
    """The tie rule read plainly: sort by (distance, index), start a new
    cluster wherever the gap to the previous distance exceeds
    TIE_TOLERANCE, keep input order inside a cluster and flag every member
    of a cluster of two or more as tied."""
    clusters = []
    for distance, index in sorted(zip(distances, range(len(names)))):
        if clusters and distance - distances[clusters[-1][-1]] <= TIE_TOLERANCE:
            clusters[-1].append(index)
        else:
            clusters.append([index])
    ranked = [(index, len(cluster) > 1) for cluster in clusters for index in sorted(cluster)]
    return tuple(
        RankedCandidate(names[index], distances[index], rank, tied)
        for rank, (index, tied) in enumerate(ranked, 1)
    )


@st.composite
def ranking_inputs(draw):
    """A reference and one to nine candidates on one frame, drawn from a
    pool of at most four BBAs that may hold the reference, so that equal
    distances occur."""
    frame = make_frame(draw(st.integers(2, 6)))
    reference = draw(bbas_on(frame))
    pool = [reference] + draw(st.lists(bbas_on(frame), min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    return reference, [(f"c{i}", bba) for i, bba in enumerate(picks)]


@settings(max_examples=60)
@given(
    drawn=ranking_inputs(),
    text=st.sampled_from(["red", "jousselme", "betp:all", "betp:singleton", "betp:focal"]),
    as_mapping=st.booleans(),
)
def test_ranking_equals_plain_reference(drawn, text, as_mapping):
    reference, pairs = drawn
    measure = DistanceMeasure.parse(text)
    score = measure.against(reference)
    expected = plain_ranking([name for name, _ in pairs], [score(bba) for _, bba in pairs])
    candidates = dict(pairs) if as_mapping else pairs
    result = rank_by_distance(reference, candidates, measure, reference_name="r")
    assert result == RankingResult(measure.label, "r", expected)


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


def random_document(seed):
    """A small document text: up to ten BBAs on two to six grades, drawn
    from a small pool of focal sets so that equal and near-equal BBAs
    occur, with masses from ``random.Random(seed).random()``."""
    rng = random.Random(seed)
    size = rng.randint(2, 6)
    pool = rng.sample(range(1, 1 << size), min(4, (1 << size) - 1))
    bbas = {}
    for k in range(rng.randint(2, 10)):
        sets = rng.sample(pool, rng.randint(1, len(pool)))
        weights = [rng.random() + 1e-3 for _ in sets]
        total = sum(weights)
        bbas[f"m{k}"] = [
            {"set": [i + 1 for i in range(size) if bits >> i & 1], "mass": w / total}
            for bits, w in zip(sets, weights)
        ]
    return json.dumps({"frame": [f"g{i}" for i in range(1, size + 1)], "bbas": bbas})


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1))
def test_ranking_agrees_with_exact_ranking_outside_ties(seed):
    document = parse_document(random_document(seed))
    names = list(document.bbas)
    reference = document.bba(names[seed % len(names)])
    reference_masses, size = exact.masses(reference), reference.frame.size
    for text in ("red", "jousselme", "betp:all", "betp:singleton", "betp:focal"):
        result = rank_by_distance(reference, document.bbas, DistanceMeasure.parse(text))
        # Tie clusters as the ranking forms them: over the sorted distances,
        # a new one starts wherever the gap exceeds TIE_TOLERANCE. The exact
        # keys of red and jousselme are radicands, whose roots keep their order.
        cluster_of, exact_keys, previous = {}, [], None
        for entry in sorted(result.entries, key=lambda e: e.distance):
            if previous is None or entry.distance - previous > TIE_TOLERANCE:
                exact_keys.append([])
            previous = entry.distance
            cluster_of[entry.name] = len(exact_keys) - 1
            candidate = exact.masses(document.bba(entry.name))
            exact_keys[-1].append(exact.measure(text, reference_masses, candidate, size))
        ranked = [cluster_of[entry.name] for entry in result.entries]
        assert ranked == sorted(ranked), (text, seed)
        for lower, upper in zip(exact_keys, exact_keys[1:]):
            assert max(lower) < min(upper), (text, seed)
