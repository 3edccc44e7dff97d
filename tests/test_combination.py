"""Dempster combination: conflict, orthogonal sum, and oracle equivalence.

The hand-derived fixture used throughout: on a 5-grade frame,
m1 = {1}: 0.6, {1,2}: 0.4 and m2 = {1}: 0.5, {2}: 0.5. Enumerating the
four focal pairs, only {1} x {2} is disjoint, so k = 0.6 * 0.5 = 0.3;
the intersections collect {1}: 0.3 + 0.2 = 0.5 and {2}: 0.2, which after
dividing by 1 - k = 0.7 gives masses 5/7 and 2/7.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings

import exact
from conftest import bba_pairs, bba_triples, make_frame, random_bba
from evidist.combination import combine_all, combine_dempster, conflict
from evidist.core import build_bba, build_frame, mass_of, vacuous_bba
from evidist.errors import FrameMismatchError, TotalConflictError, ValidationError


def hand_fixture():
    frame = make_frame(5)
    m1 = build_bba(frame, [({1}, 0.6), ({1, 2}, 0.4)])
    m2 = build_bba(frame, [({1}, 0.5), ({2}, 0.5)])
    return frame, m1, m2


class TestConflict:
    def test_disjoint_categoricals(self):
        frame = make_frame(5)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({2}, 1.0)])
        assert conflict(m1, m2) == 1.0

    def test_vacuous_never_conflicts(self):
        rng = random.Random(11)
        frame = make_frame(6)
        for _ in range(20):
            bba = random_bba(rng, frame)
            assert conflict(bba, vacuous_bba(frame)) == 0.0

    def test_hand_enumeration(self):
        _, m1, m2 = hand_fixture()
        assert conflict(m1, m2) == pytest.approx(0.3, abs=1e-12)

    def test_frame_mismatch(self):
        m1 = build_bba(make_frame(3), [({1}, 1.0)])
        m2 = build_bba(make_frame(4), [({1}, 1.0)])
        with pytest.raises(FrameMismatchError):
            conflict(m1, m2)


class TestCombineDempster:
    def test_hand_fixture_masses(self):
        frame, m1, m2 = hand_fixture()
        combined = combine_dempster(m1, m2)
        assert mass_of(combined, frame.subset([1])) == pytest.approx(0.5 / 0.7, abs=1e-12)
        assert mass_of(combined, frame.subset([2])) == pytest.approx(0.2 / 0.7, abs=1e-12)
        assert len(combined.entries) == 2

    def test_vacuous_identity(self):
        rng = random.Random(23)
        for size in (2, 4, 6, 10):
            frame = make_frame(size)
            for _ in range(10):
                bba = random_bba(rng, frame)
                assert combine_dempster(vacuous_bba(frame), bba) == bba
                assert combine_dempster(bba, vacuous_bba(frame)) == bba

    def test_total_conflict_raises(self):
        frame = make_frame(5)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({2}, 1.0)])
        with pytest.raises(TotalConflictError):
            combine_dempster(m1, m2)

    def test_near_total_conflict_raises(self):
        # k = 1 - 1e-13: inside the conflict tolerance though not exactly 1.
        frame = make_frame(3)
        m1 = build_bba(frame, [({1}, 1.0 - 1e-13), ({1, 3}, 1e-13)])
        m2 = build_bba(frame, [({3}, 1.0)])
        with pytest.raises(TotalConflictError):
            combine_dempster(m1, m2)

    def test_frame_mismatch(self):
        m1 = build_bba(make_frame(3), [({1}, 1.0)])
        m2 = build_bba(make_frame(4), [({1}, 1.0)])
        with pytest.raises(FrameMismatchError):
            combine_dempster(m1, m2)

    def test_high_conflict_combines(self):
        # k = (1 - eps)^2 is far from total conflict, but 1 - k computed
        # from k keeps only about 8 significant digits: too few for the
        # mass-sum check of the combined BBA.
        eps = 1e-8
        frame = make_frame(2)
        m1 = build_bba(frame, [({1}, 1.0 - eps), ({1, 2}, eps)])
        m2 = build_bba(frame, [({2}, 1.0 - eps), ({1, 2}, eps)])
        combined = combine_dempster(m1, m2)
        assert len(combined.entries) == 3
        for members, expected in (
            ({1}, (1 - eps) / (2 - eps)),
            ({2}, (1 - eps) / (2 - eps)),
            ({1, 2}, eps / (2 - eps)),
        ):
            assert mass_of(combined, frame.subset(members)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_inputs_off_unit_sum_combine(self):
        # Both inputs sum to 1 + 9e-10, inside the tolerance, and nothing
        # conflicts; their products sum to about 1 + 1.8e-9, outside it.
        frame = build_frame(["a", "b", "c"])
        m1 = build_bba(frame, [(["a"], 0.3), (["a", "b"], 0.7000000009)])
        m2 = build_bba(frame, [(["a", "b"], 0.4), (["a", "b", "c"], 0.6000000009)])
        combined = combine_dempster(m1, m2)
        for members, expected in (
            (["a"], 0.3 / 1.0000000009),
            (["a", "b"], 0.7000000009 / 1.0000000009),
        ):
            assert mass_of(combined, frame.subset(members)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_products_at_tolerance_edge_combine(self):
        # No pair conflicts and the products sum to 1 - 1e-9 in the order
        # they accumulate, but to 0.9999999989999999 in canonical order.
        frame = make_frame(4)
        m1 = build_bba(
            frame,
            [({2}, 0.45806451612903226), ({2, 3}, 0.535483870967742),
             ({1, 2, 4}, 0.0064516129032258064)],
        )
        m2 = build_bba(frame, [({1, 2}, 0.4999999995), ({2, 3}, 0.4999999995)])
        combined = combine_dempster(m1, m2)
        assert sum(mass for _, mass in combined.entries) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_inputs_under_unit_sum_totally_conflict(self):
        # Every pair is disjoint, but with both sums 1 - 1e-9 the product
        # k = 1 - 2e-9 alone is not 1 within the conflict tolerance.
        frame = make_frame(2)
        m1 = build_bba(frame, [({1}, 0.999999999)])
        m2 = build_bba(frame, [({2}, 0.999999999)])
        with pytest.raises(TotalConflictError):
            combine_dempster(m1, m2)


@given(pair=bba_pairs(max_size=8, include_full=True))
def test_commutativity(pair):
    m1, m2 = pair
    left = combine_dempster(m1, m2)
    right = combine_dempster(m2, m1)
    assert left.focal_sets == right.focal_sets
    for fs, mass in left.entries:
        assert mass == pytest.approx(mass_of(right, fs), abs=1e-12)


@given(pair=bba_pairs(max_size=8, include_full=True))
def test_combined_output_is_valid_bba(pair):
    combined = combine_dempster(*pair)  # Bba construction re-validates
    total = sum(mass for _, mass in combined.entries)
    assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50)
@given(triple=bba_triples(max_size=6, include_full=True))
def test_fold_order_invariance(triple):
    reference = combine_all(triple)
    for ordering in permutations(triple):
        folded = combine_all(ordering)
        assert folded.focal_sets == reference.focal_sets
        for fs, mass in reference.entries:
            assert mass == pytest.approx(mass_of(folded, fs), abs=1e-9)


def test_combine_all_single_and_empty():
    frame = make_frame(4)
    bba = build_bba(frame, [({1, 2}, 1.0)])
    assert combine_all([bba]) == bba
    with pytest.raises(ValidationError):
        combine_all([])


@pytest.mark.parametrize(
    "items,message",
    [
        ([None], "item 1 to combine is not a Bba, got NoneType"),
        (["bba", 5], "item 1 to combine is not a Bba, got str"),
        ([True, 5], "item 1 to combine is not a Bba, got bool"),
        ([0, 5], "item 1 to combine is not a Bba, got int"),
    ],
    ids=["single-None", "str-first", "bool-first", "int-first"],
)
def test_combine_all_rejects_non_bbas(items, message):
    with pytest.raises(ValidationError) as caught:
        combine_all(items)
    assert str(caught.value) == message


def test_combine_all_names_the_position():
    bba = build_bba(make_frame(4), [({1, 2}, 1.0)])
    with pytest.raises(ValidationError, match="^item 2 to combine is not a Bba, got int$"):
        combine_all([bba, 5])
    with pytest.raises(ValidationError, match="^item 3 to combine is not a Bba, got dict$"):
        combine_all(iter([bba, bba, {}]))


def test_oracle_equivalence():
    rng = random.Random(31)
    for _ in range(50):
        size = rng.randint(2, 6)
        frame = make_frame(size)
        m1 = random_bba(rng, frame, max_focal=8, include_full=True)
        m2 = random_bba(rng, frame, max_focal=8, include_full=True)
        expected, expected_k = exact.combine(exact.masses(m1), exact.masses(m2))
        assert conflict(m1, m2) == pytest.approx(float(expected_k), abs=1e-12)
        actual = combine_dempster(m1, m2)._by_bits
        assert set(actual) == set(expected)
        for bits, value in expected.items():
            assert actual[bits] == pytest.approx(float(value), abs=1e-12)
