"""Frame, focal set, and BBA construction and validation."""

import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bba_pairs, make_frame, random_bba
from evidist.combination import combine_dempster
from evidist.core import (
    MASS_SUM_TOLERANCE,
    Bba,
    FocalSet,
    _check_same_frame,
    build_bba,
    build_frame,
    mass_of,
    vacuous_bba,
)
from evidist.errors import FrameMismatchError, ValidationError

GRADES = ["Poor", "Low", "Middle", "High", "Perfect"]


class TestBuildFrame:
    def test_grade_frame(self):
        frame = build_frame(GRADES)
        assert frame.size == 5
        assert frame.index_of("Low") == 2
        assert frame.label(5) == "Perfect"

    def test_minimal_frame(self):
        assert build_frame(["Only"]).size == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_frame(["A", "A"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_frame([])

    def test_oversized_rejected(self):
        with pytest.raises(ValidationError, match="maximum"):
            build_frame([f"x{i}" for i in range(65)])

    def test_index_out_of_range(self):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match="out of range"):
            frame.index_of(6)
        with pytest.raises(ValidationError, match="out of range"):
            frame.index_of(0)

    def test_unknown_label(self):
        with pytest.raises(ValidationError, match="unknown label"):
            build_frame(GRADES).subset(["Excellent"])

    @pytest.mark.parametrize("label", ["a,b", "{d}", "x{", "y}", ","])
    def test_set_display_characters_rejected(self, label):
        # "{a,b,c}" would read as three labels, and "{{d}}" as a nested set.
        with pytest.raises(ValidationError, match=re.escape(f"label {label!r}")):
            build_frame(["c", label])

    def test_other_punctuation_allowed(self):
        frame = build_frame(["a b", "c;d", "(e)", "f|g", "[h]"])
        assert repr(frame.subset([1, 4])) == "{a b,f|g}"


class TestSubsetLookup:
    """``Frame.subset`` resolves members through a table; any member the
    table does not hold must fail as ``index_of`` makes it fail."""

    @pytest.mark.parametrize(
        "member,message",
        [
            (True, "invalid frame member True"),
            (False, "invalid frame member False"),
            (1.0, "invalid frame member 1.0"),
            (2.0, "invalid frame member 2.0"),
            (0, "index 0 out of range 1..5"),
            (6, "index 6 out of range 1..5"),
            ("Excellent", "unknown label 'Excellent'"),
            (None, "invalid frame member None"),
        ],
    )
    def test_rejected_members_keep_their_messages(self, member, message):
        frame = build_frame(GRADES)
        expected = f"^{re.escape(message)}$"
        with pytest.raises(ValidationError, match=expected):
            frame.index_of(member)
        for members in ([member], ["Low", member], [3, member, 4]):
            with pytest.raises(ValidationError, match=expected):
                frame.subset(members)

    def test_true_is_not_position_one(self):
        frame = build_frame(GRADES)
        assert frame.subset([1]).bits == 1
        with pytest.raises(ValidationError):
            frame.subset([True])
        with pytest.raises(ValidationError):
            frame.subset([1, True])

    def test_int_subclass_goes_through_index_of(self):
        class Position(int):
            pass

        assert build_frame(GRADES).subset([Position(3)]).bits == 0b100

    @given(data=st.data())
    def test_mixed_spellings_have_the_bits_of_index_of(self, data):
        size = data.draw(st.integers(1, 64))
        frame = make_frame(size)
        positions = data.draw(st.lists(st.integers(1, size), min_size=1, max_size=2 * size))
        members = [data.draw(st.sampled_from((p, frame.label(p)))) for p in positions]
        expected = 0
        for member in members:
            expected |= 1 << (frame.index_of(member) - 1)
        assert frame.subset(members).bits == expected


class TestFrameIdentity:
    """Frames are compared by identity first, then by value: a frame that
    is equal but was built separately is accepted, a different one is not."""

    def test_bba_accepts_equal_frame(self):
        frame, twin = build_frame(GRADES), build_frame(GRADES)
        assert frame is not twin and frame == twin
        bba = Bba(frame, ((twin.subset([1]), 0.5), (frame.subset([2]), 0.5)))
        assert len(bba.entries) == 2

    def test_bba_rejects_other_frame(self):
        frame = build_frame(GRADES)
        with pytest.raises(FrameMismatchError, match="different frame"):
            Bba(frame, ((make_frame(5).subset([1]), 1.0),))

    def test_build_bba_accepts_equal_frame(self):
        frame, twin = build_frame(GRADES), build_frame(GRADES)
        bba = build_bba(frame, [(twin.subset([1]), 0.5), ({2}, 0.5)])
        assert mass_of(bba, frame.subset([1])) == 0.5

    def test_build_bba_rejects_other_frame(self):
        frame = build_frame(GRADES)
        with pytest.raises(FrameMismatchError, match="different frame"):
            build_bba(frame, [(make_frame(5).subset([1]), 1.0)])

    def test_check_same_frame(self):
        m1 = build_bba(build_frame(GRADES), [({1}, 1.0)])
        _check_same_frame(m1, m1)
        _check_same_frame(m1, build_bba(build_frame(GRADES), [({2}, 1.0)]))
        with pytest.raises(FrameMismatchError, match="different frames"):
            _check_same_frame(m1, build_bba(make_frame(5), [({2}, 1.0)]))


class TestFocalSet:
    def test_equality_is_order_insensitive(self):
        frame = build_frame(GRADES)
        assert frame.subset([2, 1]) == frame.subset([1, 2])
        assert frame.subset(["Low", "Poor"]) == frame.subset([1, 2])

    def test_members_and_labels(self):
        frame = build_frame(GRADES)
        fs = frame.subset(["Middle", 1])
        assert fs.members == (1, 3)
        assert fs.labels == ("Poor", "Middle")
        assert len(fs) == 2
        assert "Poor" in fs and 4 not in fs

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            build_frame(GRADES).subset([])

    def test_label_and_index_name_same_set(self):
        frame = build_frame(GRADES)
        assert frame.subset(["Poor"]) == frame.subset([1])

    @given(data=st.data())
    def test_members_are_the_set_bits(self, data):
        size = data.draw(st.integers(1, 64))
        bits = data.draw(st.integers(1, (1 << size) - 1))
        focal_set = FocalSet(make_frame(size), bits)
        expected = tuple(i + 1 for i in range(size) if bits >> i & 1)
        assert focal_set.members == expected


class TestBuildBba:
    def test_categorical(self):
        frame = build_frame(GRADES)
        bba = build_bba(frame, [({1}, 1.0)])
        assert mass_of(bba, frame.subset([1])) == 1.0

    def test_duplicate_sets_merge(self):
        frame = build_frame(GRADES)
        theta = set(range(1, 6))
        bba = build_bba(frame, [(theta, 0.8), (theta, 0.2)])
        assert len(bba.entries) == 1
        assert mass_of(bba, frame.full_set()) == 1.0

    def test_sum_violation_rejected(self):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match="sum"):
            build_bba(frame, [({1}, 0.6), ({2}, 0.5)])

    def test_sum_tolerance_boundary(self):
        frame = build_frame(GRADES)
        build_bba(frame, [({1}, 1.0 - 1e-10)])  # inside tolerance
        with pytest.raises(ValidationError):
            build_bba(frame, [({1}, 0.99)])

    def test_negative_mass_rejected(self):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match="nonnegative"):
            build_bba(frame, [({1}, 1.2), ({2}, -0.2)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, bad):
        # NaN fails every comparison, so a sign check alone would let it
        # through to be dropped like a zero mass, leaving {Poor}: 1.
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match=r"finite.*\{Low\}"):
            build_bba(frame, [({1}, 1.0), ({2}, bad)])

    def test_zero_mass_entries_drop(self):
        frame = build_frame(GRADES)
        bba = build_bba(frame, [({1}, 1.0), ({2}, 0.0)])
        assert len(bba.entries) == 1

    def test_empty_set_rejected(self):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match="non-empty"):
            build_bba(frame, [(set(), 1.0)])

    def test_unknown_member_rejected(self):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match="unknown label"):
            build_bba(frame, [({"Nope"}, 1.0)])

    def test_renormalize(self):
        frame = build_frame(GRADES)
        bba = build_bba(frame, [({1}, 0.5), ({2}, 0.25)], renormalize=True)
        assert mass_of(bba, frame.subset([1])) == pytest.approx(2 / 3)
        total = sum(m for _, m in bba.entries)
        assert abs(total - 1.0) <= MASS_SUM_TOLERANCE

    def test_renormalize_zero_total(self):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match="renormalize"):
            build_bba(frame, [({1}, 0.0)], renormalize=True)

    def test_mapping_input(self):
        frame = build_frame(GRADES)
        bba = build_bba(frame, {frame.subset([1]): 0.5, frame.subset([2]): 0.5})
        assert len(bba.entries) == 2


class TestVacuous:
    def test_full_frame_mass(self):
        frame = build_frame(GRADES)
        bba = vacuous_bba(frame)
        assert mass_of(bba, frame.full_set()) == 1.0

    def test_single_grade_frame(self):
        frame = build_frame(["Only"])
        bba = vacuous_bba(frame)
        assert mass_of(bba, frame.subset([1])) == 1.0

    def test_neutral_for_combination(self):
        rng = random.Random(7)
        for size in (2, 3, 5, 8):
            frame = make_frame(size)
            bba = random_bba(rng, frame)
            assert combine_dempster(vacuous_bba(frame), bba) == bba


class TestMassOf:
    def test_stored_and_missing(self):
        frame = build_frame(GRADES)
        bba = build_bba(frame, [({1}, 1.0)])
        assert mass_of(bba, frame.subset([1])) == 1.0
        assert mass_of(bba, frame.subset([2])) == 0.0

    def test_vacuous_query(self):
        frame = make_frame(3)
        assert mass_of(vacuous_bba(frame), frame.full_set()) == 1.0

    def test_frame_mismatch(self):
        bba = build_bba(build_frame(GRADES), [({1}, 1.0)])
        other = make_frame(3)
        with pytest.raises(FrameMismatchError):
            mass_of(bba, other.subset([1]))


@given(pair=bba_pairs(min_size=1, max_size=10))
def test_constructed_bbas_satisfy_invariants(pair):
    for bba in pair:
        total = 0.0
        for fs, mass in bba.entries:
            assert 0.0 < mass <= 1.0 + MASS_SUM_TOLERANCE
            assert len(fs) >= 1
            total += mass
        assert abs(total - 1.0) <= MASS_SUM_TOLERANCE
        bits = [fs.bits for fs, _ in bba.entries]
        assert len(bits) == len(set(bits))


@given(size=st.integers(1, 10), data=st.data())
def test_entries_are_canonically_ordered(size, data):
    from conftest import bbas_on

    bba = data.draw(bbas_on(make_frame(size)))
    keys = [(len(fs), fs.members) for fs, _ in bba.entries]
    assert keys == sorted(keys)
