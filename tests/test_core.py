"""Frame, focal set, and BBA construction and validation."""

import copy
import math
import pickle
import random
import re
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bba_pairs, make_frame, random_bba
from evidist.combination import combine_dempster
from evidist.core import (
    MASS_SUM_TOLERANCE,
    Bba,
    FocalSet,
    Frame,
    _canonical_key,
    _check_same_frame,
    build_bba,
    build_frame,
    focal_sort_key,
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

    @pytest.mark.parametrize("make", [Frame, build_frame], ids=["Frame", "build_frame"])
    def test_labels_are_kept_as_a_tuple(self, make):
        labels = ["a", "b"]
        frame = make(labels)
        labels.append("c")
        assert frame.labels == ("a", "b") and frame.size == 2
        assert hash(frame) == hash(Frame(("a", "b")))
        assert hash(build_bba(frame, [(["b"], 1.0)])) is not None
        assert make(label for label in "xyz").labels == ("x", "y", "z")

    @pytest.mark.parametrize(
        "labels,message",
        [
            ("ab", "frame 'ab' is a str, not a collection of labels; write ['ab'] for one label"),
            (b"ab", "frame b'ab' is a bytes, not a collection of labels"),
            (bytearray(b"ab"), "frame bytearray(b'ab') is a bytearray, not a collection of labels"),
        ],
    )
    @pytest.mark.parametrize("make", [Frame, build_frame], ids=["Frame", "build_frame"])
    def test_text_is_not_a_label_list(self, make, labels, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(labels)

    @pytest.mark.parametrize("labels,kind", [(5, "int"), (None, "NoneType")])
    @pytest.mark.parametrize("make", [Frame, build_frame], ids=["Frame", "build_frame"])
    def test_labels_must_be_iterable(self, make, labels, kind):
        message = f"frame labels must be an iterable, got {kind}"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make(labels)

    def test_type_error_inside_a_generator_propagates(self):
        def labels():
            yield "a"
            raise TypeError("the caller's own fault")

        with pytest.raises(TypeError, match="^the caller's own fault$"):
            Frame(labels())


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

    @pytest.mark.parametrize(
        "index,message",
        [
            (True, "invalid frame member True"),
            (False, "invalid frame member False"),
            (1.0, "invalid frame member 1.0"),
            ("1", "invalid frame member '1'"),
            (None, "invalid frame member None"),
            (0, "index 0 out of range 1..5"),
            (6, "index 6 out of range 1..5"),
        ],
    )
    def test_label_rejects_what_index_of_rejects(self, index, message):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            frame.label(index)
        if not isinstance(index, str):  # index_of reads a str as a label
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                frame.index_of(index)

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


class TestTextIsNotASet:
    """A str or bytes iterates as characters or byte values; taken as a set
    it would silently name other members, so it is rejected by name."""

    LABELS = ["A", "B", "AB"]

    @pytest.mark.parametrize(
        "labels,text",
        [(LABELS, "AB"), (LABELS, "A"), (GRADES, "Poor")],
        ids=["AB", "A", "Poor"],
    )
    def test_string_rejected_with_a_hint(self, labels, text):
        frame = build_frame(labels)
        expected = re.escape(f"set {text!r} is a str") + ".*" + re.escape(f"[{text!r}]")
        with pytest.raises(ValidationError, match=expected):
            build_bba(frame, [(text, 1.0)])
        with pytest.raises(ValidationError, match=expected):
            frame.subset(text)

    @pytest.mark.parametrize(
        "data", [b"\x01\x02", bytearray(b"\x03")], ids=["bytes", "bytearray"]
    )
    def test_bytes_rejected(self, data):
        frame = build_frame(self.LABELS)
        expected = re.escape(f"set {data!r} is a {type(data).__name__}")
        with pytest.raises(ValidationError, match=expected):
            build_bba(frame, [(data, 1.0)])
        with pytest.raises(ValidationError, match=expected):
            frame.subset(data)

    def test_mapping_with_string_key_rejected(self):
        frame = build_frame(self.LABELS)
        with pytest.raises(ValidationError, match="'AB' is a str"):
            build_bba(frame, {"AB": 1.0})
        assert build_bba(frame, {("AB",): 1.0}).focal_sets == (frame.subset([3]),)


class TestMassTypes:
    """Both public constructors take numbers, never text or bools, as masses."""

    @pytest.mark.parametrize(
        "bad",
        ["0.5", b"0.5", bytearray(b"0.5"), True, None],
        ids=["str", "bytes", "bytearray", "bool", "None"],
    )
    def test_build_bba_rejects_non_numbers(self, bad):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match=r"must be numbers, got .* on \{Poor\}$"):
            build_bba(frame, [(["Poor"], bad), (["Low"], 0.5)])

    @pytest.mark.parametrize(
        "bad", ["1", b"1", True, None], ids=["str", "bytes", "bool", "None"]
    )
    def test_bba_rejects_non_numbers(self, bad):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match=r"must be numbers, got .* on \{Poor\}$"):
            Bba(frame, [(frame.subset(["Poor"]), bad)])

    @pytest.mark.parametrize(
        "half",
        [Fraction(1, 2), Decimal("0.5"), np.float64(0.5)],
        ids=["Fraction", "Decimal", "float64"],
    )
    def test_other_numbers_stored_as_float(self, half):
        frame = build_frame(GRADES)
        poor, low = frame.subset(["Poor"]), frame.subset(["Low"])
        for bba in (
            build_bba(frame, [(["Poor"], half), (["Low"], half)]),
            Bba(frame, [(poor, half), (low, half)]),
        ):
            assert tuple(bba._by_bits.items()) == ((1, 0.5), (2, 0.5))
            assert all(type(mass) is float for mass in bba._by_bits.values())

    def test_int_masses(self):
        frame = build_frame(GRADES)
        full = frame.full_set()
        for bba in (build_bba(frame, [(full, 1)]), Bba(frame, [(full, 1)])):
            assert tuple(bba._by_bits.items()) == ((full.bits, 1.0),)
            assert type(bba._by_bits[full.bits]) is float

    @pytest.mark.parametrize(
        "huge",
        [10**400, Fraction(10**400, 1), 10**5000],
        ids=["int", "Fraction", "int-past-digit-limit"],
    )
    def test_masses_too_large_for_a_float(self, huge):
        frame = build_frame(GRADES)
        message = r"^focal mass on \{Poor\} is too large for a float$"
        with pytest.raises(ValidationError, match=message):
            build_bba(frame, [(["Poor"], huge)])
        with pytest.raises(ValidationError, match=message):
            Bba(frame, [(frame.subset(["Poor"]), huge)])


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


class TestPackedBba:
    """A Bba stores one canonical bits -> mass dict and builds its FocalSets
    only on demand; what it shows must be what the sorted-FocalSet
    construction gave."""

    @given(data=st.data())
    def test_integer_key_sorts_like_focal_sort_key(self, data):
        size = data.draw(st.integers(1, 64))
        frame = make_frame(size)
        # Few-member sets make equal cardinalities common on large frames.
        few_members = st.sets(st.integers(0, size - 1), min_size=1, max_size=3).map(
            lambda positions: sum(1 << p for p in positions)
        )
        masks = data.draw(
            st.lists(
                st.one_of(st.integers(1, (1 << size) - 1), few_members),
                min_size=1,
                max_size=12,
                unique=True,
            )
        )
        by_key = sorted(masks, key=_canonical_key)
        focal_sets = sorted((FocalSet(frame, b) for b in masks), key=focal_sort_key)
        assert by_key == [fs.bits for fs in focal_sets]

    def test_integer_key_orders_within_one_cardinality(self):
        frame = make_frame(64)
        # {1,64} before {2,3}: the lowest bit of a ^ b is position 1.
        masks = [0b110, (1 << 63) | 1, 0b1, 1 << 63]
        expected = sorted(masks, key=lambda b: focal_sort_key(FocalSet(frame, b)))
        assert expected == [1, 1 << 63, (1 << 63) | 1, 0b110]
        assert sorted(masks, key=_canonical_key) == expected

    @given(data=st.data())
    def test_entries_equal_the_sorted_focal_set_pairs(self, data):
        size = data.draw(st.integers(1, 64))
        frame = make_frame(size)
        drawn = data.draw(
            st.lists(
                st.tuples(st.integers(1, (1 << size) - 1), st.integers(1, 100)),
                min_size=1,
                max_size=8,
            )
        )
        total = sum(w for _, w in drawn)
        pairs = [(FocalSet(frame, b), w / total) for b, w in drawn]
        bba = build_bba(frame, pairs)
        # How entries were built before they were packed: merged per set,
        # then sorted by focal_sort_key.
        merged = {}
        for focal_set, mass in pairs:
            merged[focal_set] = merged.get(focal_set, 0.0) + mass
        expected = tuple(sorted(merged.items(), key=lambda e: focal_sort_key(e[0])))
        assert bba.entries == expected
        assert bba.focal_sets == tuple(fs for fs, _ in expected)
        assert bba.entries is bba.entries  # built once, then kept

    def test_public_and_built_bbas_are_equal_and_hash_equal(self):
        frame = build_frame(GRADES)
        public = Bba(frame, ((frame.subset([1, 2]), 0.25), (frame.subset([3]), 0.75)))
        built = build_bba(frame, [({"Middle"}, 0.75), ((1, "Low"), 0.25)])
        assert public == built and hash(public) == hash(built)
        assert public.entries == built.entries
        assert public != build_bba(frame, [({"Middle"}, 0.5), ((1, "Low"), 0.5)])
        assert public != build_bba(make_frame(5), [({3}, 0.75), ({1, 2}, 0.25)])
        assert len({public, built}) == 1

    def test_fields_cannot_be_assigned(self):
        frame = build_frame(GRADES)
        bba = build_bba(frame, [({1}, 1.0)])
        for name, value in (("entries", ()), ("frame", make_frame(5)), ("_by_bits", {})):
            with pytest.raises(FrozenInstanceError):
                setattr(bba, name, value)
        with pytest.raises(FrozenInstanceError):
            del bba.frame
        assert bba.frame is frame and tuple(bba._by_bits.items()) == ((1, 1.0),)

    def test_copies_and_pickles_are_equal(self):
        frame = build_frame(GRADES)
        bba = build_bba(frame, [({1, 2}, 0.25), ({3}, 0.75)])
        for clone in (copy.copy(bba), copy.deepcopy(bba), pickle.loads(pickle.dumps(bba))):
            assert clone == bba and clone._by_bits == bba._by_bits
            assert clone.entries == bba.entries

    @pytest.mark.parametrize(
        "entries",
        [
            lambda frame: [({"A"}, 1.0)],
            lambda frame: [(["A"], 1.0)],
            lambda frame: {frame.subset(["A"]): 1.0},
            lambda frame: [(frame.subset(["A"]), 1.0, 0.0)],
            lambda frame: [(frame.subset(["A"]), 0.5), None],
        ],
        ids=["set", "list", "mapping", "triple", "None"],
    )
    def test_public_constructor_takes_focal_set_pairs_only(self, entries):
        frame = build_frame(["A", "B"])
        message = (
            "Bba entries must be (FocalSet, mass) pairs; build_bba "
            "also takes mappings and sets of labels or positions"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Bba(frame, entries(frame))

    def test_public_constructor_reports_the_first_fault_in_input_order(self):
        frame = build_frame(GRADES)
        poor, low = frame.subset(["Poor"]), frame.subset(["Low"])
        faults = [(low, -1.0), (poor, "x")]
        with pytest.raises(ValidationError, match=r"^focal masses must be positive, got -1.0 on \{Low\}$"):
            Bba(frame, faults)
        with pytest.raises(ValidationError, match=r"^focal masses must be numbers, got 'x' on \{Poor\}$"):
            Bba(frame, faults[::-1])

    def test_public_constructor_sorts_and_sums_as_from_bits(self):
        frame = build_frame(GRADES)
        pairs = [(frame.subset([3]), 0.1), (frame.subset([1, 2]), 0.7), (frame.subset([1]), 0.2)]
        bba = Bba(frame, pairs)
        trusted = Bba._from_bits(frame, {fs.bits: mass for fs, mass in pairs})
        assert list(bba._by_bits.items()) == list(trusted._by_bits.items())
        assert bba == trusted and hash(bba) == hash(trusted)
        assert list(bba.__dict__) == ["frame", "_by_bits"]

    def test_renormalized_mass_that_underflows_is_rejected(self):
        frame = build_frame(GRADES)
        with pytest.raises(ValidationError, match=r"positive, got 0.0 on \{Poor\}"):
            build_bba(frame, [({1}, 5e-324), ({2}, 2.0)], renormalize=True)

    @given(pair=bba_pairs(min_size=1, max_size=10, include_full=True))
    def test_combine_equals_build_bba_of_the_products(self, pair):
        m1, m2 = pair
        frame = m1.frame
        # The focal products of Dempster's rule, formed test-locally.
        accumulated, k = {}, 0.0
        for a, mass_a in m1.entries:
            for b, mass_b in m2.entries:
                if a.bits & b.bits:
                    key = a.bits & b.bits
                    accumulated[key] = accumulated.get(key, 0.0) + mass_a * mass_b
                else:
                    k += mass_a * mass_b
        total = sum(accumulated.values())
        if not k and abs(total - 1.0) <= 0.5 * MASS_SUM_TOLERANCE:
            total = 1.0
        expected = build_bba(
            frame, [(FocalSet(frame, b), mass / total) for b, mass in accumulated.items()]
        )
        combined = combine_dempster(m1, m2)
        assert combined == expected
        assert combined._by_bits == expected._by_bits
