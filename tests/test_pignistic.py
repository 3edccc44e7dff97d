"""Pignistic transformation and betting-commitment distances."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EDGE_SUM_DOCUMENT,
    bba_pairs,
    bbas_off_unit_sum,
    bbas_on,
    brute_force_max_gap,
    make_frame,
    ppt_by_members,
)
from evidist.combination import combine_dempster
from evidist.core import build_bba, build_frame, vacuous_bba
from evidist.distance import red_distance
from evidist.document import parse_document
from evidist.errors import FrameMismatchError, TotalConflictError, ValidationError
from evidist.pignistic import (
    BetPMode,
    PignisticDistribution,
    betp_of_subset,
    dif_betp,
    ppt,
)
from evidist.repro import sweep_bbas


class TestPpt:
    def test_worked_example(self):
        frame = make_frame(3)
        bba = build_bba(frame, [({1}, 0.3), ({1, 2}, 0.4), ({1, 2, 3}, 0.3)])
        assert ppt(bba).probabilities == pytest.approx((0.6, 0.3, 0.1), abs=1e-12)

    def test_categorical_fixed_point(self):
        frame = make_frame(5)
        bba = build_bba(frame, [({4}, 1.0)])
        assert ppt(bba).probabilities == (0.0, 0.0, 0.0, 1.0, 0.0)

    def test_vacuous_is_uniform(self):
        frame = make_frame(5)
        assert ppt(vacuous_bba(frame)).probabilities == pytest.approx(
            (0.2,) * 5, abs=1e-12
        )

    @given(pair=bba_pairs(min_size=1, max_size=12))
    def test_output_is_distribution(self, pair):
        for bba in pair:
            p = ppt(bba).probabilities
            assert all(x >= 0.0 for x in p)
            assert sum(p) == pytest.approx(1.0, abs=1e-9)

    @given(pair=bba_pairs(min_size=1, max_size=64))
    def test_equals_member_loop(self, pair):
        # Same shares, added in the same ascending order: equal, not close.
        for bba in pair:
            assert ppt(bba).probabilities == ppt_by_members(bba)

    def test_to_bba_round_trip(self):
        frame = make_frame(4)
        bba = build_bba(frame, [({1, 2}, 0.5), ({3}, 0.5)])
        singleton_bba = ppt(bba).to_bba()
        assert ppt(singleton_bba).probabilities == ppt(bba).probabilities

    @pytest.mark.parametrize("probabilities", [(0.5, 0.2), (1.5, -0.5)])
    def test_to_bba_rejects_what_is_not_a_distribution(self, probabilities):
        distribution = PignisticDistribution(build_frame(["A", "B"]), probabilities)
        with pytest.raises(ValidationError, match="masses sum to"):
            distribution.to_bba()


    @pytest.mark.parametrize(
        "probabilities,message",
        [
            ((0.5, 0.25, 0.25), "distribution has 3 probabilities for a frame of 2 grades"),
            ((1.0,), "distribution has 1 probabilities for a frame of 2 grades"),
            ((1.0, float("nan")), "probability of grade 'B' must be finite, got nan"),
            ((float("inf"), 0.0), "probability of grade 'A' must be finite, got inf"),
            ((1.0, -0.5), "probability of grade 'B' must be nonnegative, got -0.5"),
        ],
        ids=["too-long", "too-short", "nan", "infinite", "negative"],
    )
    def test_to_bba_rejects_malformed_probabilities(self, probabilities, message):
        distribution = PignisticDistribution(build_frame(["A", "B"]), probabilities)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            distribution.to_bba()


class TestBetpOfSubset:
    def test_adds_left_to_right_on_every_python(self):
        # sum() compensates its rounding from Python 3.12 on and would give
        # 1.0000000000000002 here; the package adds plainly everywhere.
        frame = build_frame(["A", "B", "C"])
        p = PignisticDistribution(frame, (1.0, 1e-16, 1e-16))
        assert betp_of_subset(p, frame.full_set()) == 1.0

    def test_uniform_pair(self):
        frame = make_frame(5)
        p = ppt(vacuous_bba(frame))
        assert betp_of_subset(p, frame.subset([1, 2])) == pytest.approx(0.4, abs=1e-12)

    def test_full_frame_is_one(self):
        frame = make_frame(3)
        bba = build_bba(frame, [({1}, 0.3), ({1, 2}, 0.4), ({1, 2, 3}, 0.3)])
        p = ppt(bba)
        assert betp_of_subset(p, frame.full_set()) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_pair_support(self):
        frame = build_frame(["Poor", "Low", "Middle", "High", "Perfect"])
        m2 = build_bba(frame, [({2, 3}, 1.0)])
        p = ppt(m2)
        assert p.probabilities == (0.0, 0.5, 0.5, 0.0, 0.0)
        assert betp_of_subset(p, frame.subset([2, 3])) == pytest.approx(1.0, abs=1e-12)

    def test_frame_mismatch(self):
        p = ppt(vacuous_bba(make_frame(3)))
        with pytest.raises(FrameMismatchError):
            betp_of_subset(p, make_frame(4).subset([1]))

    @given(size=st.integers(2, 10), data=st.data())
    def test_additivity_on_disjoint_sets(self, size, data):
        frame = make_frame(size)
        bba = data.draw(bbas_on(frame))
        bits_a = data.draw(st.integers(1, (1 << size) - 1))
        free = [i for i in range(size) if not bits_a >> i & 1]
        if not free:
            return
        # Draw b directly as a non-empty submask of the complement of a.
        picked = data.draw(st.integers(1, (1 << len(free)) - 1))
        bits_b = 0
        for position, bit in enumerate(free):
            if picked >> position & 1:
                bits_b |= 1 << bit
        from evidist.core import FocalSet

        p = ppt(bba)
        a, b = FocalSet(frame, bits_a), FocalSet(frame, bits_b)
        union = FocalSet(frame, bits_a | bits_b)
        assert betp_of_subset(p, union) == pytest.approx(
            betp_of_subset(p, a) + betp_of_subset(p, b), abs=1e-12
        )


class TestDifBetp:
    def test_disjoint_categoricals_max_out(self):
        frame = make_frame(5)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({2}, 1.0)])
        for mode in BetPMode:
            assert dif_betp(m1, m2, mode) == pytest.approx(1.0, abs=1e-12)

    def test_nested_pair_is_half(self):
        frame = make_frame(5)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({1, 2}, 1.0)])
        for mode in BetPMode:
            assert dif_betp(m1, m2, mode) == pytest.approx(0.5, abs=1e-12)

    def test_identical_bbas(self):
        frame = make_frame(5)
        bba = build_bba(frame, [({1, 3}, 0.7), ({2}, 0.3)])
        for mode in BetPMode:
            assert dif_betp(bba, bba, mode) == 0.0

    def test_zero_on_equal_betting_commitments(self):
        # Different BBAs whose pignistic transforms coincide.
        frame = make_frame(5)
        m1 = build_bba(frame, [({1, 2}, 1.0)])
        m2 = build_bba(frame, [({1}, 0.5), ({2}, 0.5)])
        for mode in BetPMode:
            assert dif_betp(m1, m2, mode) == 0.0

    def test_zero_is_a_float_in_every_mode(self):
        # With no positive coordinate the all-subsets sum is empty.
        frame = make_frame(3)
        bba = build_bba(frame, [({1}, 0.6), ({1, 2}, 0.4)])
        for mode in BetPMode:
            result = dif_betp(bba, bba, mode)
            assert type(result) is float and result == 0.0

    def test_default_mode_is_all_subsets(self):
        m1, m2 = sweep_bbas(1)
        assert dif_betp(m1, m2) == dif_betp(m1, m2, BetPMode.ALL_SUBSETS)

    @pytest.mark.parametrize("mode", list(BetPMode), ids=lambda mode: mode.value)
    def test_mode_value_string_scans_as_its_member(self, mode):
        # The all-subsets scan gives 1.0 on this pair and the others 0.5;
        # the sweep pairs tell the singleton scan from the focal one.
        frame = build_frame(["A", "B", "C", "D"])
        m1 = build_bba(frame, [({"A"}, 0.5), ({"B"}, 0.5)])
        m2 = build_bba(frame, [({"C"}, 0.5), ({"D"}, 0.5)])
        expected = {"all": 1.0, "singleton": 0.5, "focal": 0.5}[mode.value]
        assert dif_betp(m1, m2, mode) == expected
        assert dif_betp(m1, m2, mode.value) == expected
        for pair in sweep_bbas(1), sweep_bbas(2):
            assert dif_betp(*pair, mode.value) == dif_betp(*pair, mode)

    @pytest.mark.parametrize("mode", ["everything", "", "ALL_SUBSETS", 1, None])
    def test_unknown_mode_is_rejected(self, mode):
        m1, m2 = sweep_bbas(1)
        message = f"unknown betp mode {mode!r} (use all, singleton, or focal)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dif_betp(m1, m2, mode)

    def test_frame_mismatch(self):
        m1 = build_bba(make_frame(3), [({1}, 1.0)])
        m2 = build_bba(make_frame(4), [({1}, 1.0)])
        with pytest.raises(FrameMismatchError):
            dif_betp(m1, m2)

    @given(pair=bba_pairs(max_size=8))
    def test_symmetry_and_range(self, pair):
        m1, m2 = pair
        for mode in BetPMode:
            d12 = dif_betp(m1, m2, mode)
            assert d12 == pytest.approx(dif_betp(m2, m1, mode), abs=1e-12)
            assert -1e-12 <= d12 <= 1.0 + 1e-12

    @settings(max_examples=60)
    @given(pair=bba_pairs(max_size=12))
    def test_positive_part_identity(self, pair):
        """The O(N) total-variation value equals brute-force maximization."""
        m1, m2 = pair
        diff = np.array(ppt(m1).probabilities) - np.array(ppt(m2).probabilities)
        assert dif_betp(m1, m2, BetPMode.ALL_SUBSETS) == pytest.approx(
            brute_force_max_gap(diff), abs=1e-12
        )

    @given(pair=bba_pairs(max_size=10))
    def test_mode_ordering(self, pair):
        m1, m2 = pair
        singles = dif_betp(m1, m2, BetPMode.SINGLETONS)
        focal = dif_betp(m1, m2, BetPMode.FOCAL_SETS)
        full = dif_betp(m1, m2, BetPMode.ALL_SUBSETS)
        focal_with_singles = max(focal, singles)
        assert singles <= focal_with_singles + 1e-12
        assert focal_with_singles <= full + 1e-12

    def test_modes_coincide_on_categorical_singletons(self):
        rng = random.Random(3)
        for _ in range(20):
            size = rng.randint(2, 12)
            frame = make_frame(size)
            i, j = rng.randint(1, size), rng.randint(1, size)
            m1 = build_bba(frame, [({i}, 1.0)])
            m2 = build_bba(frame, [({j}, 1.0)])
            values = {mode: dif_betp(m1, m2, mode) for mode in BetPMode}
            expected = 0.0 if i == j else 1.0
            for value in values.values():
                assert value == pytest.approx(expected, abs=1e-12)


class TestSweepBenchmarkPair:
    """The 20-grade benchmark pair at its first case, both scan scopes."""

    def test_focal_mode_value(self):
        m1, m2 = sweep_bbas(1)
        assert dif_betp(m1, m2, BetPMode.FOCAL_SETS) == pytest.approx(0.605, abs=5e-4)

    def test_all_subsets_value_against_full_enumeration(self):
        # 2^20 subsets, enumerated once as the oracle for the O(N) path.
        m1, m2 = sweep_bbas(1)
        diff = np.array(ppt(m1).probabilities) - np.array(ppt(m2).probabilities)
        brute = brute_force_max_gap(diff)
        fast = dif_betp(m1, m2, BetPMode.ALL_SUBSETS)
        assert fast == pytest.approx(brute, abs=1e-12)
        assert fast == pytest.approx(0.730, abs=5e-4)


class TestMassSumAtTolerance:
    """A BBA is valid when its masses sum to 1 within the tolerance; what is
    computed from it must not be re-checked against the same tolerance,
    which rounding in the computation can cross."""

    def test_edge_sum_document(self):
        document = parse_document(EDGE_SUM_DOCUMENT)
        m, r = document.bba("m"), document.bba("r")
        shared = 0.06 / 6 + 0.17 / 6  # A..F and A..C,E..G
        outer = shared + 0.770000001 / 4  # A, B, E and G
        assert ppt(m).probabilities == pytest.approx(
            (outer, outer, shared, 0.06 / 6, outer, shared, outer - 0.06 / 6),
            abs=1e-15,
        )
        assert red_distance(m, r) == pytest.approx(0.3813, abs=1e-4)
        for mode in BetPMode:
            assert 0.0 <= dif_betp(m, r, mode) <= 1.0

    @given(size=st.integers(1, 64), data=st.data())
    def test_every_ppt_converts_to_a_bba(self, size, data):
        bba = data.draw(bbas_off_unit_sum(make_frame(size)))
        ppt(bba).to_bba()

    @given(size=st.integers(1, 8), data=st.data())
    def test_nothing_computed_fails_validation(self, size, data):
        frame = make_frame(size)
        m1 = data.draw(bbas_off_unit_sum(frame))
        m2 = data.draw(bbas_off_unit_sum(frame))
        ppt(m1)
        ppt(m2)
        red_distance(m1, m2)
        for mode in BetPMode:
            dif_betp(m1, m2, mode)
        try:
            combine_dempster(m1, m2)
        except TotalConflictError:
            pass
