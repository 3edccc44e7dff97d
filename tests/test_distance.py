"""Distance measures: Jaccard weighting, correlation matrix, and the three measures."""

import math
import random
import re
from itertools import accumulate
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EDGE_SUM_DOCUMENT,
    bba_pairs,
    bba_triples,
    make_frame,
    ppt_by_members,
    random_bba,
)
from evidist.combination import combine_all, combine_dempster, conflict
from evidist.core import Bba, FocalSet, _left_sum, build_bba, build_frame, mass_of, vacuous_bba
from evidist.document import parse_document, serialize_document
from evidist.distance import (
    DistanceMeasure,
    correlation_matrix,
    jaccard_similarity,
    jousselme_distance,
    red_distance,
    red_reduces_to_jousselme,
)
from evidist.errors import FrameMismatchError, ValidationError
from evidist.pignistic import BetPMode, PignisticDistribution, betp_of_subset, dif_betp, ppt
from evidist.ranking import rank_by_distance
from evidist.repro import sweep_bbas

GRADES = ("Poor", "Low", "Middle", "High", "Perfect")


def grade_categorical(position):
    frame = build_frame(GRADES)
    return build_bba(frame, [({position}, 1.0)])


class TestJaccardSimilarity:
    def test_nested_pair(self):
        frame = make_frame(5)
        assert jaccard_similarity(frame.subset([1]), frame.subset([1, 2])) == 0.5

    def test_identical(self):
        frame = make_frame(5)
        assert jaccard_similarity(frame.subset([3]), frame.subset([3])) == 1.0

    def test_disjoint(self):
        frame = make_frame(5)
        assert jaccard_similarity(frame.subset([1]), frame.subset([2, 3])) == 0.0

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            jaccard_similarity(make_frame(3).subset([1]), make_frame(4).subset([1]))


class TestJousselme:
    def test_disjoint_categoricals(self):
        frame = build_frame(GRADES)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({2}, 1.0)])
        m3 = build_bba(frame, [({5}, 1.0)])
        assert jousselme_distance(m1, m2) == pytest.approx(1.0, abs=1e-12)
        assert jousselme_distance(m1, m3) == pytest.approx(1.0, abs=1e-12)

    def test_zero_on_equal(self):
        frame = make_frame(6)
        bba = build_bba(frame, [({1, 2}, 0.4), ({3}, 0.6)])
        assert jousselme_distance(bba, bba) == 0.0

    def test_nested_pair_value(self):
        # 2x2 form on (1, -1) with off-diagonal 0.5: radicand 2 - 1 = 1.
        frame = build_frame(GRADES)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({1, 2}, 1.0)])
        assert jousselme_distance(m1, m2) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_sweep_benchmark_first_case(self):
        m1, m2 = sweep_bbas(1)
        assert jousselme_distance(m1, m2) == pytest.approx(0.7858, abs=5e-4)

    def test_frame_mismatch(self):
        m1 = build_bba(make_frame(3), [({1}, 1.0)])
        m2 = build_bba(make_frame(4), [({1}, 1.0)])
        with pytest.raises(FrameMismatchError):
            jousselme_distance(m1, m2)


def jousselme_full_basis(m1, m2):
    """Oracle: evaluate the quadratic form over the entire powerset basis."""
    import numpy as np

    n = m1.frame.size
    masks = np.arange(1, 1 << n)
    popcount = np.array([m.bit_count() for m in range(1 << n)])
    inter = popcount[masks[:, None] & masks[None, :]]
    union = popcount[masks[:, None] | masks[None, :]]
    weights = inter / union
    v1 = np.zeros(len(masks))
    v2 = np.zeros(len(masks))
    for fs, mass in m1.entries:
        v1[fs.bits - 1] = mass
    for fs, mass in m2.entries:
        v2[fs.bits - 1] = mass
    d = v1 - v2
    return math.sqrt(0.5 * max(float(d @ weights @ d), 0.0))


def test_jousselme_joint_list_equals_full_basis():
    rng = random.Random(17)
    for _ in range(12):
        size = rng.randint(2, 10)
        frame = make_frame(size)
        m1 = random_bba(rng, frame, max_focal=8)
        m2 = random_bba(rng, frame, max_focal=8)
        assert jousselme_distance(m1, m2) == pytest.approx(
            jousselme_full_basis(m1, m2), abs=1e-12
        )


class TestQuadraticFormGuard:
    def test_tiny_negative_radicand_clamps_to_zero(self):
        from evidist.distance import _sqrt_half_radicand

        assert _sqrt_half_radicand(-1e-13) == 0.0

    def test_large_negative_radicand_is_a_fault(self):
        from evidist.distance import _sqrt_half_radicand
        from evidist.errors import NumericalError

        with pytest.raises(NumericalError):
            _sqrt_half_radicand(-1.0)


class TestCorrelationMatrix:
    def test_five_grade_matrix(self):
        import numpy as np

        expected = np.array(
            [
                [1.0, 0.75, 0.5, 0.25, 0.0],
                [0.75, 1.0, 0.75, 0.5, 0.25],
                [0.5, 0.75, 1.0, 0.75, 0.5],
                [0.25, 0.5, 0.75, 1.0, 0.75],
                [0.0, 0.25, 0.5, 0.75, 1.0],
            ]
        )
        assert np.array_equal(correlation_matrix(5), expected)

    def test_two_grades_is_identity(self):
        import numpy as np

        assert np.array_equal(correlation_matrix(2), np.eye(2))

    def test_twenty_grades_corners(self):
        s = correlation_matrix(20)
        assert s[0][19] == 0.0
        assert s[0][1] == pytest.approx(1 - 1 / 19, abs=1e-15)

    def test_single_grade(self):
        import numpy as np

        assert np.array_equal(correlation_matrix(1), np.eye(1))

    def test_zero_rejected(self):
        for size in (0, -1):
            with pytest.raises(ValidationError):
                correlation_matrix(size)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 10, 20, 35, 50])
    def test_structure_and_psd(self, size):
        import numpy as np

        s = np.asarray(correlation_matrix(size))
        assert np.array_equal(s, s.T)
        assert np.all(np.diag(s) == 1.0)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        for offset in range(1, size):
            diag = np.diagonal(s, offset)
            assert np.all(diag == diag[0])  # Toeplitz
        assert np.linalg.eigvalsh(s).min() >= -1e-10

    @pytest.mark.parametrize("size", [True, 2.5, "3", 0, 65])
    def test_only_frame_sizes_are_accepted(self, size):
        with pytest.raises(ValidationError, match=r"^frame size must be an int in 1\.\.64, got "):
            correlation_matrix(size)

    def test_cached_and_read_only(self):
        s = correlation_matrix(7)
        assert s is correlation_matrix(7)
        with pytest.raises(TypeError):
            s[0][0] = 2.0
        with pytest.raises(TypeError):
            s[0] = (2.0,) * 7

    @pytest.mark.parametrize("size", range(1, 65))
    def test_bit_identical_to_array_formula(self, size):
        import numpy as np

        if size == 1:
            expected = np.ones((1, 1))
        else:
            i = np.arange(size)
            expected = 1.0 - np.abs(i[:, None] - i[None, :]) / (size - 1)
        s = correlation_matrix(size)
        assert type(s) is tuple and len(s) == size
        assert all(type(row) is tuple and len(row) == size for row in s)
        assert [[float.hex(x) for x in row] for row in s] == [
            [float.hex(float(x)) for x in row] for row in expected
        ]
        assert s is correlation_matrix(size)


class TestRedDistance:
    def test_adjacent_and_two_apart_grades(self):
        m1, m2, m3 = grade_categorical(1), grade_categorical(2), grade_categorical(3)
        assert red_distance(m1, m2) == pytest.approx(0.5, abs=1e-12)
        assert red_distance(m1, m3) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_disjoint_pair_sets(self):
        frame = build_frame(GRADES)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({2, 3}, 1.0)])
        m3 = build_bba(frame, [({4, 5}, 1.0)])
        assert red_distance(m1, m2) == pytest.approx(math.sqrt(0.3125), abs=1e-12)
        assert red_distance(m1, m3) == pytest.approx(math.sqrt(0.8125), abs=1e-12)

    def test_overlapping_pair_sets(self):
        frame = build_frame(GRADES)
        m1 = build_bba(frame, [({1}, 1.0)])
        m2 = build_bba(frame, [({1, 2}, 1.0)])
        m3 = build_bba(frame, [({1, 3}, 1.0)])
        assert red_distance(m1, m2) == pytest.approx(0.25, abs=1e-12)
        assert red_distance(m1, m3) == pytest.approx(math.sqrt(0.125), abs=1e-12)

    def test_zero_on_equal_pignistic(self):
        # Different BBAs, same pignistic distribution: a pseudo-metric.
        frame = build_frame(GRADES)
        m1 = build_bba(frame, [({1, 2}, 1.0)])
        m2 = build_bba(frame, [({1}, 0.5), ({2}, 0.5)])
        assert red_distance(m1, m2) == 0.0

    def test_sweep_benchmark_first_case(self):
        m1, m2 = sweep_bbas(1)
        assert red_distance(m1, m2) == pytest.approx(0.1871, abs=5e-4)

    def test_single_grade_frame(self):
        frame = make_frame(1)
        bba = build_bba(frame, [({1}, 1.0)])
        assert red_distance(bba, bba) == 0.0

    def test_frame_mismatch(self):
        m1 = build_bba(make_frame(3), [({1}, 1.0)])
        m2 = build_bba(make_frame(4), [({1}, 1.0)])
        with pytest.raises(FrameMismatchError):
            red_distance(m1, m2)

    @given(
        size=st.integers(2, 50),
        i=st.integers(1, 50),
        j=st.integers(1, 50),
    )
    def test_singleton_closed_form(self, size, i, j):
        i, j = min(i, size), min(j, size)
        frame = make_frame(size)
        delta_i = build_bba(frame, [({i}, 1.0)])
        delta_j = build_bba(frame, [({j}, 1.0)])
        expected = math.sqrt(abs(i - j) / (size - 1))
        assert red_distance(delta_i, delta_j) == pytest.approx(expected, abs=1e-12)

    def test_ordinal_monotonicity(self):
        for size in (2, 5, 12, 20):
            frame = make_frame(size)
            first = build_bba(frame, [({1}, 1.0)])
            values = [
                red_distance(first, build_bba(frame, [({k}, 1.0)]))
                for k in range(1, size + 1)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))

    @given(pair=bba_pairs(max_size=12))
    def test_zero_sum_quadratic_identity(self, pair):
        import numpy as np

        # With sum(d) = 0 the S-form equals -(1/(N-1)) * sum d_i d_j |i-j|.
        m1, m2 = pair
        size = m1.frame.size
        d = np.array(ppt(m1).probabilities) - np.array(ppt(m2).probabilities)
        direct = float(d @ correlation_matrix(size) @ d)
        positions = np.arange(size)
        gaps = np.abs(positions[:, None] - positions[None, :])
        via_identity = -float(d @ gaps @ d) / (size - 1) if size > 1 else 0.0
        assert direct == pytest.approx(via_identity, abs=1e-10)

    @given(pair=bba_pairs(min_size=1, max_size=64))
    def test_closed_form_equals_matrix_form(self, pair):
        import numpy as np

        # The definition: sqrt(1/2 d^T S d) on the pignistic difference d.
        m1, m2 = pair
        d = np.array(ppt(m1).probabilities) - np.array(ppt(m2).probabilities)
        radicand = float(d @ correlation_matrix(m1.frame.size) @ d)
        matrix_form = math.sqrt(0.5 * max(radicand, 0.0))
        assert red_distance(m1, m2) == pytest.approx(matrix_form, abs=1e-12)

    @given(pair=bba_pairs(max_size=10))
    def test_zero_iff_equal_pignistic(self, pair):
        m1, m2 = pair
        distance = red_distance(m1, m2)
        pignistic_gap = max(
            abs(a - b)
            for a, b in zip(ppt(m1).probabilities, ppt(m2).probabilities)
        )
        if pignistic_gap <= 1e-12:
            assert distance <= 1e-12
        if distance <= 1e-12:
            assert pignistic_gap <= 1e-9


class TestReduction:
    def test_adjacent_grades_with_identity_weights(self):
        m1, m2 = grade_categorical(1), grade_categorical(2)
        with_identity, on_pignistic = red_reduces_to_jousselme(m1, m2)
        assert with_identity == pytest.approx(1.0, abs=1e-12)
        assert on_pignistic == pytest.approx(1.0, abs=1e-12)

    def test_equal_bbas(self):
        frame = make_frame(4)
        bba = build_bba(frame, [({1, 2}, 0.5), ({4}, 0.5)])
        assert red_reduces_to_jousselme(bba, bba) == (0.0, 0.0)

    def test_pignistic_sum_past_the_tolerance(self):
        # ppt of "m" sums to 1.000000001 by rounding; to_bba must not
        # reject it, since "m" itself is valid.
        document = parse_document(EDGE_SUM_DOCUMENT)
        with_identity, on_pignistic = red_reduces_to_jousselme(
            document.bba("m"), document.bba("r")
        )
        assert math.isfinite(with_identity) and math.isfinite(on_pignistic)
        assert with_identity == pytest.approx(on_pignistic, abs=1e-12)

    @settings(max_examples=100)
    @given(pair=bba_pairs(max_size=10))
    def test_components_agree(self, pair):
        with_identity, on_pignistic = red_reduces_to_jousselme(*pair)
        assert with_identity == pytest.approx(on_pignistic, abs=1e-12)


class TestDistanceMeasure:
    @pytest.mark.parametrize(
        "text,label",
        [
            ("red", "red"),
            ("jousselme", "jousselme"),
            ("betp", "betp:all"),
            ("betp:all", "betp:all"),
            ("betp:singleton", "betp:singleton"),
            ("betp:focal", "betp:focal"),
        ],
    )
    def test_parse_labels(self, text, label):
        assert DistanceMeasure.parse(text).label == label

    @pytest.mark.parametrize("text", ["euclid", "betp:everything", "red:all", ""])
    def test_parse_rejects_unknown(self, text):
        with pytest.raises(ValidationError):
            DistanceMeasure.parse(text)

    @pytest.mark.parametrize("mode", list(BetPMode), ids=lambda mode: mode.value)
    def test_mode_value_string_is_its_member(self, mode):
        by_string = DistanceMeasure("betp", mode.value)
        assert by_string == DistanceMeasure("betp", mode)
        assert by_string.mode is mode and by_string.label == f"betp:{mode.value}"
        m1, m2 = grade_categorical(1), grade_categorical(3)
        result = rank_by_distance(m1, {"a": m1, "b": m2}, by_string)
        assert result.measure == by_string.label
        assert by_string.evaluate(m1, m2) == dif_betp(m1, m2, mode)

    @pytest.mark.parametrize(
        "make,message",
        [
            (
                lambda: DistanceMeasure("betp", "everything"),
                "unknown betp mode 'everything' (use all, singleton, or focal)",
            ),
            (
                lambda: DistanceMeasure.parse("betp:everything"),
                "unknown betp mode 'everything' (use all, singleton, or focal)",
            ),
            (lambda: DistanceMeasure("red", "all"), "measure 'red' does not take a mode"),
            (lambda: DistanceMeasure.parse("red:all"), "measure 'red' does not take a mode"),
        ],
        ids=["constructor", "parse", "red-constructor", "red-parse"],
    )
    def test_unknown_mode_is_rejected_as_parse_rejects_it(self, make, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make()

    def test_evaluate_dispatch(self):
        m1, m2 = grade_categorical(1), grade_categorical(3)
        assert DistanceMeasure.parse("red").evaluate(m1, m2) == red_distance(m1, m2)
        assert DistanceMeasure.parse("jousselme").evaluate(m1, m2) == jousselme_distance(m1, m2)
        assert DistanceMeasure.parse("betp:focal").evaluate(m1, m2) == dif_betp(
            m1, m2, BetPMode.FOCAL_SETS
        )


MEASURE_SPELLINGS = ("red", "jousselme", "betp:all", "betp:singleton", "betp:focal")


def pairwise_formula(text, m1, m2):
    """Each measure written out pairwise, as one formula per call."""
    if text == "jousselme":
        radicand = 0.0
        seen = []
        for bits in sorted(m1._by_bits.keys() | m2._by_bits.keys()):
            d = m1._by_bits.get(bits, 0.0) - m2._by_bits.get(bits, 0.0)
            cross = 0.0
            for other, d_other in seen:
                cross += d_other * (bits & other).bit_count() / (bits | other).bit_count()
            radicand += d * (d + 2.0 * cross)
            seen.append((bits, d))
        return math.sqrt(0.5 * radicand) if radicand > 0.0 else 0.0
    # Sums are added left to right, as the package adds them; sum()
    # compensates its rounding from Python 3.12 on.
    p1, p2 = ppt_by_members(m1), ppt_by_members(m2)
    if text == "red":
        size = m1.frame.size
        if size == 1:
            return 0.0
        cdf_gaps = accumulate(map(sub, p1[:-1], p2[:-1]))
        return math.sqrt(_left_sum(c * c for c in cdf_gaps) / (size - 1))
    diff = [a - b for a, b in zip(p1, p2)]
    if text == "betp:all":
        return _left_sum([0.0] + [d for d in diff if d > 0.0])
    if text == "betp:singleton":
        return max(abs(d) for d in diff)
    scanned = {fs.bits: fs for fs, _ in m1.entries}
    scanned.update((fs.bits, fs) for fs, _ in m2.entries)
    return max(abs(_left_sum(diff[i - 1] for i in fs.members)) for fs in scanned.values())


class TestAgainst:
    @given(triple=bba_triples(min_size=1, max_size=20))
    def test_scorer_equals_evaluate_and_pairwise_formula(self, triple):
        reference, b, c = triple
        for text in MEASURE_SPELLINGS:
            measure = DistanceMeasure.parse(text)
            score = measure.against(reference)
            # One scorer, reused: no candidate may leak into the next.
            for candidate in (b, c, reference, b):
                expected = pairwise_formula(text, reference, candidate)
                assert score(candidate) == measure.evaluate(reference, candidate) == expected

    @pytest.mark.parametrize("text", MEASURE_SPELLINGS)
    def test_scorer_checks_each_candidate_frame(self, text):
        reference = build_bba(build_frame(GRADES), [({1}, 1.0)])
        twin = build_bba(build_frame(GRADES), [({2}, 1.0)])
        score = DistanceMeasure.parse(text).against(reference)
        assert score(twin) > 0.0
        with pytest.raises(FrameMismatchError):
            score(build_bba(make_frame(5), [({2}, 1.0)]))

    @pytest.mark.parametrize("text", MEASURE_SPELLINGS)
    def test_reference_must_be_a_bba(self, text):
        measure = DistanceMeasure.parse(text)
        with pytest.raises(ValidationError, match=r"^the reference is not a Bba, got NoneType$"):
            measure.against(None)
        with pytest.raises(ValidationError, match=r"^the reference is not a Bba, got int$"):
            measure.evaluate(5, grade_categorical(1))

    def test_reference_is_transformed_once(self, monkeypatch):
        import evidist.pignistic

        calls = []
        probabilities = evidist.pignistic._probabilities

        def counting_probabilities(bba):
            calls.append(bba)
            return probabilities(bba)

        # ppt builds the reference's from it; the one scorer takes each
        # candidate's straight from it.
        monkeypatch.setattr(evidist.pignistic, "_probabilities", counting_probabilities)
        reference = grade_categorical(1)
        candidates = [grade_categorical(i) for i in (1, 2, 3, 4, 5)]
        for text in ("red", "betp:all", "betp:singleton", "betp:focal"):
            calls.clear()
            score = DistanceMeasure.parse(text).against(reference)
            for candidate in candidates:
                score(candidate)
            assert calls == [reference] + candidates


def interval_fold(seed, size=64, sources=8):
    """The Dempster fold of ``sources`` interval BBAs around one centre,
    each with some whole-frame mass, and the first source. Every draw is
    ``random.Random(seed).random()``, whose stream no Python version
    changes. The fold keeps about 90 focal sets."""
    draw = random.Random(seed).random
    frame = make_frame(size)
    full = (1 << size) - 1
    centre = 10 + int(draw() * (size - 20))
    bbas = []
    for _ in range(sources):
        weights = {full: 0.05 + 0.2 * draw()}
        for _ in range(2 + int(draw() * 4)):
            middle = centre - 7 + int(draw() * 15)
            low = max(0, middle - int(draw() * 10))
            high = min(size, middle + 1 + int(draw() * 10))
            bits = (1 << high) - (1 << low)
            weights[bits] = weights.get(bits, 0.0) + 0.1 + draw()
        total = _left_sum(weights.values())
        bbas.append(build_bba(frame, {FocalSet(frame, b): w / total for b, w in weights.items()}))
    return combine_all(bbas), bbas[0]


@pytest.mark.parametrize("seed", range(4))
def test_measures_on_a_fused_bba_equal_the_pairwise_formula(seed):
    fused, first = interval_fold(seed)
    assert 60 <= len(fused._by_bits) <= 130
    for text in MEASURE_SPELLINGS:
        measure = DistanceMeasure.parse(text)
        for m1, m2 in ((fused, first), (first, fused)):
            assert measure.evaluate(m1, m2) == pairwise_formula(text, m1, m2)


NON_BBA_ENTRY_POINTS = {
    "red_distance": red_distance,
    "jousselme_distance": jousselme_distance,
    "dif_betp": dif_betp,
    "combine_dempster": combine_dempster,
    "conflict": conflict,
    "red_reduces_to_jousselme": red_reduces_to_jousselme,
    **{f"evaluate-{text}": DistanceMeasure.parse(text).evaluate for text in MEASURE_SPELLINGS},
    "ppt": lambda m1, m2: (ppt(m1), ppt(m2)),
}


@pytest.mark.parametrize("position", [1, 2])
@pytest.mark.parametrize("entry_point", NON_BBA_ENTRY_POINTS.values(), ids=NON_BBA_ENTRY_POINTS)
def test_non_bba_operand_is_a_validation_error(entry_point, position):
    operands = [grade_categorical(1), grade_categorical(2)]
    operands[position - 1] = 5
    # evaluate names its first operand "the reference"; see TestAgainst.
    message = r"^(expected a|the reference is not a) Bba, got int$"
    with pytest.raises(ValidationError, match=message):
        entry_point(*operands)


SUBSET = build_frame(GRADES).subset([1])
WRONG_OPERAND_CALLS = {
    "mass_of-bba": (lambda: mass_of(5, SUBSET), "Bba"),
    "mass_of-set": (lambda: mass_of(grade_categorical(1), 5), "FocalSet"),
    "betp_of_subset-distribution": (lambda: betp_of_subset(5, SUBSET), "PignisticDistribution"),
    "betp_of_subset-set": (lambda: betp_of_subset(ppt(grade_categorical(1)), 5), "FocalSet"),
    "jaccard_similarity-first": (lambda: jaccard_similarity(5, SUBSET), "FocalSet"),
    "jaccard_similarity-second": (lambda: jaccard_similarity(SUBSET, 5), "FocalSet"),
}


@pytest.mark.parametrize("call, expected", WRONG_OPERAND_CALLS.values(), ids=WRONG_OPERAND_CALLS)
def test_wrong_operand_type_is_a_validation_error(call, expected):
    with pytest.raises(ValidationError, match=rf"^expected a {expected}, got int$"):
        call()


FRAME = SUBSET.frame
BAD_OPERAND_CALLS = {
    "FocalSet-bool-bits": (lambda: FocalSet(FRAME, True), "int", "bool"),
    "FocalSet-float-bits": (lambda: FocalSet(FRAME, 1.5), "int", "float"),
    "FocalSet-frame": (lambda: FocalSet(5, 1), "Frame", "int"),
    "build_bba-frame": (lambda: build_bba(5, [([1], 1.0)]), "Frame", "int"),
    "vacuous_bba-frame": (lambda: vacuous_bba(5), "Frame", "int"),
    "serialize_document": (lambda: serialize_document(5), "EvidenceDocument", "int"),
    "DistanceMeasure.parse": (lambda: DistanceMeasure.parse(None), "str", "NoneType"),
    "rank_by_distance-measure": (
        lambda: rank_by_distance(grade_categorical(1), {"x": grade_categorical(2)}, "red"),
        "DistanceMeasure",
        "str",
    ),
    "Bba-frame": (lambda: Bba(5, []), "Frame", "int"),
    "Bba-entries": (lambda: Bba(FRAME, 5), "Iterable", "int"),
    "to_bba-frame": (lambda: PignisticDistribution(5, (1.0,)).to_bba(), "Frame", "int"),
    "to_bba-probabilities": (lambda: PignisticDistribution(FRAME, 5).to_bba(), "Iterable", "int"),
    "to_bba-probability": (
        lambda: PignisticDistribution(FRAME, (0.5, "x", 0.0, 0.0, 0.0)).to_bba(), "float", "str"
    ),
    "parse_document": (lambda: parse_document(5), "str", "int"),
    "combine_all": (lambda: combine_all(5), "Iterable", "int"),
    "rank_by_distance-candidates": (
        lambda: rank_by_distance(grade_categorical(1), 5, DistanceMeasure("red")),
        "Iterable",
        "int",
    ),
}


@pytest.mark.parametrize("call, expected, got", BAD_OPERAND_CALLS.values(), ids=BAD_OPERAND_CALLS)
def test_bad_operand_names_the_expected_type(call, expected, got):
    with pytest.raises(ValidationError, match=rf"^expected an? {expected}, got {got}$"):
        call()


@settings(max_examples=60)
@given(triple=bba_triples(min_size=2, max_size=10))
def test_metric_axioms(triple):
    a, b, c = triple
    measures = [
        DistanceMeasure.parse("jousselme"),
        DistanceMeasure.parse("red"),
        DistanceMeasure.parse("betp:all"),
    ]
    for measure in measures:
        d_ab = measure.evaluate(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(measure.evaluate(b, a), abs=1e-12)
        assert measure.evaluate(a, a) <= 1e-12
        d_ac = measure.evaluate(a, c)
        d_bc = measure.evaluate(b, c)
        assert d_ac <= d_ab + d_bc + 1e-9
