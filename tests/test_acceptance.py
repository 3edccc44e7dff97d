"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they pass. Criterion 5 checks all 60 computed sweep cells against an
exact-rational oracle (``conftest.sweep_oracle``) to 1e-12, and every
recorded sweep reference value at the unchanged 5e-3 gate except two.
The recorded jousselme values of cases 3 and 16 deviate from the exact
measure by about 7.2e-3 and contradict each other (cases 3 and 8 have the
same exact radicand but different recorded values), so they are checked
as proven errata in ``SWEEP_ERRATA``: each entry must match the oracle's
radicand exactly, the program must match its root, and the recorded value
must still miss that root by more than the gate. The per-column
deviations and one line per erratum are printed for inspection.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    brute_force_max_gap,
    make_frame,
    random_bba,
    sweep_oracle,
    sweep_pair_spec,
)
import exact
from evidist.combination import combine_dempster, conflict
from evidist.core import build_bba, build_frame, mass_of, vacuous_bba
from evidist.distance import DistanceMeasure, red_distance, red_reduces_to_jousselme
from evidist.errors import TotalConflictError, ValidationError
from evidist.pignistic import BetPMode, dif_betp, ppt
from evidist.repro import (
    DISPLAY_TOLERANCE,
    SWEEP_CASES,
    comparison_documents,
    comparison_rows,
    sweep_bbas,
    sweep_rows,
)

GRADES = ("Poor", "Low", "Middle", "High", "Perfect")

REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(number, slug):
    print(f"[acceptance] criterion {number} ({slug}): PASS")


def _grade_categorical(frame, position):
    return build_bba(frame, [({position}, 1.0)])


def test_criterion_01_red_singleton_grades():
    frame = build_frame(GRADES)
    m1 = _grade_categorical(frame, 1)
    m2 = _grade_categorical(frame, 2)
    m3 = _grade_categorical(frame, 3)
    red_distance(m1, m2)  # untimed first call: one-off first-call costs stay out of the window
    start = time.perf_counter()
    d12 = red_distance(m1, m2)
    d13 = red_distance(m1, m3)
    elapsed = time.perf_counter() - start
    assert d12 == pytest.approx(0.5000, abs=5e-4)
    assert d13 == pytest.approx(0.7071, abs=5e-4)
    assert elapsed < 1e-3, f"took {elapsed * 1e6:.0f} us"
    _report(1, "red-singleton-grades")


def test_criterion_02_red_disjoint_pairs():
    frame = build_frame(GRADES)
    m1 = _grade_categorical(frame, 1)
    m2 = build_bba(frame, [({2, 3}, 1.0)])
    m3 = build_bba(frame, [({4, 5}, 1.0)])
    assert red_distance(m1, m2) == pytest.approx(0.5590, abs=5e-4)
    assert red_distance(m1, m3) == pytest.approx(0.9014, abs=5e-4)
    _report(2, "red-disjoint-pairs")


def test_criterion_03_red_overlapping_pairs():
    frame = build_frame(GRADES)
    m1 = _grade_categorical(frame, 1)
    m2 = build_bba(frame, [({1, 2}, 1.0)])
    m3 = build_bba(frame, [({1, 3}, 1.0)])
    assert red_distance(m1, m2) == pytest.approx(0.2500, abs=5e-4)
    assert red_distance(m1, m3) == pytest.approx(0.3536, abs=5e-4)
    _report(3, "red-overlapping-pairs")


def test_criterion_04_comparison_report_flags():
    rows = {(r["case"], r["bba_2"], r["measure"]): r for r in comparison_rows()}

    betp_expected = {
        ("singletons", "m2"): 1.0,
        ("singletons", "m3"): 1.0,
        ("disjoint-pairs", "m2"): 1.0,
        ("disjoint-pairs", "m3"): 1.0,
        ("overlapping-pairs", "m2"): 0.5,
        ("overlapping-pairs", "m3"): 0.5,
    }
    for (case, other), expected in betp_expected.items():
        row = rows[(case, other, "betp:all")]
        assert row["computed"] == pytest.approx(expected, abs=5e-4)
        assert row["match"] is True

    for case in ("singletons", "disjoint-pairs"):
        for other in ("m2", "m3"):
            row = rows[(case, other, "jousselme")]
            assert row["computed"] == pytest.approx(1.0, abs=5e-4)
            assert row["match"] is True

    # The two cells whose recorded reference cannot be reproduced: the
    # measure evaluates to sqrt(0.5) and the report must say so.
    for other in ("m2", "m3"):
        row = rows[("overlapping-pairs", other, "jousselme")]
        assert row["computed"] == pytest.approx(0.7071, abs=5e-4)
        assert row["expected"] == 1.0
        assert row["match"] is False

    for (case, other, measure), row in rows.items():
        if measure == "red":
            assert row["match"] is True

    # Every cell against its exact value; the two unreproducible cells as
    # proven errata, as for criterion 5.
    documents = comparison_documents()
    for (case, other, measure), row in rows.items():
        first, second = (exact.masses(documents[case].bba(name)) for name in ("m1", other))
        value = exact.measure(measure, first, second, len(GRADES))
        assert abs(row["computed"] - _exact_cell(measure, value)) <= SWEEP_ORACLE_TOLERANCE
        if (case, other, measure) in COMPARISON_ERRATA:
            assert value == COMPARISON_ERRATA[(case, other, measure)]
            assert abs(row["expected"] - _exact_cell(measure, value)) > DISPLAY_TOLERANCE
    _report(4, "comparison-report-flags")


# Recorded comparison cells that contradict the measure, keyed by (case,
# bba_2, measure), with the exact radicand of the pair.
COMPARISON_ERRATA = {
    ("overlapping-pairs", "m2", "jousselme"): Fraction(1, 2),
    ("overlapping-pairs", "m3", "jousselme"): Fraction(1, 2),
}


# Recorded reference columns for the sweep benchmark, cases 1..20.
SWEEP_REFERENCE = {
    "jousselme": (
        0.7858, 0.6866, 0.5633, 0.4286, 0.1322, 0.3883, 0.5029, 0.5705,
        0.6187, 0.6553, 0.6844, 0.7081, 0.7274, 0.7444, 0.7592, 0.7658,
        0.7839, 0.7944, 0.8042, 0.8123,
    ),
    "betp_focal": (
        0.605, 0.426, 0.248, 0.125, 0.125, 0.258, 0.355, 0.425,
        0.480, 0.525, 0.560, 0.591, 0.617, 0.639, 0.658, 0.675,
        0.689, 0.702, 0.714, 0.725,
    ),
    "red": (
        0.1871, 0.1340, 0.0882, 0.0555, 0.0597, 0.0969, 0.1349, 0.1682,
        0.1980, 0.2251, 0.2499, 0.2728, 0.2943, 0.3144, 0.3333, 0.3512,
        0.3682, 0.3844, 0.3999, 0.4147,
    ),
}

SWEEP_TOLERANCE = 5e-3

# Computed sweep cells must match the exact-rational oracle to rounding.
SWEEP_ORACLE_TOLERANCE = 1e-12

# Recorded cells that no faithful evaluation can reproduce, keyed by
# (column, case), with the exact radicand 1/2 d^T W d of the sweep pair.
# Case 3 has the same jousselme radicand as case 8, whose recorded 0.5705
# passes the gate, so the recorded 0.5633 for case 3 contradicts it.
SWEEP_ERRATA = {
    ("jousselme", 3): Fraction(651, 2000),
    ("jousselme", 16): Fraction(239, 400),
}


def _exact_cell(column, value):
    """A cell from the oracle's value: a radicand except for betp columns."""
    return float(value) if column.startswith("betp") else math.sqrt(value)


def _assert_single_trough(values, label):
    low = min(values)
    trough = [i for i, v in enumerate(values) if v - low <= 1e-12]
    assert trough == list(range(trough[0], trough[-1] + 1)), (
        f"{label}: minimum plateau is not contiguous"
    )
    for i in range(trough[0]):
        assert values[i] > values[i + 1], f"{label}: not falling into the trough at case {i + 1}"
    for i in range(trough[-1], len(values) - 1):
        assert values[i] < values[i + 1], f"{label}: not rising after the trough at case {i + 1}"


def test_criterion_05_sweep_benchmark():
    start = time.perf_counter()
    rows = sweep_rows()
    elapsed = time.perf_counter() - start
    assert [row["case"] for row in rows] == list(range(1, 21))

    # Oracle and program must measure the same pair of sources.
    for case in SWEEP_CASES:
        for bba, spec in zip(sweep_bbas(case), sweep_pair_spec(case)):
            assert {frozenset(fs.members): mass for fs, mass in bba.entries} == {
                focal: float(mass) for focal, mass in spec.items()
            }, f"sweep case {case}: program and oracle inputs differ"
    for outside in (0, len(SWEEP_CASES) + 1):
        with pytest.raises(ValidationError, match=f"^case must be in 1..20, got {outside}$"):
            sweep_bbas(outside)

    oracle = {case: sweep_oracle(case) for case in SWEEP_CASES}
    assert oracle[3]["jousselme"] == oracle[8]["jousselme"]

    failures = []
    for column, reference in SWEEP_REFERENCE.items():
        computed = [row[column] for row in rows]
        for case, value in enumerate(computed, start=1):
            exact = _exact_cell(column, oracle[case][column])
            assert abs(value - exact) <= SWEEP_ORACLE_TOLERANCE, (
                f"{column} case {case}: computed {value!r} vs exact {exact!r}"
            )
        deviations = [abs(c - r) for c, r in zip(computed, reference)]
        print(f"[acceptance] sweep {column}: max |computed - recorded| = {max(deviations):.2e}")
        for case, deviation in enumerate(deviations, start=1):
            if (column, case) in SWEEP_ERRATA:
                continue
            if deviation > SWEEP_TOLERANCE:
                failures.append(
                    f"{column} case {case}: computed {computed[case - 1]:.4f} vs "
                    f"recorded {reference[case - 1]}, |diff| = {deviation:.2e} > {SWEEP_TOLERANCE}"
                )
        _assert_single_trough(computed, column)

    for (column, case), radicand in SWEEP_ERRATA.items():
        assert oracle[case][column] == radicand, f"{column} case {case}: radicand"
        root = _exact_cell(column, radicand)
        computed = rows[case - 1][column]
        recorded = SWEEP_REFERENCE[column][case - 1]
        print(
            f"[acceptance] sweep erratum {column} case {case}: recorded {recorded}, "
            f"exact sqrt({radicand}) = {root:.6f}, computed {computed:.6f}, "
            f"|recorded - exact| = {abs(recorded - root):.2e}"
        )
        assert abs(computed - root) <= SWEEP_ORACLE_TOLERANCE
        assert abs(recorded - root) > SWEEP_TOLERANCE, (
            f"{column} case {case}: recorded {recorded} is within the gate; "
            "not an erratum"
        )

    assert elapsed < 1.0, f"sweep took {elapsed:.2f} s"
    assert not failures, "sweep cells beyond tolerance:\n" + "\n".join(failures)
    _report(5, "sweep-benchmark")


@pytest.mark.parametrize("case", [True, 1.0], ids=["bool", "float"])
def test_sweep_case_must_be_an_int(case):
    # True == 1 == 1.0, so a membership test alone would take them as case 1.
    with pytest.raises(ValidationError, match=rf"^case must be in 1..20, got {case!r}$"):
        sweep_bbas(case)


def test_criterion_06_singleton_closed_form():
    rng = random.Random(606)
    for _ in range(200):
        size = rng.randint(2, 50)
        i, j = rng.randint(1, size), rng.randint(1, size)
        frame = make_frame(size)
        delta_i = _grade_categorical(frame, i)
        delta_j = _grade_categorical(frame, j)
        expected = math.sqrt(abs(i - j) / (size - 1))
        assert red_distance(delta_i, delta_j) == pytest.approx(expected, abs=1e-12)
    # The criterion-1 values are the five-grade instances of the same form.
    frame = build_frame(GRADES)
    assert red_distance(
        _grade_categorical(frame, 1), _grade_categorical(frame, 2)
    ) == pytest.approx(math.sqrt(1 / 4), abs=1e-12)
    assert red_distance(
        _grade_categorical(frame, 1), _grade_categorical(frame, 3)
    ) == pytest.approx(math.sqrt(2 / 4), abs=1e-12)
    _report(6, "singleton-closed-form")


def test_criterion_07_identity_weight_reduction():
    rng = random.Random(707)
    for _ in range(100):
        size = rng.randint(2, 10)
        frame = make_frame(size)
        m1 = random_bba(rng, frame)
        m2 = random_bba(rng, frame)
        with_identity, on_pignistic = red_reduces_to_jousselme(m1, m2)
        assert with_identity == pytest.approx(on_pignistic, abs=1e-12)
    _report(7, "identity-weight-reduction")


def test_criterion_08_total_variation_identity():
    rng = random.Random(808)
    for _ in range(100):
        size = rng.randint(2, 12)
        frame = make_frame(size)
        m1 = random_bba(rng, frame)
        m2 = random_bba(rng, frame)
        diff = [a - b for a, b in zip(ppt(m1).probabilities, ppt(m2).probabilities)]
        assert dif_betp(m1, m2, BetPMode.ALL_SUBSETS) == pytest.approx(
            brute_force_max_gap(diff), abs=1e-12
        )
    _report(8, "total-variation-identity")


def test_criterion_09_metric_axioms():
    measures = [
        DistanceMeasure.parse("jousselme"),
        DistanceMeasure.parse("red"),
        DistanceMeasure.parse("betp:all"),
    ]
    rng = random.Random(909)
    for _ in range(1000):
        size = rng.randint(2, 20)
        frame = make_frame(size)
        a = random_bba(rng, frame, max_focal=5)
        b = random_bba(rng, frame, max_focal=5)
        c = random_bba(rng, frame, max_focal=5)
        for measure in measures:
            d_ab = measure.evaluate(a, b)
            d_ac = measure.evaluate(a, c)
            d_bc = measure.evaluate(b, c)
            assert d_ab >= 0.0 and d_ac >= 0.0 and d_bc >= 0.0
            assert d_ab == pytest.approx(measure.evaluate(b, a), abs=1e-12)
            assert measure.evaluate(a, a) <= 1e-12
            assert d_ac <= d_ab + d_bc + 1e-9

    frame = build_frame(GRADES)
    whole_pair = build_bba(frame, [({1, 2}, 1.0)])
    split_pair = build_bba(frame, [({1}, 0.5), ({2}, 0.5)])
    assert red_distance(whole_pair, split_pair) == 0.0
    _report(9, "metric-axioms")


def test_criterion_10_combination_oracle():
    frame = build_frame(GRADES)
    m1 = build_bba(frame, [({1}, 0.6), ({1, 2}, 0.4)])
    m2 = build_bba(frame, [({1}, 0.5), ({2}, 0.5)])
    assert conflict(m1, m2) == pytest.approx(0.3, abs=1e-4)
    combined = combine_dempster(m1, m2)
    assert mass_of(combined, frame.subset([1])) == pytest.approx(0.7143, abs=1e-4)
    assert mass_of(combined, frame.subset([2])) == pytest.approx(0.2857, abs=1e-4)

    rng = random.Random(1010)
    for _ in range(500):
        size = rng.randint(2, 10)
        frame = make_frame(size)
        a = random_bba(rng, frame, include_full=True)
        b = random_bba(rng, frame, include_full=True)
        assert combine_dempster(vacuous_bba(frame), a) == a
        left = combine_dempster(a, b)
        right = combine_dempster(b, a)
        assert left.focal_sets == right.focal_sets
        for fs, mass in left.entries:
            assert mass == pytest.approx(mass_of(right, fs), abs=1e-12)

    frame = build_frame(GRADES)
    with pytest.raises(TotalConflictError):
        combine_dempster(_grade_categorical(frame, 1), _grade_categorical(frame, 2))
    _report(10, "combination-oracle")


def test_criterion_11_repro_determinism():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for report in ("examples", "sweep"):
        outputs = []
        for _ in range(2):
            completed = subprocess.run(
                [sys.executable, "-m", "evidist", "repro", report],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1], f"repro {report} output differs between runs"
        assert outputs[0]
    _report(11, "repro-determinism")
