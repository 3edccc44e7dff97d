"""Built-in benchmark cases with recorded reference values.

Two report builders back the CLI's ``repro`` subcommands:

* ``comparison_rows`` recomputes all three measures over three small
  scenarios on the five-grade frame and compares each value against its
  recorded reference. A ``match`` flag surfaces any cell whose
  recomputation disagrees with the reference beyond the display
  tolerance, instead of silently correcting either side.
* ``sweep_rows`` runs the 20-case benchmark on a 20-grade frame in which
  one source's dominant focal set grows from the first grade to the whole
  frame, tabulating all three measures per case. This is the data behind
  the characteristic dip-then-rise curves of the measures.
"""

from __future__ import annotations

from .core import Bba, build_bba, build_frame
from .distance import DistanceMeasure, jousselme_distance, red_distance
from .document import EvidenceDocument
from .errors import ValidationError
from .pignistic import BetPMode, dif_betp

GRADES = ("Poor", "Low", "Middle", "High", "Perfect")

# Comparisons are made on the displayed 4-decimal values.
DISPLAY_TOLERANCE = 5e-4

COMPARISON_CASES = ("singletons", "disjoint-pairs", "overlapping-pairs")
COMPARISON_PAIRS = (("m1", "m2"), ("m1", "m3"))
COMPARISON_MEASURES = ("jousselme", "betp:all", "red")
# Each report's columns, in order, are its rows' keys.
_COMPARISON_FIELDS = ("case", "bba_1", "bba_2", "measure", "computed", "expected", "match")

_CASE_BBAS = {
    "singletons": {
        "m1": [({1}, 1.0)],
        "m2": [({2}, 1.0)],
        "m3": [({3}, 1.0)],
    },
    "disjoint-pairs": {
        "m1": [({1}, 1.0)],
        "m2": [({2, 3}, 1.0)],
        "m3": [({4, 5}, 1.0)],
    },
    "overlapping-pairs": {
        "m1": [({1}, 1.0)],
        "m2": [({1, 2}, 1.0)],
        "m3": [({1, 3}, 1.0)],
    },
}

# Recorded reference values per (case, pair, measure). The two jousselme
# cells of overlapping-pairs are recorded as 1 although direct evaluation
# of the measure gives sqrt(0.5); the report flags them as match=false.
COMPARISON_REFERENCE = {
    ("singletons", ("m1", "m2"), "jousselme"): 1.0,
    ("singletons", ("m1", "m3"), "jousselme"): 1.0,
    ("singletons", ("m1", "m2"), "betp:all"): 1.0,
    ("singletons", ("m1", "m3"), "betp:all"): 1.0,
    ("singletons", ("m1", "m2"), "red"): 0.5,
    ("singletons", ("m1", "m3"), "red"): 0.707,
    ("disjoint-pairs", ("m1", "m2"), "jousselme"): 1.0,
    ("disjoint-pairs", ("m1", "m3"), "jousselme"): 1.0,
    ("disjoint-pairs", ("m1", "m2"), "betp:all"): 1.0,
    ("disjoint-pairs", ("m1", "m3"), "betp:all"): 1.0,
    ("disjoint-pairs", ("m1", "m2"), "red"): 0.559,
    ("disjoint-pairs", ("m1", "m3"), "red"): 0.901,
    ("overlapping-pairs", ("m1", "m2"), "jousselme"): 1.0,
    ("overlapping-pairs", ("m1", "m3"), "jousselme"): 1.0,
    ("overlapping-pairs", ("m1", "m2"), "betp:all"): 0.5,
    ("overlapping-pairs", ("m1", "m3"), "betp:all"): 0.5,
    ("overlapping-pairs", ("m1", "m2"), "red"): 0.25,
    ("overlapping-pairs", ("m1", "m3"), "red"): 0.354,
}


def comparison_documents() -> dict[str, EvidenceDocument]:
    """The three comparison scenarios as parsed documents."""
    frame = build_frame(GRADES)
    documents = {}
    for case in COMPARISON_CASES:
        bbas = {
            name: build_bba(frame, entries)
            for name, entries in _CASE_BBAS[case].items()
        }
        documents[case] = EvidenceDocument(frame, bbas)
    return documents


def comparison_rows() -> list[dict]:
    """One row per (case, pair, measure) cell, with reference and match flag."""
    rows = []
    for case, document in comparison_documents().items():
        for measure in COMPARISON_MEASURES:
            evaluate = DistanceMeasure.parse(measure).evaluate
            for first, second in COMPARISON_PAIRS:
                computed = evaluate(document.bba(first), document.bba(second))
                expected = COMPARISON_REFERENCE[(case, (first, second), measure)]
                match = abs(round(computed, 4) - expected) <= DISPLAY_TOLERANCE + 1e-12
                row = (case, first, second, measure, computed, expected, match)
                rows.append(dict(zip(_COMPARISON_FIELDS, row)))
    return rows


SWEEP_FRAME_SIZE = 20
SWEEP_CASES = tuple(range(1, SWEEP_FRAME_SIZE + 1))
_SWEEP_FIELDS = ("case", "jousselme", "betp_focal", "red")


def sweep_bbas(case: int) -> tuple[Bba, Bba]:
    """The two sweep sources for one case.

    The first source holds fixed masses on {2,3,4}, {7} and the whole
    frame, plus a dominant 0.8 mass on the growing set {1..case}; at
    case 20 that set is the whole frame and the two entries merge. The
    second source is certain of {1..5}.
    """
    if type(case) is not int or case not in SWEEP_CASES:
        raise ValidationError(f"case must be in 1..{SWEEP_FRAME_SIZE}, got {case!r}")
    frame = build_frame(str(i) for i in range(1, SWEEP_FRAME_SIZE + 1))
    growing = set(range(1, case + 1))
    whole = set(range(1, SWEEP_FRAME_SIZE + 1))
    m1 = build_bba(
        frame,
        [({2, 3, 4}, 0.05), ({7}, 0.05), (growing, 0.8), (whole, 0.1)],
    )
    m2 = build_bba(frame, [({1, 2, 3, 4, 5}, 1.0)])
    return m1, m2


def sweep_rows() -> list[dict]:
    """One row per sweep case with all three measures."""
    rows = []
    for case in SWEEP_CASES:
        m1, m2 = sweep_bbas(case)
        betp_focal = dif_betp(m1, m2, BetPMode.FOCAL_SETS)
        row = (case, jousselme_distance(m1, m2), betp_focal, red_distance(m1, m2))
        rows.append(dict(zip(_SWEEP_FIELDS, row)))
    return rows
