"""Stdlib-only reference arithmetic and output checks for the benchmark.

Nothing here imports evidist. BBAs are plain lists of ``(bits, mass)``
pairs, where bit ``i`` of ``bits`` stands for frame position ``i + 1``,
so every value the program prints can be recomputed independently:

* ``red`` from the pignistic CDFs, ``sqrt(sum_{k<N} C_k^2 / (N - 1))``;
* ``betp`` from the total variation (``all``), the largest coordinate gap
  (``singleton``) or a scan of both BBAs' focal sets (``focal``);
* Jousselme from the Jaccard-weighted sum over the union of focal sets;
* Dempster folds from pairwise bitmask products, normalised by the sum of
  the intersecting products.

The checkers return an error message, or None when the output agrees.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Printed values carry 4 decimals; in-process values are compared exactly
# up to accumulated rounding.
DISPLAY_TOLERANCE = 5e-5 + 1e-9
VALUE_TOLERANCE = 1e-9

# The program flags candidates tied when their distances differ by at most
# 1e-12. Gaps the oracle puts below SURE_TIE must be tied, gaps above
# SURE_GAP must not be; in between, rounding may decide either way.
SURE_TIE = 1e-13
SURE_GAP = 1e-9


# --- arithmetic -------------------------------------------------------------


def positions(bits: int) -> list[int]:
    """0-based member positions of a bitmask, ascending."""
    out = []
    index = 0
    while bits:
        if bits & 1:
            out.append(index)
        bits >>= 1
        index += 1
    return out


def sort_key(bits: int) -> tuple[int, tuple[int, ...]]:
    """The program's canonical focal-set order: cardinality, then members."""
    return bits.bit_count(), tuple(positions(bits))


def merge(entries) -> list[tuple[int, float]]:
    """Sum masses on equal sets, drop zero masses, sort canonically."""
    merged: dict[int, float] = {}
    for bits, mass in entries:
        merged[bits] = merged.get(bits, 0.0) + mass
    return sorted(
        ((bits, mass) for bits, mass in merged.items() if mass > 0.0),
        key=lambda e: sort_key(e[0]),
    )


def ppt(entries, n: int) -> list[float]:
    probabilities = [0.0] * n
    for bits, mass in entries:
        share = mass / bits.bit_count()
        for index in positions(bits):
            probabilities[index] += share
    return probabilities


def _pignistic_gap(e1, e2, n: int) -> list[float]:
    return [a - b for a, b in zip(ppt(e1, n), ppt(e2, n))]


def red(e1, e2, n: int) -> float:
    if n == 1:
        return 0.0
    cumulative = 0.0
    total = 0.0
    for d in _pignistic_gap(e1, e2, n)[:-1]:
        cumulative += d
        total += cumulative * cumulative
    return math.sqrt(total / (n - 1))


def betp(e1, e2, n: int, scope: str = "all") -> float:
    gap = _pignistic_gap(e1, e2, n)
    if scope == "all":
        return sum(d for d in gap if d > 0.0)
    if scope == "singleton":
        return max(abs(d) for d in gap)
    scanned = {bits for bits, _ in e1} | {bits for bits, _ in e2}
    return max(abs(sum(gap[i] for i in positions(bits))) for bits in scanned)


def jousselme(e1, e2) -> float:
    diff: dict[int, float] = {}
    for bits, mass in e1:
        diff[bits] = diff.get(bits, 0.0) + mass
    for bits, mass in e2:
        diff[bits] = diff.get(bits, 0.0) - mass
    items = list(diff.items())
    total = 0.0
    for a, va in items:
        for b, vb in items:
            total += va * vb * (a & b).bit_count() / (a | b).bit_count()
    return math.sqrt(max(0.5 * total, 0.0))


def distance(kind: str, e1, e2, n: int) -> float:
    """A measure by its CLI spelling: red, jousselme, betp[:scope]."""
    name, _, scope = kind.partition(":")
    if name == "red":
        return red(e1, e2, n)
    if name == "jousselme":
        return jousselme(e1, e2)
    return betp(e1, e2, n, scope or "all")


def measure_label(kind: str) -> str:
    return "betp:all" if kind == "betp" else kind


class FoldStats:
    """Work of a Dempster fold: focal pairs formed and pairs that intersect."""

    def __init__(self):
        self.products = 0
        self.useful = 0


def dempster(e1, e2, stats: FoldStats | None = None):
    """Orthogonal sum, or None under total conflict."""
    accumulated: dict[int, float] = {}
    for a, ma in e1:
        for b, mb in e2:
            common = a & b
            if common:
                accumulated[common] = accumulated.get(common, 0.0) + ma * mb
    if stats is not None:
        stats.products += len(e1) * len(e2)
        stats.useful += sum(1 for a, _ in e1 for b, _ in e2 if a & b)
    norm = sum(accumulated.values())
    if norm <= 0.0:
        return None
    return merge((bits, mass / norm) for bits, mass in accumulated.items())


def fold(sources, stats: FoldStats | None = None):
    """Left fold of ``dempster``; None as soon as a step totally conflicts."""
    fused = merge(sources[0])
    for source in sources[1:]:
        fused = dempster(fused, merge(source), stats)
        if fused is None:
            return None
    return fused


# --- evidence documents -----------------------------------------------------


class Document:
    """A decoded evidence document: frame labels and merged BBA entries."""

    def __init__(self, text: str):
        raw = json.loads(text)
        self.labels = list(raw["frame"])
        self.n = len(self.labels)
        index = {label: i for i, label in enumerate(self.labels)}
        self.bbas: dict[str, list[tuple[int, float]]] = {}
        for name, entries in raw["bbas"].items():
            decoded = []
            for entry in entries:
                bits = 0
                for member in entry["set"]:
                    position = index[member] if isinstance(member, str) else member - 1
                    bits |= 1 << position
                decoded.append((bits, float(entry["mass"])))
            self.bbas[name] = merge(decoded)

    def render(self, bits: int) -> str:
        return "{" + ",".join(self.labels[i] for i in positions(bits)) + "}"


# --- expected CLI rows ------------------------------------------------------


def validate_rows(doc: Document) -> list[dict]:
    return [
        {"bba": name, "focal_sets": len(e), "mass_sum": sum(m for _, m in e)}
        for name, e in doc.bbas.items()
    ]


def ppt_rows(doc: Document, name: str) -> list[dict]:
    return [
        {"element": label, "probability": p}
        for label, p in zip(doc.labels, ppt(doc.bbas[name], doc.n))
    ]


def dist_rows(doc: Document, first: str, second: str, kind: str) -> list[dict]:
    value = distance(kind, doc.bbas[first], doc.bbas[second], doc.n)
    return [
        {"bba_1": first, "bba_2": second, "measure": measure_label(kind), "distance": value}
    ]


def combine_rows(doc: Document, names: list[str]) -> list[dict]:
    fused = fold([doc.bbas[name] for name in names])
    return [{"set": doc.render(bits), "mass": mass} for bits, mass in fused]


# The built-in comparison scenarios of ``repro examples``: five grades,
# sets as 1-based positions.
EXAMPLE_CASES = {
    "singletons": {"m1": [{1}], "m2": [{2}], "m3": [{3}]},
    "disjoint-pairs": {"m1": [{1}], "m2": [{2, 3}], "m3": [{4, 5}]},
    "overlapping-pairs": {"m1": [{1}], "m2": [{1, 2}], "m3": [{1, 3}]},
}
EXAMPLE_PAIRS = (("m1", "m2"), ("m1", "m3"))
EXAMPLE_MEASURES = ("jousselme", "betp:all", "red")


def _bits_of(members) -> int:
    return sum(1 << (m - 1) for m in members)


def repro_example_values() -> list[tuple[str, str, str, str, float]]:
    """(case, bba_1, bba_2, measure, value) in report order."""
    out = []
    for case, bbas in EXAMPLE_CASES.items():
        entries = {name: [(_bits_of(s), 1.0) for s in sets] for name, sets in bbas.items()}
        for kind in EXAMPLE_MEASURES:
            for first, second in EXAMPLE_PAIRS:
                value = distance(kind, entries[first], entries[second], 5)
                out.append((case, first, second, kind, value))
    return out


def sweep_rows() -> list[dict]:
    """The 20-case sweep: a 0.8 mass on {1..case} grows to the whole frame."""
    n = 20
    whole = _bits_of(range(1, n + 1))
    m2 = [(_bits_of(range(1, 6)), 1.0)]
    rows = []
    for case in range(1, n + 1):
        m1 = merge(
            [(_bits_of({2, 3, 4}), 0.05), (_bits_of({7}), 0.05),
             (_bits_of(range(1, case + 1)), 0.8), (whole, 0.1)]
        )
        rows.append(
            {"case": case, "jousselme": jousselme(m1, m2),
             "betp_focal": betp(m1, m2, n, "focal"), "red": red(m1, m2, n)}
        )
    return rows


# --- output parsing and comparison ------------------------------------------


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a CLI output; CSV cells stay strings."""
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _agrees(actual, expected, fmt: str, tolerance: float) -> bool:
    if isinstance(expected, bool):
        return actual is expected if fmt == "json" else actual == ("true" if expected else "false")
    if isinstance(expected, int):
        return actual == expected if fmt == "json" else actual == str(expected)
    if isinstance(expected, float):
        try:
            value = float(actual)
        except (TypeError, ValueError):
            return False
        return math.isfinite(value) and abs(value - expected) <= tolerance
    return actual == expected


def compare_rows(actual: list[dict], expected: list[dict], fmt: str,
                 tolerance: float = DISPLAY_TOLERANCE) -> str | None:
    if len(actual) != len(expected):
        return f"{len(actual)} rows, expected {len(expected)}"
    for number, (got, want) in enumerate(zip(actual, expected), start=1):
        if list(got) != list(want):
            return f"row {number}: fields {list(got)}, expected {list(want)}"
        for field, value in want.items():
            if not _agrees(got[field], value, fmt, tolerance):
                return f"row {number}: {field} = {got[field]!r}, expected {value!r}"
    return None


def check_repro_examples(actual: list[dict], fmt: str) -> str | None:
    """Computed values against the oracle; match flags against the row's own
    recorded value (the recorded values are data, not arithmetic)."""
    values = repro_example_values()
    if len(actual) != len(values):
        return f"{len(actual)} rows, expected {len(values)}"
    for number, (row, (case, first, second, kind, value)) in enumerate(
        zip(actual, values), start=1
    ):
        want = {"case": case, "bba_1": first, "bba_2": second, "measure": kind, "computed": value}
        for field, wanted in want.items():
            if not _agrees(row.get(field), wanted, fmt, DISPLAY_TOLERANCE):
                return f"row {number}: {field} = {row.get(field)!r}, expected {wanted!r}"
        recorded = float(row["expected"])
        match = abs(round(value, 4) - recorded) <= 5e-4 + 1e-12
        if not _agrees(row["match"], match, fmt, 0.0):
            return f"row {number}: match = {row['match']!r}, expected {match!r}"
    return None


def check_ranking(rows, distances: dict[str, float], order: dict[str, int],
                  tolerance: float = DISPLAY_TOLERANCE) -> str | None:
    """Check ranked rows ``(name, distance, rank, tied)`` against oracle
    distances and the candidates' input order.

    Rows must hold every candidate once, ranked 1..K in ascending oracle
    distance; candidates the oracle sees as equal keep input order and are
    flagged tied; clearly separated ones are not tied.
    """
    if len(rows) != len(distances):
        return f"{len(rows)} ranked rows, expected {len(distances)}"
    seen = set()
    values = []
    for number, (name, shown, rank, tied) in enumerate(rows, start=1):
        if name not in distances or name in seen:
            return f"row {number}: unexpected or repeated candidate {name!r}"
        seen.add(name)
        if rank != number:
            return f"row {number}: rank {rank}, expected {number}"
        value = distances[name]
        if not (math.isfinite(shown) and abs(shown - value) <= tolerance):
            return f"row {number}: {name} distance {shown!r}, oracle {value!r}"
        values.append(value)
    for i in range(len(rows) - 1):
        gap = values[i + 1] - values[i]
        if gap < -SURE_GAP:
            return f"rows {i + 1}-{i + 2}: distances out of order"
        if abs(gap) <= SURE_TIE and order[rows[i][0]] > order[rows[i + 1][0]]:
            return f"rows {i + 1}-{i + 2}: equal distances out of input order"
    for i, (name, _, _, tied) in enumerate(rows):
        gaps = []
        if i > 0:
            gaps.append(abs(values[i] - values[i - 1]))
        if i + 1 < len(rows):
            gaps.append(abs(values[i + 1] - values[i]))
        if any(g <= SURE_TIE for g in gaps) and not tied:
            return f"row {i + 1}: {name} shares its distance but is not flagged tied"
        if all(g > SURE_GAP for g in gaps) and tied:
            return f"row {i + 1}: {name} is flagged tied but stands alone"
    return None


def ranked_rows(rows: list[dict], fmt: str):
    """``(name, distance, rank, tied)`` tuples from parsed rank output."""
    out = []
    for row in rows:
        tied = row["tied"] if fmt == "json" else row["tied"] == "true"
        out.append((row["bba"], float(row["distance"]), int(row["rank"]), tied))
    return out
