"""Rank candidate BBAs by their distance to a reference BBA."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .core import Bba, _Frozen, _iterate, _not_a
from .distance import DistanceMeasure
from .errors import FrameMismatchError, ValidationError

TIE_TOLERANCE = 1e-12


class RankedCandidate(_Frozen):
    """One ranked candidate: its distance, 1-based rank and tie flag."""

    _fields = ("name", "distance", "rank", "tied")

    def __init__(self, name: str, distance: float, rank: int, tied: bool):
        d = self.__dict__
        d["name"] = name
        d["distance"] = distance
        d["rank"] = rank
        d["tied"] = tied


class RankingResult(_Frozen):
    """Candidates in ascending distance order, ranked 1..K."""

    _fields = ("measure", "reference", "entries")

    def __init__(self, measure: str, reference: str, entries: tuple[RankedCandidate, ...]):
        d = self.__dict__
        d["measure"] = measure
        d["reference"] = reference
        d["entries"] = entries


def rank_by_distance(
    reference: Bba,
    candidates: Mapping[str, Bba] | Sequence[tuple[str, Bba]],
    measure: DistanceMeasure,
    *,
    reference_name: str = "reference",
) -> RankingResult:
    """Score every candidate against the reference and sort ascending.

    Smaller distance ranks higher. Candidates whose distances agree within
    TIE_TOLERANCE keep their input order and are flagged as tied rather
    than silently ordered: a tie means the measure cannot separate them.
    """
    items = list(candidates.items() if isinstance(candidates, Mapping) else _iterate(candidates))
    if not items:
        raise ValidationError("no candidates to rank")
    if not isinstance(measure, DistanceMeasure):
        raise _not_a(DistanceMeasure, measure)
    score = measure.against(reference)  # checks that the reference is a Bba
    frame = reference.frame
    for position, item in enumerate(items, 1):
        try:
            name, bba = item
        except (TypeError, ValueError):
            raise ValidationError(
                f"candidate {position} is not a (name, Bba) pair, got {item!r}"
            ) from None
        if not isinstance(bba, Bba):
            raise ValidationError(f"candidate {name!r} is not a Bba, got {type(bba).__name__}")
        if bba.frame is not frame and bba.frame != frame:
            raise FrameMismatchError(f"candidate {name!r} is defined on a different frame")
    scored = [(score(bba), index, name) for index, (name, bba) in enumerate(items)]
    scored.sort(key=lambda t: (t[0], t[1]))

    # Cluster near-equal distances, restore input order inside each cluster.
    clusters: list[list[tuple[float, int, str]]] = []
    for item in scored:
        if clusters and item[0] - clusters[-1][-1][0] <= TIE_TOLERANCE:
            clusters[-1].append(item)
        else:
            clusters.append([item])
    entries = []
    position = 1
    for cluster in clusters:
        cluster.sort(key=lambda t: t[1])
        tied = len(cluster) > 1
        for distance, _, name in cluster:
            entries.append(RankedCandidate(name, distance, position, tied))
            position += 1
    return RankingResult(measure.label, reference_name, tuple(entries))
