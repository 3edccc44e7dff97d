"""Dempster's rule of combination and its conflict coefficient."""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .core import Bba, FocalSet, build_bba
from .errors import FrameMismatchError, TotalConflictError, ValidationError

# 1 - k below this margin would divide the combined masses by a denormal.
CONFLICT_TOLERANCE = 1e-12


def _check_same_frame(m1: Bba, m2: Bba):
    if m1.frame != m2.frame:
        raise FrameMismatchError("BBAs are defined on different frames")


def conflict(m1: Bba, m2: Bba) -> float:
    """Conflict coefficient k: total mass the two sources put on disjoint pairs.

    k is 0 when every focal pair intersects (e.g. against the vacuous BBA)
    and 1 when no focal pair does, in which case combination is undefined.
    """
    _check_same_frame(m1, m2)
    k = 0.0
    for a, mass_a in m1.entries:
        for b, mass_b in m2.entries:
            if not a.bits & b.bits:
                k += mass_a * mass_b
    return min(k, 1.0)


def combine_dempster(m1: Bba, m2: Bba) -> Bba:
    """Orthogonal sum of two BBAs.

    Mass products of intersecting focal pairs accumulate on the
    intersection and, when any pair conflicts, are renormalized by their
    total. That total equals 1 - k but does not lose precision to the
    cancellation in 1 - k when the conflict is high. Raises TotalConflictError when k is 1 within
    CONFLICT_TOLERANCE: the orthogonal sum does not exist for fully
    contradicting sources.
    """
    _check_same_frame(m1, m2)
    accumulated: dict[int, float] = {}
    k = 0.0
    for a, mass_a in m1.entries:
        for b, mass_b in m2.entries:
            intersection = a.bits & b.bits
            if intersection:
                accumulated[intersection] = (
                    accumulated.get(intersection, 0.0) + mass_a * mass_b
                )
            else:
                k += mass_a * mass_b
    if k >= 1.0 - CONFLICT_TOLERANCE:
        raise TotalConflictError(
            f"total conflict between sources (k = {k!r}); orthogonal sum undefined"
        )
    # Without conflict the products already sum to one; dividing by their
    # rounded total would only perturb the last bits (and break the exact
    # identity of combining with the vacuous BBA).
    norm = sum(accumulated.values()) if k else 1.0
    return build_bba(
        m1.frame,
        [
            (FocalSet(m1.frame, bits), mass / norm)
            for bits, mass in accumulated.items()
        ],
    )


def combine_all(bbas: Iterable[Bba]) -> Bba:
    """Left fold of the binary rule; order does not change the result."""
    bbas = list(bbas)
    if not bbas:
        raise ValidationError("need at least one BBA to combine")
    return reduce(combine_dempster, bbas)
