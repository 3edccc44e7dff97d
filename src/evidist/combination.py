"""Dempster's rule of combination and its conflict coefficient."""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce

from .core import MASS_SUM_TOLERANCE, Bba, _check_same_frame, _iterate, _left_sum
from .errors import TotalConflictError, ValidationError

# 1 - k below this margin would divide the combined masses by a denormal.
CONFLICT_TOLERANCE = 1e-12


def _focal_products(m1: Bba, m2: Bba) -> tuple[dict[int, float], float]:
    """Mass products of every focal pair: summed per non-empty intersection
    (keyed by its bits), and the conflict k summed over disjoint pairs."""
    _check_same_frame(m1, m2)
    accumulated: dict[int, float] = {}
    k = 0.0
    # The inner loop runs once per focal set of m1, and a tuple iterates
    # faster than a dict view.
    pairs2 = tuple(m2._by_bits.items())
    for a, mass_a in m1._by_bits.items():
        for b, mass_b in pairs2:
            intersection = a & b
            if intersection:
                accumulated[intersection] = (
                    accumulated.get(intersection, 0.0) + mass_a * mass_b
                )
            else:
                k += mass_a * mass_b
    return accumulated, k


def conflict(m1: Bba, m2: Bba) -> float:
    """Conflict coefficient k: total mass the two sources put on disjoint pairs.

    k is 0 when every focal pair intersects (e.g. against the vacuous BBA)
    and 1 when no focal pair does, in which case combination is undefined.
    """
    return min(_focal_products(m1, m2)[1], 1.0)


def combine_dempster(m1: Bba, m2: Bba) -> Bba:
    """Orthogonal sum of two BBAs.

    Mass products of intersecting focal pairs accumulate on the
    intersection and are renormalized by their total. That total equals
    1 - k but does not lose precision to the cancellation in 1 - k when
    the conflict is high. Raises TotalConflictError when the conflicting
    share k / (k + total) of all products is 1 within CONFLICT_TOLERANCE:
    the orthogonal sum does not exist for fully contradicting sources.
    The share is k itself when both mass sums are exactly one.
    """
    accumulated, k = _focal_products(m1, m2)
    total = _left_sum(accumulated.values())
    if total <= CONFLICT_TOLERANCE * (k + total):
        raise TotalConflictError(
            f"total conflict between sources (k = {k!r}); orthogonal sum undefined"
        )
    # Without conflict the products sum to (sum m1) * (sum m2), which two
    # valid inputs can put up to twice the mass-sum tolerance from one.
    # Within half the tolerance they stay undivided: dividing would only
    # perturb the last bits (and break the exact identity of combining
    # with the vacuous BBA), and Bba re-summing them in another order
    # cannot take them past the tolerance.
    if not k and abs(total - 1.0) <= 0.5 * MASS_SUM_TOLERANCE:
        total = 1.0
    # A share that underflows to zero drops out, as in build_bba.
    masses = {
        bits: share
        for bits, mass in accumulated.items()
        if (share := mass / total) > 0.0
    }
    return Bba._from_bits(m1.frame, masses)


def combine_all(bbas: Iterable[Bba]) -> Bba:
    """Left fold of the binary rule; order does not change the result."""
    bbas = list(_iterate(bbas))
    if not bbas:
        raise ValidationError("need at least one BBA to combine")
    for position, bba in enumerate(bbas, 1):
        if not isinstance(bba, Bba):
            raise ValidationError(
                f"item {position} to combine is not a Bba, got {type(bba).__name__}"
            )
    return reduce(combine_dempster, bbas)
