"""Evidence distance measures.

Three measures between BBAs on a shared frame:

* ``jousselme_distance`` weights mass differences by Jaccard similarity of
  the focal sets, so partially overlapping sets count as partially equal.
* ``dif_betp`` (in :mod:`evidist.pignistic`) compares betting commitments.
* ``red_distance`` is the ranking evidence distance: the only one of the
  three that sees the frame's grade order. Both BBAs pass through the
  pignistic transformation and the resulting probability difference d is
  measured in the quadratic form of the grade-closeness correlation matrix
  S (``correlation_matrix``), so disagreement between neighbouring grades
  costs less than disagreement between distant ones. Because d sums to
  zero, 1/2 d^T S d equals sum_{k<N} C_k^2 / (N - 1) with C the running
  sum of d: the distance is the normalised L2 gap between the two pignistic
  CDFs, a discrete Cramer-von Mises statistic, computed in O(N) without
  the matrix.

All three are symmetric, nonnegative and zero on equal inputs; the two
quadratic-form measures also satisfy the triangle inequality. The ranking
measure is a pseudo-metric on BBAs: it is zero exactly when the two
pignistic distributions coincide.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache, partial

from .core import Bba, FocalSet, _check_same_frame, _Frozen, _left_sum
from .errors import FrameMismatchError, NumericalError, ValidationError
from .pignistic import BetPMode, _betp_against, _betp_mode, ppt

# Quadratic forms of positive semidefinite matrices are nonnegative;
# anything below this is a fault, anything above but negative is rounding.
RADICAND_TOLERANCE = 1e-12


def jaccard_similarity(a: FocalSet, b: FocalSet) -> float:
    """|A n B| / |A u B|: 1 on identical sets, 0 on disjoint ones."""
    if a.frame != b.frame:
        raise FrameMismatchError("focal sets belong to different frames")
    return (a.bits & b.bits).bit_count() / (a.bits | b.bits).bit_count()


def _sqrt_half_radicand(radicand: float) -> float:
    """sqrt(radicand / 2) for a quadratic form d^T W d of a PSD matrix W."""
    if radicand < -RADICAND_TOLERANCE:
        raise NumericalError(
            f"quadratic form produced {radicand!r}; expected a nonnegative value"
        )
    return math.sqrt(0.5 * radicand) if radicand > 0.0 else 0.0


def jousselme_distance(m1: Bba, m2: Bba) -> float:
    """Jaccard-weighted quadratic-form distance between two BBAs, in [0, 1].

    Evaluated over the union of the two BBAs' focal sets rather than the
    full powerset basis: absent sets carry zero mass and cannot contribute
    to the form, so the result is identical and large frames stay cheap.
    The symmetric form d^T W d is summed over its lower triangle as
    sum_i d_i (d_i + 2 sum_{j<i} d_j W_ij).
    """
    _check_same_frame(m1, m2)
    masses1, masses2 = m1._by_bits, m2._by_bits
    radicand = 0.0
    seen: list[tuple[int, float]] = []
    # The joint focal list, in one canonical order whichever BBA comes first.
    for bits in sorted(masses1.keys() | masses2.keys()):
        d = masses1.get(bits, 0.0) - masses2.get(bits, 0.0)
        cross = 0.0
        for other, d_other in seen:
            cross += d_other * (bits & other).bit_count() / (bits | other).bit_count()
        radicand += d * (d + 2.0 * cross)
        seen.append((bits, d))
    return _sqrt_half_radicand(radicand)


@lru_cache(maxsize=None)
def correlation_matrix(size: int) -> tuple[tuple[float, ...], ...]:
    """Grade-closeness matrix S with entries 1 - |i - j| / (N - 1).

    Symmetric, Toeplitz, unit diagonal, linearly decaying to 0 at the
    maximal grade distance, and positive semidefinite. For a single-grade
    frame the 1x1 identity. Returned as a tuple of row tuples, cached per
    size; being immutable, one fully built instance is shared by every
    caller, and an array library's ``asarray`` converts it as it stands.
    This is the definition ``red_distance`` evaluates in closed form.
    """
    if size < 1:
        raise ValidationError("frame size must be at least 1")
    span = max(size - 1, 1)
    return tuple(
        tuple(1.0 - abs(i - j) / span for j in range(size)) for i in range(size)
    )


def red_distance(m1: Bba, m2: Bba) -> float:
    """Ranking evidence distance, in [0, 1].

    Both BBAs are pignistically transformed first, always; on singleton
    vectors the Jaccard weighting collapses to the identity and the grade
    order enters solely through the correlation matrix S. With d the
    pignistic difference and C_k = d_1 + ... + d_k the gap between the two
    pignistic CDFs at grade k, sqrt(1/2 d^T S d) equals
    sqrt(sum_{k<N} C_k^2 / (N - 1)), which is how it is computed. For
    categorical BBAs on grades i and j this reduces to
    sqrt(|i - j| / (N - 1)), which is what makes the measure strictly
    order-monotone where the other two measures saturate.
    """
    return _red_against(m1)(m2)


def _red_against(reference: Bba) -> Callable[[Bba], float]:
    """``red_distance(reference, candidate)`` as a function of the
    candidate, with the reference transformed once."""
    size = reference.frame.size
    p1 = ppt(reference).probabilities[:-1]

    def score(candidate: Bba) -> float:
        _check_same_frame(reference, candidate)
        if size == 1:
            return 0.0
        # Added left to right (see core._left_sum), inline for speed.
        gap = total = 0.0
        for a, b in zip(p1, ppt(candidate).probabilities):  # p1 is one shorter
            gap += a - b
            total += gap * gap
        return math.sqrt(total / (size - 1))

    return score


def red_reduces_to_jousselme(m1: Bba, m2: Bba) -> tuple[float, float]:
    """Diagnostic pair for the no-order degenerate case.

    Returns (the ranking distance recomputed with the identity in place of
    the correlation matrix, the Jousselme distance between the two
    pignistic singleton BBAs). Without a closeness structure the ranking
    measure degenerates to Jousselme on pignistic masses, so the two
    components must agree to rounding.
    """
    _check_same_frame(m1, m2)
    p1, p2 = ppt(m1), ppt(m2)
    squares = _left_sum((a - b) ** 2 for a, b in zip(p1.probabilities, p2.probabilities))
    with_identity = math.sqrt(0.5 * squares)
    on_pignistic = jousselme_distance(p1.to_bba(), p2.to_bba())
    return with_identity, on_pignistic


_MEASURE_KINDS = ("jousselme", "betp", "red")


class DistanceMeasure(_Frozen):
    """A selectable BBA distance: jousselme, betp (with a scan mode), or red."""

    _fields = ("kind", "mode")

    def __init__(self, kind: str, mode: BetPMode | str | None = None):
        if kind not in _MEASURE_KINDS:
            raise ValidationError(
                f"unknown measure {kind!r} (use one of {', '.join(_MEASURE_KINDS)})"
            )
        if kind == "betp":
            mode = BetPMode.ALL_SUBSETS if mode is None else _betp_mode(mode)
        elif mode is not None:
            raise ValidationError(f"measure {kind!r} does not take a mode")
        d = self.__dict__
        d["kind"] = kind
        d["mode"] = mode

    @classmethod
    def parse(cls, text: str) -> "DistanceMeasure":
        """Parse a measure name: red, jousselme, or betp[:all|singleton|focal]."""
        name, separator, mode_text = text.partition(":")
        if separator and name != "betp":
            raise ValidationError(f"measure {name!r} does not take a mode")
        return cls(name, mode_text if separator else None)

    @property
    def label(self) -> str:
        if self.kind == "betp":
            return f"betp:{self.mode.value}"
        return self.kind

    def against(self, reference: Bba) -> Callable[[Bba], float]:
        """The distance from ``reference`` as a function of one candidate.

        Work that depends on the reference alone, such as its pignistic
        transform, is done here once rather than once per candidate.
        """
        if not isinstance(reference, Bba):
            raise ValidationError(f"the reference is not a Bba, got {type(reference).__name__}")
        if self.kind == "jousselme":
            return partial(jousselme_distance, reference)
        if self.kind == "red":
            return _red_against(reference)
        return _betp_against(reference, self.mode)

    def evaluate(self, m1: Bba, m2: Bba) -> float:
        return self.against(m1)(m2)
