"""Pignistic probability transformation and betting-commitment distances.

The pignistic transformation turns a BBA into a probability distribution
for decision making by splitting each focal mass evenly over the set's
members. The betting commitment of a subset is its probability under that
distribution; ``dif_betp`` measures how far apart two BBAs can bet.
``_pignistic_against`` here scores both ``dif_betp`` and
``distance.red_distance``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum

from .core import (
    MASS_SUM_TOLERANCE,
    Bba,
    FocalSet,
    Frame,
    _check_same_frame,
    _Frozen,
    _iterate,
    _left_sum,
    _not_a,
)
from .errors import FrameMismatchError, ValidationError


class BetPMode(Enum):
    """Scope of the maximization in the betting-commitment distance.

    ALL_SUBSETS ranges over every subset of the frame (the default),
    SINGLETONS over single grades only, FOCAL_SETS over the focal sets of
    either compared BBA. The restricted modes exist so reports can state
    exactly which scope produced a number; they are not interchangeable.
    """

    ALL_SUBSETS = "all"
    SINGLETONS = "singleton"
    FOCAL_SETS = "focal"


def _betp_mode(mode: BetPMode | str) -> BetPMode:
    try:
        return BetPMode(mode)
    except ValueError:
        raise ValidationError(
            f"unknown betp mode {mode!r} (use all, singleton, or focal)"
        ) from None


# ppt's rounding can take a distribution's sum a little further from one
# than the sum of the BBA it came from.
_PPT_SUM_TOLERANCE = MASS_SUM_TOLERANCE + 1e-12


class PignisticDistribution(_Frozen):
    """Probability over a frame's grades, indexed by 1-based position.

    This is ``ppt``'s result. It is a distribution because the BBA it
    came from is one, so it is not checked when built; ``to_bba`` checks
    what it converts.
    """

    _fields = ("frame", "probabilities")

    def __init__(self, frame: Frame, probabilities: tuple[float, ...]):
        d = self.__dict__
        d["frame"] = frame
        d["probabilities"] = probabilities

    def to_bba(self) -> Bba:
        """The BBA carrying this distribution on singleton focal sets.

        There must be one probability per grade, and each must be finite.
        The positive probabilities become the masses. Their sum must be 1
        within MASS_SUM_TOLERANCE plus a margin for ``ppt``'s rounding, so
        ``ppt`` of a valid BBA always converts, and a hand-built
        distribution that does not sum to one is rejected. The rest must
        be zeros: a negative probability is rejected even where the
        positive ones sum to one.
        """
        frame = self.frame
        if not isinstance(frame, Frame):
            raise _not_a(Frame, frame)
        probabilities = tuple(_iterate(self.probabilities))
        if len(probabilities) != frame.size:
            raise ValidationError(
                f"distribution has {len(probabilities)} probabilities "
                f"for a frame of {frame.size} grades"
            )
        for label, p in zip(frame.labels, probabilities):
            try:
                finite = math.isfinite(p)
            except TypeError:
                raise _not_a(float, p) from None
            if not finite:
                raise ValidationError(
                    f"probability of grade {label!r} must be finite, got {p!r}"
                )
        masses = {1 << i: p for i, p in enumerate(probabilities) if p > 0.0}
        bba = Bba._from_bits(frame, masses, tolerance=_PPT_SUM_TOLERANCE)
        for label, p in zip(frame.labels, probabilities):
            if p < 0.0:
                raise ValidationError(
                    f"probability of grade {label!r} must be nonnegative, got {p!r}"
                )
        return bba


def ppt(bba: Bba) -> PignisticDistribution:
    """Pignistic probability transformation.

    Every focal mass is split evenly across the set's members; a grade's
    probability is the sum of its shares. Mass on the empty set is ruled
    out at construction, so no renormalization is needed here.
    """
    if not isinstance(bba, Bba):
        raise _not_a(Bba, bba)
    return PignisticDistribution(bba.frame, tuple(_probabilities(bba)))


def _probabilities(bba: Bba) -> list[float]:
    """``ppt(bba).probabilities`` as a list; ``bba`` must be a Bba."""
    probabilities = [0.0] * bba.frame.size
    for bits, mass in bba._by_bits.items():
        share = mass / bits.bit_count()
        while bits:  # the set bits, lowest position first
            low = bits & -bits
            probabilities[low.bit_length() - 1] += share
            bits ^= low
    return probabilities


def betp_of_subset(distribution: PignisticDistribution, subset: FocalSet) -> float:
    """Betting commitment of a subset: the sum of its members' probabilities."""
    if not isinstance(distribution, PignisticDistribution):
        raise _not_a(PignisticDistribution, distribution)
    if not isinstance(subset, FocalSet):
        raise _not_a(FocalSet, subset)
    if subset.frame != distribution.frame:
        raise FrameMismatchError("subset belongs to a different frame")
    return _left_sum(distribution.probabilities[i - 1] for i in subset.members)


def dif_betp(m1: Bba, m2: Bba, mode: BetPMode | str = BetPMode.ALL_SUBSETS) -> float:
    """Largest betting-commitment gap between two BBAs, in [0, 1].

    In ALL_SUBSETS mode the gap is maximized over every subset of the
    frame without enumerating them: for two probability vectors the
    maximum equals the sum of the positive coordinates of their
    difference (their total variation). The other modes scan only the
    stated subsets. ``mode`` may also be given as its value string.
    """
    return _pignistic_against(m1, _betp_mode(mode))(m2)


def _pignistic_against(reference: Bba, mode: BetPMode | None) -> Callable[[Bba], float]:
    """``red_distance`` (``mode`` None) or ``dif_betp`` from ``reference``
    as a function of the candidate, with the reference transformed once.
    Sums are added left to right (see core._left_sum), inline for speed."""
    p1 = ppt(reference).probabilities  # first: ppt checks it is a Bba
    if mode is None:
        p1 = p1[:-1]  # the last CDF gap is always 0
    span = len(p1)  # N - 1 for red

    def score(candidate: Bba) -> float:
        _check_same_frame(reference, candidate)
        p2 = _probabilities(candidate)
        if mode is None:
            gap = total = 0.0
            for a, b in zip(p1, p2):
                gap += a - b
                total += gap * gap
            return math.sqrt(total / span) if span else 0.0
        diff = [a - b for a, b in zip(p1, p2)]
        if mode is BetPMode.ALL_SUBSETS:
            total = 0.0
            for d in diff:
                if d > 0.0:
                    total += d
            return total
        if mode is BetPMode.SINGLETONS:
            return max(abs(d) for d in diff)
        largest = 0.0
        for bits in reference._by_bits.keys() | candidate._by_bits.keys():
            total = 0
            while bits:  # the set bits, lowest position first
                low = bits & -bits
                total += diff[low.bit_length() - 1]
                bits ^= low
            total = abs(total)
            if total > largest:
                largest = total
        return largest

    return score
