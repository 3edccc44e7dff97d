"""Shared test helpers: deterministic random frames, BBAs, and float oracles;
the exact one is ``exact``."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import assume
from hypothesis import strategies as st

import exact
from evidist.core import Bba, FocalSet, Frame, build_bba, build_frame
from evidist.errors import ValidationError


def brute_force_max_gap(diff) -> float:
    """Max |sum over A of diff| over all non-empty subsets, by enumeration.

    Each coordinate extends every sum so far, so a subset's sum adds its
    members in ascending order."""
    sums = [0.0]
    for d in diff:
        sums += [s + d for s in sums]
    return max(abs(s) for s in sums)


@lru_cache(maxsize=None)
def make_frame(size: int) -> Frame:
    return build_frame([f"g{i}" for i in range(1, size + 1)])


def random_bba(
    rng: random.Random,
    frame: Frame,
    max_focal: int = 6,
    include_full: bool = False,
) -> Bba:
    """A valid BBA with random focal sets and integer-weight masses.

    ``include_full`` guarantees mass on the whole frame, which keeps any
    pair of such BBAs combinable (conflict strictly below 1).
    """
    space = (1 << frame.size) - 1
    count = rng.randint(1, max_focal)
    bits = {rng.randint(1, space) for _ in range(count)}
    if include_full:
        bits.add(space)
    weights = {b: rng.randint(1, 100) for b in bits}
    total = sum(weights.values())
    return build_bba(
        frame, [(FocalSet(frame, b), w / total) for b, w in weights.items()]
    )


def random_bba_pair(rng, size, **kwargs):
    frame = make_frame(size)
    return random_bba(rng, frame, **kwargs), random_bba(rng, frame, **kwargs)


@st.composite
def bbas_on(draw, frame: Frame, max_focal: int = 6, include_full: bool = False, sets=None):
    """A BBA with integer-weight masses on focal sets drawn from ``sets``,
    a strategy of bitmasks; by default, any non-empty bitmask."""
    space = (1 << frame.size) - 1
    drawn = draw(
        st.lists(
            st.tuples(st.integers(1, space) if sets is None else sets, st.integers(1, 100)),
            min_size=1,
            max_size=max_focal,
        )
    )
    weights: dict[int, int] = {}
    for bits, weight in drawn:
        weights[bits] = weights.get(bits, 0) + weight
    if include_full:
        weights[space] = weights.get(space, 0) + draw(st.integers(1, 100))
    total = sum(weights.values())
    return build_bba(
        frame, [(FocalSet(frame, b), w / total) for b, w in weights.items()]
    )


@st.composite
def bba_pairs(draw, min_size=2, max_size=8, include_full=False):
    """Two BBAs on one shared frame."""
    frame = make_frame(draw(st.integers(min_size, max_size)))
    return (
        draw(bbas_on(frame, include_full=include_full)),
        draw(bbas_on(frame, include_full=include_full)),
    )


@st.composite
def interval_bbas(draw, count=2, min_size=1, max_size=64):
    """``count`` BBAs on one shared frame whose focal sets are runs of
    consecutive grades: singletons, ``lo..hi`` runs, the whole frame and
    runs that end at the last grade (bit 63 when N is 64). The frame is
    often the largest allowed. ``bbas_on`` draws random bitmasks, which on
    a large frame are almost never runs."""
    size = draw(st.one_of(st.just(max_size), st.integers(min_size, max_size)))
    full = (1 << size) - 1
    position = st.integers(0, size - 1)
    run = st.one_of(
        position.map(lambda i: 1 << i),
        st.tuples(position, position).map(lambda ends: (2 << max(ends)) - (1 << min(ends))),
        st.just(full),
        position.map(lambda lo: full ^ ((1 << lo) - 1)),
    )
    frame = make_frame(size)
    return tuple(draw(bbas_on(frame, sets=run)) for _ in range(count))


@st.composite
def bba_triples(draw, min_size=2, max_size=8, include_full=False):
    frame = make_frame(draw(st.integers(min_size, max_size)))
    return tuple(
        draw(bbas_on(frame, include_full=include_full)) for _ in range(3)
    )


# "m" passes the mass-sum check, but splitting its masses over the members
# rounds the pignistic sum to 1.000000001, just past the tolerance.
EDGE_SUM_DOCUMENT = """\
{"frame": ["A", "B", "C", "D", "E", "F", "G"],
 "bbas": {"m": [{"set": ["A", "B", "C", "D", "E", "F"], "mass": 0.06},
                {"set": ["A", "B", "C", "E", "F", "G"], "mass": 0.17},
                {"set": ["A", "B", "E", "G"], "mass": 0.770000001}],
          "r": [{"set": ["D"], "mass": 1.0}]}}
"""


@st.composite
def bbas_off_unit_sum(draw, frame: Frame, max_focal: int = 6):
    """A BBA whose masses are scaled to sum to 1 + offset with |offset| at
    most the mass-sum tolerance, often at its edge; drawn again when
    rounding takes the sum past what build_bba accepts."""
    space = (1 << frame.size) - 1
    bits = draw(st.lists(st.integers(1, space), min_size=1, max_size=max_focal, unique=True))
    weights = [draw(st.integers(1, 100)) for _ in bits]
    offset = draw(
        st.one_of(
            st.sampled_from((-1e-9, -0.99e-9, 0.99e-9, 1e-9)),
            st.floats(-0.99e-9, 0.99e-9),
        )
    )
    scale = (1.0 + offset) / sum(weights)
    try:
        return build_bba(frame, [(FocalSet(frame, b), w * scale) for b, w in zip(bits, weights)])
    except ValidationError:
        assume(False)


def ppt_by_members(bba: Bba) -> tuple[float, ...]:
    """The pignistic transform written over ``FocalSet.members``: each
    focal mass divided by the set's size and added to its members in
    ascending order."""
    probabilities = [0.0] * bba.frame.size
    for focal_set, mass in bba.entries:
        share = mass / len(focal_set)
        for position in focal_set.members:
            probabilities[position - 1] += share
    return tuple(probabilities)


SWEEP_FRAME_SIZE = 20


def sweep_pair_spec(case: int) -> tuple[dict, dict]:
    """The two sweep sources of one case as exact masses on frozensets.

    Built from the sweep's specification, not through evidist: the first
    source holds 1/20 on {2,3,4} and on {7}, 4/5 on the growing set
    {1..case} and 1/10 on the whole frame, the entries naming the same set
    merging (at case 20); the second source is certain of {1..5}.
    """
    whole = frozenset(range(1, SWEEP_FRAME_SIZE + 1))
    m1: dict[frozenset, Fraction] = {}
    for focal, mass in (
        (frozenset({2, 3, 4}), Fraction(1, 20)),
        (frozenset({7}), Fraction(1, 20)),
        (frozenset(range(1, case + 1)), Fraction(4, 5)),
        (whole, Fraction(1, 10)),
    ):
        m1[focal] = m1.get(focal, Fraction(0)) + mass
    return m1, {frozenset(range(1, 6)): Fraction(1)}


@lru_cache(maxsize=None)
def sweep_oracle(case: int) -> dict[str, Fraction]:
    """Exact sweep cells of one case, from the ``exact`` oracle:
    ``jousselme`` and ``red`` are the radicands of the two quadratic-form
    measures, and ``betp_focal`` is the measure's value itself."""
    m1, m2 = (
        {sum(1 << (i - 1) for i in focal): mass for focal, mass in spec.items()}
        for spec in sweep_pair_spec(case)
    )
    return {
        "jousselme": exact.jousselme_radicand(m1, m2),
        "red": exact.red_radicand(m1, m2, SWEEP_FRAME_SIZE),
        "betp_focal": exact.dif_betp(m1, m2, SWEEP_FRAME_SIZE, "focal"),
    }
