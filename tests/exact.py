"""The one exact test oracle: each measure as its source defines it, in
rational arithmetic. A BBA here is a dict ``{bits: Fraction}``, bit i - 1
set for grade i as in ``Bba._by_bits``, and ``size`` is the frame's grade
count N; ``masses`` converts a Bba's stored floats exactly. Nothing here
takes the library's shortcuts, so each value is what the library's floats
approximate. A new measure adds its definition here.
"""

import math
from fractions import Fraction


def masses(bba) -> dict[int, Fraction]:
    """A Bba's focal masses, each stored float converted exactly."""
    return {bits: Fraction(mass) for bits, mass in bba._by_bits.items()}


def _positions(bits: int) -> list[int]:
    """The 0-based grade positions in a set."""
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def pignistic(m: dict, size: int) -> list[Fraction]:
    """BetP(i): each focal mass split evenly over its set's members."""
    probabilities = [Fraction(0)] * size
    for bits, mass in m.items():
        share = mass / bits.bit_count()
        for i in _positions(bits):
            probabilities[i] += share
    return probabilities


def _difference(m1: dict, m2: dict, size: int) -> list[Fraction]:
    return [a - b for a, b in zip(pignistic(m1, size), pignistic(m2, size))]


def red_radicand(m1: dict, m2: dict, size: int) -> Fraction:
    """1/2 d^T S d on the pignistic difference d, with the grade-closeness
    matrix S_ij = 1 - |i - j| / (N - 1), the identity for N = 1; d need
    not sum to 0. It is summed in integers: with d = n / q over a common
    denominator q and S = W / span, it is 1/2 n^T W n / (span q^2)."""
    d = _difference(m1, m2, size)
    span = max(size - 1, 1)
    q = math.lcm(*(x.denominator for x in d))
    n = [x.numerator * (q // x.denominator) for x in d]
    weighted = sum(n[i] * n[j] * (span - abs(i - j)) for i in range(size) for j in range(size))
    return Fraction(weighted, 2 * span * q * q)


def jousselme_radicand(m1: dict, m2: dict) -> Fraction:
    """1/2 d^T D d on the mass difference d, with the Jaccard weights
    D_AB = |A n B| / |A u B|, over the focal sets of either BBA: every
    other subset has d = 0, so this is the form over the whole powerset."""
    focal = sorted(m1.keys() | m2.keys())
    d = [m1.get(a, 0) - m2.get(a, 0) for a in focal]
    return sum(
        x * y * Fraction((a & b).bit_count(), (a | b).bit_count())
        for x, a in zip(d, focal)
        for y, b in zip(d, focal)
    ) / 2


def dif_betp(m1: dict, m2: dict, size: int, mode: str) -> Fraction:
    """The largest |BetP1(A) - BetP2(A)| over the subsets A of ``mode``, a
    ``BetPMode`` value: every subset ("all"), where the largest is the set
    of the positive or of the negative coordinates of d = BetP1 - BetP2,
    the singletons ("singleton") or either BBA's focal sets ("focal")."""
    d = _difference(m1, m2, size)
    if mode == "all":
        return max(sum(x for x in d if x > 0), -sum(x for x in d if x < 0))
    if mode == "singleton":
        return max(abs(x) for x in d)
    if mode == "focal":
        return max(abs(sum(d[i] for i in _positions(a))) for a in m1.keys() | m2.keys())
    raise ValueError(f"unknown mode {mode!r}")


def measure(text: str, m1: dict, m2: dict, size: int) -> Fraction:
    """A measure by its CLI name: the radicand, whose root is the distance,
    for ``red`` and ``jousselme``, and the distance for ``betp:<mode>``."""
    if text == "red":
        return red_radicand(m1, m2, size)
    if text == "jousselme":
        return jousselme_radicand(m1, m2)
    return dif_betp(m1, m2, size, text.partition(":")[2])


def combine(m1: dict, m2: dict) -> tuple[dict[int, Fraction] | None, Fraction]:
    """Dempster's rule and its conflict k, the sum of m1(B) m2(C) over the
    disjoint pairs: every other product goes to B n C, divided by 1 - k.
    The combination is None when k is 1, for then it does not exist."""
    joint: dict[int, Fraction] = {}
    k = Fraction(0)
    for b, x in m1.items():
        for c, y in m2.items():
            if b & c:
                joint[b & c] = joint.get(b & c, 0) + x * y
            else:
                k += x * y
    return (None if k == 1 else {a: mass / (1 - k) for a, mass in joint.items()}), k
