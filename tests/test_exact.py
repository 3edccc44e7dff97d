"""The exact oracle against identities worked out by hand."""

import random
from fractions import Fraction

import exact
from conftest import make_frame, random_bba


def categorical(position):
    return {1 << (position - 1): Fraction(1)}


def test_red_radicand_of_categorical_grades():
    # d = e_i - e_j, so 1/2 d^T S d = 1 - S_ij = |i - j| / (N - 1).
    rng = random.Random(61)
    assert exact.red_radicand(categorical(1), categorical(1), 1) == 0
    for size in range(2, 65):
        pairs = [(1, size), (size, 1), (1, 1), (rng.randint(1, size), rng.randint(1, size))]
        for i, j in pairs:
            radicand = exact.red_radicand(categorical(i), categorical(j), size)
            assert radicand == Fraction(abs(i - j), size - 1), (size, i, j)


def test_jousselme_radicand_of_disjoint_singletons():
    for i, j in ((1, 2), (2, 1), (1, 64), (7, 30)):
        assert exact.jousselme_radicand(categorical(i), categorical(j)) == 1


def test_combining_with_the_vacuous_bba_is_the_identity():
    rng = random.Random(41)
    for size in (1, 2, 5, 10):
        frame = make_frame(size)
        vacuous = {(1 << size) - 1: Fraction(1)}
        for _ in range(10):
            m = exact.masses(random_bba(rng, frame))
            assert exact.combine(m, vacuous) == exact.combine(vacuous, m) == (m, 0)


def test_disjoint_categoricals_conflict_totally():
    assert exact.combine(categorical(1), categorical(2)) == (None, 1)
    assert exact.combine(categorical(3), {0b11: Fraction(1)}) == (None, 1)
