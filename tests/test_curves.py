from __future__ import annotations

import random

import pytest

from ssrank.bt1 import a_number, p_rank
from ssrank.curves import (
    PoleDivisor,
    doubling_orbits,
    ekedahl_bound,
    hermitian_analyze,
    hyp2_analyze,
    hyp2_module_oracle,
    hyp2_rank0_type,
)
from ssrank.eo import EOType, canonical_module
from ssrank.ffmat import GF2
from ssrank.words import CyclicWord, census_of_type, decompose, superspecial_rank


def test_pole_divisor_validation():
    PoleDivisor.of([3, 9])
    with pytest.raises(ValueError):
        PoleDivisor.of([4])
    with pytest.raises(ValueError):
        PoleDivisor.of([-3])
    with pytest.raises(ValueError):
        PoleDivisor.of([])


def test_rank0_type_pattern():
    assert hyp2_rank0_type(4) == EOType.of([0, 1, 1, 2])
    assert hyp2_rank0_type(1) == EOType.of([0])
    t = hyp2_rank0_type(5)
    assert t == EOType.of([0, 1, 1, 2, 2])
    assert t.a_number() == 3
    for g in range(1, 20):
        assert hyp2_rank0_type(g).a_number() == (g + 1) // 2
    with pytest.raises(ValueError):
        hyp2_rank0_type(0)


def test_single_pole_analysis():
    g = 7
    report = hyp2_analyze(PoleDivisor.of([2 * g + 1]))
    assert report.g == g and report.f == 0
    assert report.s == 1          # 7 = 1 mod 3
    report = hyp2_analyze(PoleDivisor.of([13]))
    assert report.g == 6 and report.s == 0


def test_multi_pole_analysis():
    report = hyp2_analyze(PoleDivisor.of([3, 9]))
    assert report.f == 1
    assert report.c == (1, 4)
    assert report.g == 6
    assert report.s == 2
    assert report.s_bound == 2
    assert report.e_bound == 3
    assert report.summands == ((1,), (0,), (0, 1, 1, 2))


def test_oracle_matches_closed_form_single_pole():
    for g in range(1, 16):
        divisor = PoleDivisor.of([2 * g + 1])
        report = hyp2_analyze(divisor)
        assert report.s == superspecial_rank(hyp2_module_oracle(divisor))
        assert report.s == (1 if g % 3 == 1 else 0)


def test_oracle_module_structure():
    m = hyp2_module_oracle(PoleDivisor.of([3, 9]))
    census = decompose(m)
    assert census.multiplicity(CyclicWord("FV")) == 2
    assert p_rank(m) == 1
    ordinary_only = hyp2_module_oracle(PoleDivisor.of([1, 1, 1]))
    assert superspecial_rank(ordinary_only) == 0
    assert p_rank(ordinary_only) == 2


def test_oracle_random_divisors():
    rng = random.Random(52901)
    for _ in range(25):
        r = rng.randrange(0, 4)
        divisor = PoleDivisor.of([2 * rng.randrange(0, 8) + 1 for _ in range(r + 1)])
        report = hyp2_analyze(divisor)
        assert report.s == superspecial_rank(hyp2_module_oracle(divisor))
        assert report.s <= 1 + report.f
        assert report.g == report.f + sum(report.c)


def test_hermitian_small_cases():
    r = hermitian_analyze(3, 1)
    assert (r.q, r.g, r.a, r.s) == (3, 3, 3, 3)
    assert r.a == r.g  # superspecial
    assert ekedahl_bound(3, r.g)

    r = hermitian_analyze(2, 2)
    assert (r.q, r.g, r.a, r.s, r.e_bound) == (4, 6, 3, 0, 0)
    assert r.a * 2 == r.g

    r = hermitian_analyze(2, 3)
    assert r.orbits == ((1, 2, 4, 5, 7, 8), (3, 6))
    assert r.s == 1
    assert r.points_q2 == 8 ** 3 + 1
    assert r.zeta_numerator_exponent == r.g

    r = hermitian_analyze(5, 2)
    assert r.a * 2 == r.g and r.s == 0

    with pytest.raises(ValueError):
        hermitian_analyze(4, 1)
    with pytest.raises(ValueError):
        hermitian_analyze(3, 0)


def test_doubling_orbits_reject_n_below_one():
    # n = 0 would give Z/2, whose one orbit under doubling is {0, 1}
    for n in (0, -1, -5):
        with pytest.raises(ValueError, match="n must be at least 1"):
            doubling_orbits(n)


def test_orbit_structure_parity():
    for n in range(1, 21):
        orbits = doubling_orbits(n)
        assert sum(len(o) for o in orbits) == 2 ** n
        has_two = any(len(o) == 2 for o in orbits)
        assert has_two == (n % 2 == 1)
        assert has_two == ((2 ** n + 1) % 3 == 0)


def test_hermitian_superspecial_iff_n_is_one():
    for p in (2, 3, 5):
        for n in range(1, 5):
            r = hermitian_analyze(p, n)
            assert (r.a == r.g) == (n == 1)
            assert ekedahl_bound(p, r.g) == (n == 1)


def test_ekedahl_bound():
    assert ekedahl_bound(2, 1) and not ekedahl_bound(2, 2)
    assert not ekedahl_bound(3, 4)
    for p in (2, 3, 5, 7):
        assert ekedahl_bound(p, p * (p - 1) // 2)
        assert not ekedahl_bound(p, p * (p - 1) // 2 + 1)


def test_rank0_census_matches_a_number():
    # decomposition of the rank-0 hyperelliptic type agrees with its a-number
    for g in range(1, 12):
        t = hyp2_rank0_type(g)
        m = canonical_module(t, GF2)
        assert a_number(m) == (g + 1) // 2
        census = census_of_type(t)
        assert census.multiplicity(CyclicWord("FV")) == (1 if g % 3 == 1 else 0)
