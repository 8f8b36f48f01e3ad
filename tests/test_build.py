from __future__ import annotations

import itertools

import pytest

from ssrank.bt1 import (
    a_number,
    check_polarization,
    direct_sum,
    p_rank,
    to_json,
    unpolarized_ss_rank,
    validate_bt1,
    zero_module,
)
from ssrank.build import (
    InfeasibleProfileError,
    ProfileQuery,
    feasible,
    h_rs,
    i11,
    j_rs,
    ord1,
    realize,
    supersingular_profile,
)
from ssrank.eo import EOType, canonical_module, enumerate_types, eo_type_of
from ssrank.ffmat import Matrix, PrimeField
from ssrank.words import census_invariants, census_of_type, decompose, superspecial_rank


def test_i11_matrices(gf2, gf3):
    m = i11(gf2)
    assert m.frobenius == Matrix.build(gf2, [[0, 0], [1, 0]])
    assert m.verschiebung == m.frobenius
    assert m.form == Matrix.build(gf2, [[0, 1], [1, 0]])
    m3 = i11(gf3)
    assert m3.frobenius.transpose().entries[0] == (0, 1)
    assert m3.verschiebung.transpose().entries[0] == (0, 2)  # Vx = -Fx
    assert check_polarization(m3)


def test_ord1_matrices(gf2):
    m = ord1(gf2)
    assert m.frobenius == Matrix.build(gf2, [[1, 0], [0, 0]])
    assert m.verschiebung == Matrix.build(gf2, [[0, 0], [0, 1]])
    assert p_rank(m) == 1 and a_number(m) == 0


def test_j_rs_fixtures(gf2, gf3):
    assert j_rs(1, 1, gf2) == i11(gf2).with_form(None)
    assert j_rs(1, 1, gf3) == i11(gf3).with_form(None)
    j33 = j_rs(3, 3, gf2)
    assert a_number(j33) == 1
    assert eo_type_of(j33) == EOType.of([0, 1, 2])
    assert unpolarized_ss_rank(j_rs(2, 2, gf2)) == 1
    for r, s in itertools.product(range(1, 5), repeat=2):
        assert validate_bt1(j_rs(r, s, gf3)) == []
    with pytest.raises(ValueError):
        j_rs(0, 1, gf2)


def test_m11_embedding(gf2, gf3):
    # y = F^(r-1) x + V^(s-1) x has Fy = -Vy != 0, so j_rs(r, s) holds an FV block once r, s > 1
    def witness(r, s, field):
        return Matrix.build(field, [[int(i in (r - 1, r + s - 1))] for i in range(r + s)], 1)

    assert witness(2, 2, gf2).transpose().entries == ((0, 1, 0, 1),)       # Fx + Vx
    assert witness(3, 2, gf2).transpose().entries == ((0, 0, 1, 0, 1),)    # F^2 x + Vx
    assert not (j_rs(2, 2, gf2).frobenius @ witness(2, 2, gf2)).is_zero()
    for r, s in itertools.product(range(2, 5), repeat=2):
        module, y = j_rs(r, s, gf3), witness(r, s, gf3)
        fy, vy = module.frobenius @ y, module.verschiebung @ y
        assert not fy.is_zero() and vy == fy.neg(), (r, s)


def test_h_rs_fixtures(gf2, gf3):
    assert superspecial_rank(h_rs(2, 3, gf2)) == 0
    h11 = h_rs(1, 1, gf2)
    assert superspecial_rank(h11) == 1 and check_polarization(h11)
    h22 = h_rs(2, 2, gf2)
    assert unpolarized_ss_rank(h22) == 1 and superspecial_rank(h22) == 0
    for r, s in [(2, 3), (3, 2), (2, 2), (4, 2)]:
        h = h_rs(r, s, gf3)
        assert check_polarization(h)
        assert validate_bt1(h) == []
    for field in (gf3, PrimeField(97)):
        for r in range(1, 7):
            assert check_polarization(h_rs(r, r, field))


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_constructed_forms_are_polarizations(p):
    # the constructions do not check their own forms; this does
    field = PrimeField(p)
    assert check_polarization(i11(field)) and check_polarization(ord1(field))
    for r, s in itertools.product(range(1, 6), repeat=2):
        assert check_polarization(h_rs(r, s, field)), (r, s)


def test_feasible_examples():
    assert feasible(ProfileQuery(4, 1, 2, 1))
    assert feasible(ProfileQuery(4, 1, 3, 3))
    assert not feasible(ProfileQuery(4, 1, 3, 2))
    assert feasible(ProfileQuery(4, 4, 0, 0))
    assert not feasible(ProfileQuery(4, 3, 0, 0))      # a = 0 needs f = g
    assert feasible(ProfileQuery(4, 3, 1, 1))
    assert not feasible(ProfileQuery(4, 3, 1, 0))      # a = g - f forces s = a
    assert not feasible(ProfileQuery(4, 0, 2, 2))      # s = a < g - f never occurs
    assert feasible(ProfileQuery(0, 0, 0, 0))
    assert not feasible(ProfileQuery(3, 4, 0, 0))
    assert not feasible(ProfileQuery(3, -1, 1, 0))


def test_realize_examples(gf2):
    m = realize(ProfileQuery(4, 1, 2, 1), gf2)
    assert (p_rank(m), a_number(m), superspecial_rank(m)) == (1, 2, 1)
    assert check_polarization(m)
    assert decompose(m).as_dict() == {"F": 1, "V": 1, "FV": 1, "FFVV": 1}

    m = realize(ProfileQuery(3, 0, 3, 3), gf2)
    assert decompose(m).as_dict() == {"FV": 3}

    m = realize(ProfileQuery(5, 0, 2, 0), gf2)
    assert decompose(m).as_dict() == {"FFFFV": 1, "FVVVV": 1}
    assert (a_number(m), superspecial_rank(m)) == (2, 0)
    assert m.form is not None and check_polarization(m)

    m = realize(ProfileQuery(5, 0, 3, 0), gf2)
    assert decompose(m).as_dict() == {"FFFVFVVVFV": 1}
    assert m.form is not None and check_polarization(m)

    with pytest.raises(InfeasibleProfileError):
        realize(ProfileQuery(4, 1, 3, 2), gf2)


def test_realize_all_feasible_small(gf2):
    for g in range(0, 6):
        for f in range(g + 1):
            for a in range(g - f + 1):
                for s in range(a + 1):
                    q = ProfileQuery(g, f, a, s)
                    if not feasible(q):
                        continue
                    m = realize(q, gf2)
                    assert (p_rank(m), a_number(m), superspecial_rank(m)) == (f, a, s)
                    assert check_polarization(m)
                    eo_type_of(m)  # raises unless the module is quasipolarizable


def test_realize_nu_formula_for_every_h_below_40(gf2):
    # the type realize appends off the boundary a = g - f: length h, a-number a1, no FV word
    def nu_of(h, a1):
        c = h - a1
        return EOType.of(list(range(c - 1)) + [c - 1] * ((a1 + 1) // 2) + [c] * ((a1 + 2) // 2))

    for h in range(2, 40):
        for a1 in range(1, h):
            bundle = census_invariants(census_of_type(nu_of(h, a1)))
            assert (bundle.g, bundle.f, bundle.a, bundle.s) == (h, 0, a1, 0), (h, a1)
    # and that is the type realize builds: f = s = 0 leaves it the only part
    for h in range(2, 6):
        for a1 in range(1, h):
            assert decompose(realize(ProfileQuery(h, 0, a1, 0), gf2)) == census_of_type(nu_of(h, a1))


def test_realize_odd_characteristic(gf3):
    m = realize(ProfileQuery(4, 1, 2, 1), gf3)
    assert (p_rank(m), a_number(m), superspecial_rank(m)) == (1, 2, 1)
    assert check_polarization(m)


def test_infeasible_tuples_not_attained_small(gf2):
    # every (f, a, s) attained by some EO type of length g must be feasible
    for g in range(0, 6):
        attained = set()
        for t in enumerate_types(g):
            census = census_of_type(t)
            from ssrank.words import census_invariants

            b = census_invariants(census)
            attained.add((b.f, b.a, b.s))
        for f, a, s in attained:
            assert feasible(ProfileQuery(g, f, a, s)), (g, f, a, s)


def test_supersingular_profile(gf2):
    for g in range(1, 7):
        m = supersingular_profile(g, g, gf2)
        assert decompose(m).as_dict() == {"FV": g}
    m = supersingular_profile(3, 1, gf2)
    assert decompose(m).as_dict() == {"FV": 1, "FFVV": 1}
    assert a_number(m) == 2
    with pytest.raises(InfeasibleProfileError):
        supersingular_profile(4, 3, gf2)
    with pytest.raises(InfeasibleProfileError):
        supersingular_profile(3, 4, gf2)
    with pytest.raises(InfeasibleProfileError):
        supersingular_profile(1, 0, gf2)
    # a-number is s + 1 away from the superspecial corner
    for g in range(2, 7):
        for s in range(0, g - 1):
            assert a_number(supersingular_profile(g, s, gf2)) == s + 1
    # byte for byte: s supersingular blocks, then for s < g the canonical module of
    # nu = (0, 1, ..., g - s - 1)
    for p in (2, 3, 97):
        field = PrimeField(p)
        for g in range(13):
            for s in [*range(g - 1), g]:
                tail = [canonical_module(EOType.of(range(g - s)), field)] if s < g else []
                expected = direct_sum(zero_module(field), *[i11(field)] * s, *tail)
                assert to_json(supersingular_profile(g, s, field)) == to_json(expected), (p, g, s)


def test_supersingular_profile_odd_characteristic(gf3):
    m = supersingular_profile(4, 2, gf3)
    assert superspecial_rank(m) == 2
    assert validate_bt1(m) == []


def test_dimension_three_supersingular_catalogue(gf2):
    # all three a-number cases in dimension 3
    by_a = {a_number(supersingular_profile(3, s, gf2)): s for s in (0, 1, 3)}
    assert by_a == {1: 0, 2: 1, 3: 3}
    assert superspecial_rank(j_rs(3, 3, gf2)) == 0
