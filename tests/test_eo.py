from __future__ import annotations

import itertools
import random

import pytest

from ssrank import eo, ffmat
from ssrank.bt1 import Bt1ValidationError, DieudonneModule, a_number, check_polarization, direct_sum, \
    p_rank, require_valid, validate_bt1, dual
from ssrank.build import j_rs, ord1
from ssrank.eo import (
    EOType,
    FiltrationError,
    _final_profile,
    canonical_module,
    enumerate_types,
    eo_type_of,
    riffle,
    validate_sequence,
)
from ssrank.ffmat import Matrix, PrimeField
from ssrank.words import CyclicWord, decompose, word_module

from helpers import all_cyclic_words, conjugated, primitive_root, reference_eo_type_of, reference_final_profile


def test_validate_sequence():
    assert validate_sequence([])
    assert validate_sequence([0]) and validate_sequence([1])
    assert not validate_sequence([2])
    assert not validate_sequence([0, 2])
    assert not validate_sequence([1, 0])
    assert validate_sequence([0, 1, 1, 2])
    with pytest.raises(ValueError):
        EOType.of([0, 2])


def test_enumerate_counts_and_order():
    assert [t.nu for t in enumerate_types(1)] == [(0,), (1,)]
    assert [t.nu for t in enumerate_types(0)] == [()]
    for g in range(13):
        types = list(enumerate_types(g))
        assert len(types) == 2 ** g
        assert all(a.nu < b.nu for a, b in zip(types, types[1:]))
        for t in types:
            assert validate_sequence(t.nu)
            public = EOType.of(t.nu)
            assert t == public and hash(t) == hash(public)


def test_invariant_formulas():
    g = 6
    assert EOType.of(range(g)).p_rank() == 0
    assert EOType.of(range(g)).a_number() == 1
    assert EOType.of(range(1, g + 1)).p_rank() == g
    assert EOType.of(range(1, g + 1)).a_number() == 0
    t = EOType.of([0, 1, 1, 2])
    assert t.p_rank() == 0 and t.a_number() == 2


def final_type(t: EOType) -> list[int]:
    """psi(0..2g): psi(0) = 0, psi(i) = nu_i for i <= g, psi(2g - i) = psi(i) + g - i."""
    psi = [0, *t.nu]
    return psi + [psi[t.g - k] + k for k in range(1, t.g + 1)]


def test_final_type_examples():
    assert final_type(EOType.of([0, 1])) == [0, 0, 1, 1, 2]
    assert final_type(EOType.of([1])) == [0, 1, 1]
    assert final_type(EOType.of([0, 0])) == [0, 0, 0, 1, 2]
    assert riffle(EOType.of([0, 1])) == ([1, 3], [0, 2])
    assert riffle(EOType.of([1])) == ([0], [1])
    assert riffle(EOType.of([0, 0])) == ([2, 3], [0, 1])
    assert riffle(EOType.of([])) == ([], [])


def test_riffle_matches_the_validated_final_type():
    for g in range(10):
        for t in enumerate_types(g):
            psi = final_type(t)
            steps = range(2 * g)
            assert psi[0] == 0 and psi[2 * g] == g
            assert all(psi[i + 1] - psi[i] in (0, 1) for i in steps)
            assert all(psi[2 * g - i] == psi[i] + g - i for i in range(2 * g + 1))
            rises, flats = riffle(t)
            assert rises == [i for i in steps if psi[i + 1] > psi[i]]
            assert flats == [i for i in steps if psi[i + 1] == psi[i]]
            assert [psi[i + 1] for i in rises] == list(range(1, g + 1))


def test_p_rank_is_the_largest_fixed_index():
    for g in range(13):
        for t in enumerate_types(g):
            assert t.p_rank() == max((i for i, v in enumerate(t.nu, start=1) if v == i), default=0)


def test_canonical_module_smallest_types(gf2):
    ss = canonical_module(EOType.of([0]), gf2)
    assert decompose(ss).as_dict() == {"FV": 1}
    assert check_polarization(ss)
    ordinary = canonical_module(EOType.of([1]), gf2)
    assert decompose(ordinary).as_dict() == {"F": 1, "V": 1}
    assert p_rank(ordinary) == 1

    m = canonical_module(EOType.of([0, 1]), gf2)
    assert decompose(m).as_dict() == {"FFVV": 1}
    # single generator with F^2 x = V^2 x (signs coincide mod 2)
    f, v = m.frobenius, m.verschiebung
    assert (f @ f).transpose().entries[3] == (v @ v).transpose().entries[3] != (0, 0, 0, 0)

    two_part = canonical_module(EOType.of([0, 0, 1]), gf2)
    assert decompose(two_part).as_dict() == {"FV": 1, "FFVV": 1}
    assert p_rank(two_part) == 0 and a_number(two_part) == 2


def test_canonical_module_is_valid_and_polarized(gf2):
    # canonical_module does not check its output; this does, for every type with g <= 6
    for field in (gf2, PrimeField(3), PrimeField(5), PrimeField(97)):
        for g in range(0, 7):
            for t in enumerate_types(g):
                m = canonical_module(t, field)
                assert validate_bt1(m) == []
                assert check_polarization(m)
                assert eo_type_of(m) == t


def test_round_trip_small(gf2):
    for g in range(0, 5):
        for t in enumerate_types(g):
            m = canonical_module(t, gf2)
            assert eo_type_of(m) == t
            assert t.p_rank() == p_rank(m)
            assert t.a_number() == a_number(m)


def test_round_trip_sampled_large(gf2):
    rng = random.Random(5813)
    for g in (8, 10):
        for _ in range(12):
            nu = []
            for i in range(g):
                prev = nu[-1] if nu else 0
                nu.append(prev + rng.randrange(2) if nu else rng.randrange(2))
            t = EOType.of(nu)
            assert eo_type_of(canonical_module(t, gf2)) == t


def test_eo_type_of_fixtures(gf2):
    assert eo_type_of(j_rs(3, 3, gf2)) == EOType.of([0, 1, 2])
    assert eo_type_of(ord1(gf2)) == EOType.of([1])


def test_three_way_invariant_agreement_sampled(gf2):
    # nu formulas, module ranks, and census invariants must coincide
    from ssrank.words import census_invariants, census_of_type

    rng = random.Random(271828)
    for _ in range(30):
        g = rng.randrange(1, 10)
        nu = []
        for _ in range(g):
            prev = nu[-1] if nu else 0
            nu.append(prev + rng.randrange(2) if nu else rng.randrange(2))
        t = EOType.of(nu)
        m = canonical_module(t, gf2)
        bundle = census_invariants(census_of_type(t))
        assert t.p_rank() == p_rank(m) == bundle.f
        assert t.a_number() == a_number(m) == bundle.a


def test_duality_fixes_types(gf2):
    for g in range(1, 5):
        for t in enumerate_types(g):
            m = canonical_module(t, gf2)
            assert eo_type_of(dual(m)) == t


def test_eo_type_of_rejects_unclassifiable(gf2):
    with pytest.raises(FiltrationError):
        eo_type_of(j_rs(2, 3, gf2))  # odd dimension
    with pytest.raises(FiltrationError):
        eo_type_of(j_rs(1, 3, gf2))  # even dimension but V-rank 3 != g


def test_zero_length_type(gf2):
    t = EOType.of([])
    m = canonical_module(t, gf2)
    assert m.dim == 0
    assert eo_type_of(m) == t


def _random_type(rng, g):
    nu = []
    for _ in range(g):
        nu.append(nu[-1] + rng.randrange(2) if nu else rng.randrange(2))
    return EOType.of(nu)


def test_eo_type_of_matches_the_reference_closure():
    rng = random.Random(9091)
    cases = [(p, g) for p in (2, 3, 5) for g in range(6)] + [(97, g) for g in range(5)]
    for p, g in cases:
        field = PrimeField(p)
        for _ in range(3):
            t = _random_type(rng, g)
            m = conjugated(canonical_module(t, field), rng)
            assert eo_type_of(m) == reference_eo_type_of(m) == t
        parts = [canonical_module(_random_type(rng, rng.randrange(1, 4)), field) for _ in range(2)]
        total = conjugated(direct_sum(*parts), rng)
        assert eo_type_of(total) == reference_eo_type_of(total)


def test_twisted_fv_keeps_type_zero():
    # F e0 = e1 and V e0 = lam e1 is valid BT1 for every lam, but forms exist only for
    # lam = -1; the filtration cannot see the twist (an open gap, pinned here)
    for p in (3, 5):
        field = PrimeField(p)
        for lam in range(1, p):
            m = DieudonneModule(Matrix.build(field, [[0, 0], [1, 0]]),
                                Matrix.build(field, [[0, 0], [lam, 0]]))
            assert eo_type_of(m) == reference_eo_type_of(m) == EOType.of([0])


def test_eo_type_of_checks_parity_before_the_filtration(monkeypatch):
    def built(m):
        raise AssertionError("the filtration was built")

    monkeypatch.setattr(eo, "_final_profile", built)
    for p in (2, 3):
        field = PrimeField(p)
        etale = DieudonneModule(Matrix.build(field, [[1]]), Matrix.build(field, [[0]]))
        with pytest.raises(FiltrationError) as caught:
            eo_type_of(etale)
        assert str(caught.value) == "module dimension is odd; no EO type"
        # validation comes first: an odd module that is not BT1 is rejected as such
        with pytest.raises(Bt1ValidationError):
            eo_type_of(DieudonneModule(Matrix.build(field, [[1]]), Matrix.build(field, [[1]])))


def test_filtration_errors_match_the_reference():
    for p in (2, 3):
        field = PrimeField(p)
        cases = [
            (word_module(CyclicWord.of("FFV"), field), "module dimension is odd; no EO type"),
            (word_module(CyclicWord.of("FF"), field),
             "V has rank different from g; module is not self-balanced"),
            (direct_sum(word_module(CyclicWord.of("FFV"), field),
                        word_module(CyclicWord.of("V"), field)),
             "final profile is not symmetric; module is not quasipolarizable"),
        ]
        for m, message in cases:
            for recover in (eo_type_of, reference_eo_type_of):
                with pytest.raises(FiltrationError) as caught:
                    recover(m)
                assert str(caught.value) == message


def _member_dims(t: EOType) -> set[int]:
    """The dimensions of the canonical filtration of a type's module, read off psi alone:
    {0, 2g} closed under d -> psi(d), the dim of V(N), and d -> g + d - psi(d), the dim of
    F^{-1}(N) = ker F + sigma(N meet ker V)."""
    psi, g = final_type(t), t.g
    dims, todo = set(), [0, 2 * g]
    while todo:
        d = todo.pop()
        if d not in dims:
            dims.add(d)
            todo += (psi[d], g + d - psi[d])
    return dims


def test_eo_type_of_makes_one_reduction_per_filtration_member(monkeypatch):
    # one elimination of F for the module, then one of (V b | b) per member: ker F's is
    # made once and every other upper member resumes from it
    calls, echelon = [], ffmat._echelon

    def counting(*args):
        calls.append(args)
        return echelon(*args)

    monkeypatch.setattr(ffmat, "_echelon", counting)
    for p in (2, 3, 97):
        field, rng = PrimeField(p), random.Random(5150 + p)
        for g in range(1, 7):
            for t in enumerate_types(g):
                m = conjugated(canonical_module(t, field), rng)
                require_valid(m)
                calls.clear()
                assert eo_type_of(m) == t
                assert len(calls) == len(_member_dims(t)) + 1, (p, t)
                # rows fed: F's 2g, then each member N <= ker F its own, and each member
                # above ker F (dim g) only sigma's images of K, dim N - g of them
                fed = 2 * g + sum(d if d <= g else d - g for d in _member_dims(t))
                assert sum(len(args[1]) for args in calls) == fed, (p, t)


_EDGE_WORDS = ("F", "V", "FV", "FFV", "FVV", "FFVV", "FFVFVV")


def _outcome(recover, m):
    """The type recovered from m, or the message of the FiltrationError raised."""
    try:
        return recover(m)
    except FiltrationError as exc:
        return str(exc)


def test_eo_type_of_matches_the_reference_on_sums_of_words():
    # F = 0 on the word V and V = 0 on the word F; on a sum of V's, M lies in ker F and
    # meets ker V = im F in 0, so the top member itself has K = 0
    outcomes = set()
    for p in (2, 3, 5, 97):
        field, rng = PrimeField(p), random.Random(6310 + p)
        empty = Matrix.zeros(field, 0, 0)
        sums = [[], ["V"], ["FFV"], ["V", "V"], ["F", "F"], ["F", "V"], ["FV", "V"], ["FV", "F"]]
        drawn = (rng.choices(_EDGE_WORDS, k=rng.randrange(1, 4)) for _ in range(50))
        sums += [letters for letters in drawn if sum(map(len, letters)) % 2 == 0]
        for letters in sums:
            parts = [word_module(CyclicWord.of(w), field) for w in letters]
            m = conjugated(direct_sum(*parts), rng) if parts else DieudonneModule(empty, empty)
            assert _final_profile(m) == reference_final_profile(m), (p, letters)
            got = _outcome(eo_type_of, m)
            assert got == _outcome(reference_eo_type_of, m), (p, letters)
            outcomes.add(got if isinstance(got, str) else "a type")
    assert outcomes == {"a type", "module dimension is odd; no EO type",
                        "V has rank different from g; module is not self-balanced",
                        "final profile is not symmetric; module is not quasipolarizable"}


def _omega_pieces(letters: tuple[str, ...]) -> list[set[int]]:
    """The graded pieces of the canonical filtration of a sum of words, on nodes alone.

    Node z reads its letter reads[z], then its successor's, and so on: V(N) is the nodes
    that read V with successor in N, and F^{-1}(N) those that read V or have successor in N."""
    reads, succ = [], []
    for w in letters:
        start = len(reads)
        reads += w
        succ += [start + (i + 1) % len(w) for i in range(len(w))]
    nodes = range(len(reads))
    members, todo = set(), [frozenset(), frozenset(nodes)]
    while todo:
        member = todo.pop()
        if member not in members:
            members.add(member)
            todo.append(frozenset(z for z in nodes if reads[z] == "V" and succ[z] in member))
            todo.append(frozenset(z for z in nodes if reads[z] == "V" or succ[z] in member))
    chain = sorted(members, key=len)
    assert all(lo < hi for lo, hi in zip(chain, chain[1:])), letters
    return [set(hi - lo) for lo, hi in zip(chain, chain[1:])]


def test_graded_pieces_of_word_sums_are_omega_classes():
    # the premise of _final_profile's interpolation: each graded piece is the set of
    # nodes that read one infinite word (its primitive period, from the node on), and
    # they share the letter that enters them, so V kills all of the piece or none of it
    base = [w.letters for length in range(1, 10) for w in all_cyclic_words(length)]
    sums = [letters for k in (1, 2, 3) for letters in itertools.combinations_with_replacement(base, k)
            if sum(map(len, letters)) <= 9]
    assert len(sums) == 1478
    for letters in sums:
        omega, entering = [], []
        for w in letters:
            omega += (primitive_root(w[i:] + w[:i])[0] for i in range(len(w)))
            entering += w[-1] + w[:-1]
        pieces = _omega_pieces(letters)
        classes = [{omega[z] for z in piece} for piece in pieces]
        assert all(len(c) == 1 for c in classes), letters
        assert len(set.union(*classes)) == len(pieces), letters  # no class spans two pieces
        assert all(len({entering[z] for z in piece}) == 1 for piece in pieces), letters
