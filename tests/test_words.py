from __future__ import annotations

import random

import pytest

from ssrank import words
from ssrank.bt1 import (
    Bt1ValidationError,
    DieudonneModule,
    a_number,
    direct_sum,
    find_polarization,
    p_rank,
    validate_bt1,
)
from ssrank.build import h_rs, i11, j_rs
from ssrank.eo import (
    EOType,
    FiltrationError,
    _final_profile,
    canonical_module,
    enumerate_types,
    eo_type_of,
)
from ssrank.ffmat import GF2, Matrix, PrimeField
from ssrank.words import (
    CyclicWord,
    WordCensus,
    census_invariants,
    census_of_type,
    decompose,
    superspecial_rank,
    word_module,
)

from helpers import (
    all_cyclic_words,
    census_from_counter,
    conjugated,
    primitive_root,
    reference_census_of_type,
    reference_final_profile,
    split_census,
    type_of_census,
)


def test_cyclic_word_canonical_rotation():
    assert CyclicWord.of("VF") == CyclicWord("FV")
    assert CyclicWord.of("VVF").letters == "FVV"
    assert CyclicWord.of("VFFV").letters == "FFVV"
    with pytest.raises(ValueError):
        CyclicWord("VF")  # not canonical; must go through .of
    with pytest.raises(ValueError):
        CyclicWord.of("")
    with pytest.raises(ValueError):
        CyclicWord.of("FX")


def test_least_rotation_matches_brute_force():
    for length in range(1, 15):
        for bits in range(2 ** length):
            s = "".join("V" if (bits >> i) & 1 else "F" for i in range(length))
            w = CyclicWord.of(s)
            assert w.letters == min(s[i:] + s[:i] for i in range(length)), s
            assert w == CyclicWord(w.letters)


def test_trusted_census_matches_public_constructors():
    for g in range(9):
        for t in enumerate_types(g):
            census = census_of_type(t)
            rebuilt = WordCensus(tuple((CyclicWord(w.letters), m) for w, m in census.counts))
            assert census == rebuilt and hash(census) == hash(rebuilt)
            assert all(type(w) is CyclicWord and m > 0 for w, m in census.counts)
            assert census.total_length() == 2 * g


def test_necklace_counts():
    assert [len(all_cyclic_words(n)) for n in range(1, 7)] == [2, 3, 4, 6, 8, 14]


def test_word_module_fixtures(gf2, gf3):
    fv = word_module(CyclicWord("FV"), gf2)
    assert fv.frobenius == Matrix.build(gf2, [[0, 0], [1, 0]])
    assert fv.verschiebung == fv.frobenius
    # odd characteristic: the closing edge carries -1, giving Fx = -Vx
    fv3 = word_module(CyclicWord("FV"), gf3)
    assert fv3.verschiebung == Matrix.build(gf3, [[0, 0], [2, 0]])

    etale = word_module(CyclicWord("F"), gf2)
    assert etale.frobenius == Matrix.identity(gf2, 1)
    assert etale.verschiebung.is_zero()
    toric = word_module(CyclicWord("V"), gf2)
    assert toric.verschiebung == Matrix.identity(gf2, 1)
    assert toric.frobenius.is_zero()

    ffvv = word_module(CyclicWord("FFVV"), gf2)
    assert a_number(ffvv) == 1


def test_word_modules_are_valid_bt1(gf2, gf3):
    for length in range(1, 7):
        for w in all_cyclic_words(length):
            assert validate_bt1(word_module(w, gf2)) == []
            assert validate_bt1(word_module(w, gf3)) == []


def test_word_maps_read_back_the_letters():
    for p in (2, 3, 97):
        field = PrimeField(p)
        for length in range(1, 9):
            for w in all_cyclic_words(length):
                root, k = primitive_root(w.letters)
                assert words._word_census(word_module(w, field)).as_dict() == {root: k}, (p, w)


def test_word_maps_refuse_columns_that_are_not_signed_units():
    field = PrimeField(97)
    frob = Matrix.build(field, [[0, 0], [1, 0]])
    for ver, word_form in (([[0, 0], [96, 0]], True), ([[0, 0], [1, 0]], True),
                           ([[0, 0], [2, 0]], False), ([[0, 0], [95, 0]], False),
                           ([[1, 0], [1, 0]], False), ([[96, 0], [96, 0]], False)):
        census = words._word_census(DieudonneModule(frob, Matrix.build(field, ver)))
        assert (census is not None) == word_form, ver
    # a target hit twice is not word form either
    assert words._word_census(DieudonneModule(Matrix.build(field, [[0, 0], [1, 1]]),
                                              Matrix.zeros(field, 2, 2))) is None


def test_decompose_canonical_examples(gf2):
    assert census_of_type(EOType.of([0, 0, 1])).as_dict() == {"FV": 1, "FFVV": 1}
    assert census_of_type(EOType.of([0, 1, 1])).as_dict() == {"FFV": 1, "FVV": 1}
    g = 4
    ordinary = census_of_type(EOType.of(range(1, g + 1)))
    assert ordinary.as_dict() == {"F": g, "V": g}


def test_decompose_round_trip_words(gf2):
    for length in range(1, 13):
        for w in all_cyclic_words(length):
            root, k = primitive_root(w.letters)
            census = decompose(word_module(w, gf2))
            assert census.as_dict() == {root: k}


def test_decompose_matches_type_census(gf2, gf3):
    # decompose reads the successor maps off the matrices of the word-form canonical
    # module, not through census_of_type; the cycle walk itself is shared, and the
    # catalogue golden SHA-256 tests pin the census bytes on their own
    for field, g_max in ((gf2, 9), (gf3, 6)):
        for g in range(g_max + 1):
            for t in enumerate_types(g):
                assert decompose(canonical_module(t, field)) == census_of_type(t)


def test_decompose_at_p97_g32_on_a_conjugated_canonical_module():
    rng = random.Random(3232)
    nu = [0]
    for _ in range(31):
        nu.append(nu[-1] + rng.randrange(2))
    t = EOType.of(nu)
    m = conjugated(canonical_module(t, PrimeField(97)), rng)
    assert decompose(m) == census_of_type(t)


def _census_of_matrices(frob, ver):
    return words._word_census(DieudonneModule(Matrix.build(GF2, frob), Matrix.build(GF2, ver)))


def test_census_of_maps_checks_the_maps_form_a_permutation():
    # F and V send 0 to 1
    assert _census_of_matrices([[0, 0], [1, 0]], [[0, 0], [1, 0]]).as_dict() == {"FV": 1}
    # F sending both nodes to 0 hits a node twice, so that is not word form at all
    assert _census_of_matrices([[1, 1], [0, 0]], [[0, 0], [0, 0]]) is None


def test_census_of_type_matches_the_node_map_walk():
    for g in range(13):
        for t in enumerate_types(g):
            assert [(w.letters, m) for w, m in census_of_type(t).counts] == reference_census_of_type(t)


def test_type_censuses_list_enumeration_order_with_the_node_map_walk():
    for g in range(13):
        got = [(nu, f, a, [(w.letters, m) for w, m in census.counts])
               for nu, f, a, census in words.type_censuses(g)]
        assert got == [(t.nu, t.p_rank(), t.a_number(), reference_census_of_type(t))
                       for t in enumerate_types(g)], g
    with pytest.raises(ValueError):
        next(words.type_censuses(-1))


def test_census_gives_back_its_type_through_the_extended_bwt():
    for g in range(13):
        for t in enumerate_types(g):
            assert type_of_census(census_of_type(t)) == t


def test_census_entries_stay_bounded_and_count_across_an_emptied_cache(monkeypatch):
    monkeypatch.setattr(words, "_entries", {})
    monkeypatch.setattr(words, "_ENTRY_CAP", 4)
    for g in range(7):
        for t in enumerate_types(g):
            assert [(w.letters, m) for w, m in census_of_type(t).counts] == reference_census_of_type(t)
            assert len(words._entries) <= 4
    field, fv = PrimeField(3), CyclicWord("FV")
    for length in range(1, 7):
        for w in all_cyclic_words(length):
            m = direct_sum(direct_sum(word_module(w, field), word_module(fv, field)),
                           word_module(w, field))
            root, k = primitive_root(w.letters)
            counts = {CyclicWord(root): 2 * k}
            counts[fv] = counts.get(fv, 0) + 1
            assert decompose(m) == census_from_counter(counts), w


def test_asymmetric_census_is_not_quasipolarizable(gf2, gf3):
    for field in (gf2, gf3):
        m = direct_sum(word_module(CyclicWord("FFV"), field), word_module(CyclicWord("V"), field))
        assert validate_bt1(m) == [] and m.g == 2
        assert decompose(m).as_dict() == {"V": 1, "FFV": 1}
        with pytest.raises(FiltrationError, match="final profile is not symmetric"):
            eo_type_of(m)
        change = Matrix.build(field, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        inv = change.inverse()
        conjugate = DieudonneModule(change @ m.frobenius @ inv, change @ m.verschiebung @ inv)
        assert words._word_census(conjugate) is None
        assert decompose(conjugate) == decompose(m)
        with pytest.raises(FiltrationError, match="final profile is not symmetric"):
            eo_type_of(conjugate)
        assert find_polarization(m) is None


def test_decompose_falls_back_to_canonicalization(gf2):
    # conjugating by a change of basis destroys word form but not the census
    m = canonical_module(EOType.of([0, 1]), gf2)
    basis_change = Matrix.build(gf2, [[1, 1, 0, 0],
                                      [0, 1, 0, 1],
                                      [0, 0, 1, 1],
                                      [0, 0, 0, 1]])
    inv = basis_change.inverse()
    twisted = type(m)(basis_change @ m.frobenius @ inv,
                      basis_change @ m.verschiebung @ inv)
    assert validate_bt1(twisted) == []
    assert decompose(twisted).as_dict() == {"FFVV": 1}


def test_decompose_survives_random_conjugation(gf2):
    import random

    rng = random.Random(33173)

    def random_invertible(n):
        while True:
            candidate = Matrix.build(gf2, [[rng.randrange(2) for _ in range(n)]
                                           for _ in range(n)])
            if candidate.rank() == n:
                return candidate

    for g in range(1, 6):
        for t in enumerate_types(g):
            m = canonical_module(t, gf2)
            change = random_invertible(2 * g)
            inv = change.inverse()
            twisted = type(m)(change @ m.frobenius @ inv,
                              change @ m.verschiebung @ inv)
            assert decompose(twisted) == census_of_type(t)


def test_decompose_errors(gf2):
    zero_ops = Matrix.zeros(gf2, 2, 2)
    with pytest.raises(Bt1ValidationError):
        decompose(type(i11(gf2))(zero_ops, zero_ops))
    # valid BT1, not word form (after conjugation) and odd-dimensional: read off its final profile
    m = j_rs(1, 2, gf2)
    basis_change = Matrix.build(gf2, [[1, 1, 0], [0, 1, 0], [0, 1, 1]])
    twisted = type(m)(basis_change @ m.frobenius @ basis_change.inverse(),
                      basis_change @ m.verschiebung @ basis_change.inverse())
    assert validate_bt1(twisted) == [] and words._word_census(twisted) is None
    assert decompose(twisted).as_dict() == {"FVV": 1}


def test_final_profile_matches_the_reference_filtration():
    # quasipolarizable or not, odd dimensions included
    for p in (2, 3, 97):
        field, rng = PrimeField(p), random.Random(7300 + p)
        cyclic = [w.letters for length in range(1, 5) for w in all_cyclic_words(length)]
        for _ in range(40):
            letters = rng.choices(cyclic, k=rng.randrange(1, 4))
            m = conjugated(direct_sum(*(word_module(CyclicWord(w), field) for w in letters)), rng)
            assert _final_profile(m) == reference_final_profile(m), (p, letters)
        for t in enumerate_types(4):
            m = conjugated(canonical_module(t, field), rng)
            psi = [0, *t.nu]
            psi += [psi[t.g - k] + k for k in range(1, t.g + 1)]
            assert _final_profile(m) == reference_final_profile(m) == psi, (p, t)


def test_decompose_reads_the_primitive_split_census_in_every_basis():
    # a power u^k is k copies of u, whichever route reads it
    for p in (2, 3, 97):
        field, rng = PrimeField(p), random.Random(2100 + p)
        cyclic = [w.letters for length in range(1, 9) for w in all_cyclic_words(length)]
        sums = [rng.choices(cyclic, k=rng.randrange(2, 4)) for _ in range(300)]
        for letters in [[w] for w in cyclic] + sums:
            m = direct_sum(*(word_module(CyclicWord(w), field) for w in letters))
            expected = split_census(letters)
            assert decompose(m) == expected, (p, letters)
            assert decompose(conjugated(m, rng)) == expected, (p, letters)


def test_superspecial_rank_fixtures(gf2):
    blocks = i11(gf2)
    for g in range(2, 7):
        tower = blocks
        for _ in range(g - 1):
            tower = direct_sum(tower, i11(gf2))
        assert superspecial_rank(tower) == g
    for g in range(2, 8):
        assert census_of_type(EOType.of(range(g))).multiplicity(CyclicWord("FV")) == 0
    assert superspecial_rank(h_rs(2, 3, gf2)) == 0
    # the rank-0 hyperelliptic pattern at g = 7 contains exactly one FV block
    assert census_of_type(EOType.of([0, 1, 1, 2, 2, 3, 3])).multiplicity(CyclicWord("FV")) == 1


def test_census_invariants_examples():
    c = census_from_counter({CyclicWord("FV"): 3})
    b = census_invariants(c)
    assert (b.f, b.a, b.s, b.g) == (0, 3, 3, 3)

    c = census_from_counter({CyclicWord("F"): 2, CyclicWord("V"): 2, CyclicWord("FFVV"): 1})
    b = census_invariants(c)
    assert (b.f, b.a, b.s, b.g) == (2, 1, 0, 4)

    c = census_from_counter({CyclicWord("FFFVVV"): 1})
    b = census_invariants(c)
    assert (b.f, b.a, b.s) == (0, 1, 0)

    with pytest.raises(ValueError):
        census_invariants(census_from_counter({CyclicWord("F"): 1}))
    with pytest.raises(ValueError):
        census_from_counter({CyclicWord("F"): 1, CyclicWord("V"): -1})
    with pytest.raises(ValueError):
        WordCensus(((CyclicWord("FV"), 1), (CyclicWord("F"), 1)))
    with pytest.raises(ValueError):
        WordCensus(((CyclicWord("FV"), 1), (CyclicWord("FV"), 1)))  # one word listed twice
    # pure cycles weigh by their length (a Frobenius k-cycle is etale of rank p^k)
    c = census_from_counter({CyclicWord("FF"): 1, CyclicWord("V"): 2})
    assert census_invariants(c).f == 2


def test_census_invariants_match_module_invariants(gf2):
    for g in range(1, 6):
        for t in enumerate_types(g):
            census = census_of_type(t)
            bundle = census_invariants(census)
            assert bundle.f == t.p_rank()
            assert bundle.a == t.a_number()
            assert census.total_length() == 2 * g
            m = canonical_module(t, gf2)
            assert bundle.f == p_rank(m)
            assert bundle.a == a_number(m)


def test_full_a_number_forces_supersingular_census(gf2):
    # whenever a = g - f the census must be f etale, f toric and g - f supersingular blocks
    for g in range(1, 7):
        for t in enumerate_types(g):
            f, a = t.p_rank(), t.a_number()
            if a != g - f:
                continue
            expected = {}
            if f:
                expected.update({"F": f, "V": f})
            if g - f:
                expected["FV"] = g - f
            assert census_of_type(t).as_dict() == expected


def test_census_serialization_order():
    census = census_from_counter({CyclicWord("FV"): 1, CyclicWord("FFVV"): 2, CyclicWord("F"): 1})
    assert list(census.as_dict()) == ["F", "FV", "FFVV"]
    assert census.joined() == "F;FV;FFVV;FFVV"
    assert census.total_length() == 11
