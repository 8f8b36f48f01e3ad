from __future__ import annotations

import json
import random
from itertools import accumulate

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
from ssrank.cli import main
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


def test_word_maps_read_any_scalar_and_refuse_columns_with_two_entries():
    # a column with one nonzero entry is read whatever its scalar, so twisted bands are in
    # word form; one with two nonzero entries is not
    field = PrimeField(97)
    frob = Matrix.build(field, [[0, 0], [1, 0]])
    for ver, word_form in (([[0, 0], [96, 0]], True), ([[0, 0], [1, 0]], True),
                           ([[0, 0], [2, 0]], True), ([[0, 0], [95, 0]], True),
                           ([[1, 0], [1, 0]], False), ([[96, 0], [96, 0]], False),
                           ([[2, 0], [95, 0]], False)):
        census = words._word_census(DieudonneModule(frob, Matrix.build(field, ver)))
        assert (census is not None) == word_form, ver
        if word_form:
            assert census.as_dict() == {"FV": 1}, ver
    # a target hit twice breaks ker F = im V, so validity already rules it out
    hit_twice = DieudonneModule(Matrix.build(field, [[0, 0], [1, 1]]), Matrix.zeros(field, 2, 2))
    assert validate_bt1(hit_twice) != []


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
    # F sending both nodes to 0 hits a node twice, which ker F = im V rules out
    assert validate_bt1(DieudonneModule(Matrix.build(GF2, [[1, 1], [0, 0]]), Matrix.zeros(GF2, 2, 2))) != []


def test_census_of_type_matches_the_node_map_walk():
    for g in range(13):
        for t in enumerate_types(g):
            assert [(w.letters, m) for w, m in census_of_type(t).counts] == reference_census_of_type(t)


def test_type_entries_list_enumeration_order_with_the_node_map_walk():
    # each leaf's entries list word u of multiplicity m m times, in census order, and s counts FV
    for g in range(13):
        got = [(nu, f, a, s, [letters for _, letters, _ in entries])
               for nu, f, a, s, entries in words._type_entries(g)]
        want = []
        for t in enumerate_types(g):
            census = reference_census_of_type(t)
            want.append((";".join(map(str, t.nu)), t.p_rank(), t.a_number(), dict(census).get("FV", 0),
                         [w for w, m in census for _ in range(m)]))
        assert got == want, g
    with pytest.raises(ValueError):
        next(words._type_entries(-1))


def test_filtered_walks_match_the_unfiltered_list_filtered_afterwards():
    # the walk filters its last step's two leaves by equality; values from -1 to g + 1 reach
    # every bound it prunes on, from either side, and each joint filter keeps some rows
    for g in range(8, 13):
        rows = list(words._type_entries(g))
        invariants = [{"f": f, "a": a, "s": s} for _, f, a, s, _ in rows]
        filters = [{key: v} for key in "fas" for v in range(-1, g + 2)]
        joint = [{"f": 1, "a": g // 2}, {"a": g // 2, "s": g // 4}, {"f": 0, "a": g - 2, "s": g - 3}]
        for wanted in filters + joint:
            kept = [row for row, values in zip(rows, invariants)
                    if all(values[k] == v for k, v in wanted.items())]
            assert kept or wanted not in joint, (g, wanted)
            assert list(words._type_entries(g, **wanted)) == kept, (g, wanted)


def test_census_gives_back_its_type_through_the_extended_bwt():
    for g in range(13):
        for t in enumerate_types(g):
            assert type_of_census(census_of_type(t)) == t


def test_census_entries_stay_bounded_and_count_across_an_emptied_cache(monkeypatch, capsys):
    monkeypatch.setattr(words, "_entries", {})
    monkeypatch.setattr(words, "_ENTRY_CAP", 4)
    field, fv = PrimeField(3), CyclicWord("FV")
    for g in range(7):
        for t in enumerate_types(g):
            assert [(w.letters, m) for w, m in census_of_type(t).counts] == reference_census_of_type(t)
            assert len(words._entries) <= 4
    # the walk's last step makes three _entry calls per pair of leaves
    for g in range(8):
        for t, (nu, *_, entries) in zip(enumerate_types(g), words._type_entries(g), strict=True):
            assert nu == ";".join(map(str, t.nu))
            assert [(w.letters, m) for w, m in words._tally(entries).counts] == reference_census_of_type(t)
            assert len(words._entries) <= 4
    # catalogue rows are read off the walk's sorted entries, where the emptied cache leaves
    # equal entries that are distinct objects: they must still sort together and count as one word
    distinct_equals = 0
    for g in range(9):
        for *_, entries in words._type_entries(g):
            distinct_equals += sum(x == y and x is not y for x, y in zip(entries, entries[1:]))
        rows, csv = [], ""
        for t in enumerate_types(g):
            census = census_of_type(t)
            f, a, s = t.p_rank(), t.a_number(), census.multiplicity(fv)
            rows.append({"g": g, "nu": list(t.nu), "f": f, "a": a, "s": s, "words": census.as_dict()})
            joined = ";".join([w.letters for w, m in census.counts for _ in range(m)])
            csv += f"{g},{';'.join(map(str, t.nu))},{f},{a},{s},{joined}\n"
        assert main(["eo", "list", "--g", str(g)]) == 0
        assert capsys.readouterr() == (json.dumps(rows, indent=2) + "\n", "")
        assert main(["eo", "list", "--g", str(g), "--format", "csv"]) == 0
        assert capsys.readouterr() == (csv, "")
        assert len(words._entries) <= 4
    assert distinct_equals
    for length in range(1, 7):
        for w in all_cyclic_words(length):
            m = direct_sum(direct_sum(word_module(w, field), word_module(fv, field)),
                           word_module(w, field))
            root, k = primitive_root(w.letters)
            counts = {CyclicWord(root): 2 * k}
            counts[fv] = counts.get(fv, 0) + 1
            assert decompose(m) == census_from_counter(counts), w


def test_carried_fv_count_filters_on_s_across_an_emptied_cache(monkeypatch):
    # the walk counts closed FV cycles as it goes; with the cache emptied, equal entries are
    # distinct objects and a closing FV cycle reads FV or VF from its head, so the reference
    # counts FV by the entries' letters, and every s filter keeps what filtering afterwards keeps
    monkeypatch.setattr(words, "_entries", {})
    monkeypatch.setattr(words, "_ENTRY_CAP", 4)
    for g in range(10):
        rows = [(nu, f, a, s, [letters for _, letters, _ in entries])
                for nu, f, a, s, entries in words._type_entries(g)]
        assert [s for *_, s, letters in rows] == [letters.count("FV") for *_, letters in rows], g
        for wanted in range(-1, g + 2):
            kept = [(nu, f, a, s, [letters for _, letters, _ in entries])
                    for nu, f, a, s, entries in words._type_entries(g, s=wanted)]
            assert kept == [row for row in rows if row[3] == wanted], (g, wanted)
        assert len(words._entries) <= 4


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
        # every type of g = 4, then sampled types of g = 6..9, whose longer filtrations
        # resume ker F's reduction more often
        sampled = [EOType.of(accumulate(rng.randrange(2) for _ in range(g)))
                   for g in range(6, 10) for _ in range(3)]
        for t in [*enumerate_types(4), *sampled]:
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
    assert census.total_length() == 11
