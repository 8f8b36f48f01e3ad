from __future__ import annotations

import itertools
import json
import random

import pytest

from ssrank import bt1
from ssrank.bt1 import (
    Bt1ValidationError,
    DieudonneModule,
    _sweep_candidates,
    a_number,
    check_polarization,
    direct_sum,
    dual,
    find_polarization,
    from_json,
    invariants,
    p_rank,
    to_json,
    unpolarized_ss_rank,
    validate_bt1,
    zero_module,
)
from ssrank.build import h_rs, i11, j_rs, ord1
from ssrank.eo import EOType, canonical_module, enumerate_types, eo_type_of
from ssrank.ffmat import Matrix, PrimeField, Subspace, block_diag
from ssrank.words import CyclicWord, decompose, superspecial_rank, word_module

from helpers import (
    all_cyclic_words,
    brute_force_has_polarization,
    compatible_form_basis,
    conjugated,
    reference_image,
    reference_kernel,
    reference_product,
    reference_rref_modp,
    reference_to_json,
    reference_validate_bt1,
    twisted_word_module,
)


def test_validate_fixtures(gf2):
    assert validate_bt1(i11(gf2)) == []
    assert validate_bt1(j_rs(2, 2, gf2)) == []
    zero_ops = Matrix.zeros(gf2, 2, 2)
    violations = validate_bt1(DieudonneModule(zero_ops, zero_ops))
    assert "ker(F) != im(V)" in violations


def test_invalid_module_is_rejected_by_every_entry_point(gf2):
    zero_ops = Matrix.zeros(gf2, 2, 2)
    bad = DieudonneModule(zero_ops, zero_ops)
    for _ in range(2):  # a failed check is not recorded as a pass
        for entry in (p_rank, a_number, unpolarized_ss_rank, invariants, eo_type_of, decompose,
                      superspecial_rank):
            with pytest.raises(Bt1ValidationError):
                entry(bad)


def test_validation_is_recorded_per_instance(gf2):
    m = i11(gf2)
    assert p_rank(m) == 0
    with pytest.raises(Bt1ValidationError, match="form is degenerate"):
        p_rank(m.with_form(Matrix.zeros(gf2, 2, 2)))
    fresh = i11(gf2)
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


def test_validate_form_violations(gf2):
    m = i11(gf2)
    degenerate = m.with_form(Matrix.zeros(gf2, 2, 2))
    assert "form is degenerate" in validate_bt1(degenerate)
    assert not check_polarization(degenerate)
    incompatible = ord1(gf2).with_form(i11(gf2).form)
    # the hyperbolic form is compatible with ord1 as well, so tweak F instead
    bad = DieudonneModule(i11(gf2).frobenius, ord1(gf2).verschiebung)
    assert validate_bt1(bad) != []
    assert incompatible.form is not None


def test_p_rank_examples(gf2):
    assert p_rank(ord1(gf2)) == 1
    assert p_rank(i11(gf2)) == 0
    assert p_rank(direct_sum(ord1(gf2), i11(gf2))) == 1


def test_p_rank_rejects_unbalanced(gf2):
    # a single etale line is valid BT1, but its stable F-image is the line and its stable
    # V-image is zero
    etale = DieudonneModule(Matrix.identity(gf2, 1), Matrix.zeros(gf2, 1, 1))
    assert validate_bt1(etale) == []
    with pytest.raises(Bt1ValidationError) as err:
        p_rank(etale)
    assert err.value.violations == ["multiplicative rank 0 != etale rank 1"]


def _dense_stable_rank(op: Matrix) -> int:
    """The rank of op^n, n = op's size, by dense products: the dimension of op's stable image."""
    n, p = op.nrows, op.field.p
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    square, k = [list(r) for r in op.entries], n
    while k:
        if k & 1:
            power = reference_product(power, square, p)
        square, k = reference_product(square, square, p), k >> 1
    return len(reference_rref_modp(power, n, p)[0])


def test_p_rank_matches_the_ranks_of_dense_powers():
    rng = random.Random(3030)
    for p in (2, 3, 97):
        field = PrimeField(p)
        etale = DieudonneModule(Matrix.identity(field, 1), Matrix.zeros(field, 1, 1))
        modules = [zero_module(field), etale, direct_sum(etale, word_module(CyclicWord.of("FFV"), field))]
        modules += [conjugated(canonical_module(t, field), rng) for g in range(7) for t in enumerate_types(g)]
        # pure words and powers included; every pure word is unbalanced
        modules += [word_module(w, field) for length in range(1, 7) for w in all_cyclic_words(length)]
        modules += [j_rs(r, s, field) for r in range(1, 5) for s in range(1, 5) if r != s]
        for m in modules:
            mult_part, etale_part = _dense_stable_rank(m.verschiebung), _dense_stable_rank(m.frobenius)
            if mult_part == etale_part:
                assert p_rank(m) == mult_part, (p, to_json(m))
            else:
                with pytest.raises(Bt1ValidationError) as err:
                    p_rank(m)
                assert err.value.violations == [
                    f"multiplicative rank {mult_part} != etale rank {etale_part}"], (p, to_json(m))


def test_a_number_examples(gf2):
    assert a_number(i11(gf2)) == 1
    assert a_number(j_rs(3, 3, gf2)) == 1
    assert a_number(direct_sum(i11(gf2), i11(gf2))) == 2


def test_unpolarized_rank_examples(gf2):
    assert unpolarized_ss_rank(i11(gf2)) == 1
    assert unpolarized_ss_rank(j_rs(2, 2, gf2)) == 1
    assert unpolarized_ss_rank(ord1(gf2)) == 0


def _fv_squared(monodromy, field: PrimeField) -> DieudonneModule:
    """FV + FV on x1, x2, y1, y2 with F x_i = y_i and V x_i = sum_j M_ji y_j."""
    (a, b), (c, d) = monodromy
    frob = Matrix.build(field, [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    ver = Matrix.build(field, [[0, 0, 0, 0], [0, 0, 0, 0], [a, b, 0, 0], [c, d, 0, 0]])
    return DieudonneModule(frob, ver)


def test_u_is_the_rational_count_and_can_fall_below_s(gf2):
    # over a closure every FV band is a supersingular block (Lang), over F_p it need not be
    m = _fv_squared([[0, 1], [1, 1]], gf2)
    assert find_polarization(m) is not None
    assert (unpolarized_ss_rank(m), superspecial_rank(m)) == (0, 2)
    for p, counts in ((2, (6, 3, 2)), (3, (48, 16, 15))):
        field, tally = PrimeField(p), [0, 0, 0]  # monodromies, polarizable ones, those with u < s
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p:
                m = _fv_squared([[a, b], [c, d]], field)
                polarizable = brute_force_has_polarization(m)
                assert polarizable == (find_polarization(m) is not None)
                below = polarizable and unpolarized_ss_rank(m) < superspecial_rank(m) == 2
                tally = [tally[0] + 1, tally[1] + polarizable, tally[2] + below]
        assert tuple(tally) == counts, p


def test_unpolarized_rank_brute_force_small(gf2):
    # dimension <= 4: compare the closed form against exhaustive embedding search
    for w in all_cyclic_words(4) + all_cyclic_words(3) + all_cyclic_words(2):
        m = word_module(w, gf2)
        assert unpolarized_ss_rank(m) == brute_force_u(m)


def brute_force_u(m) -> int:
    """Maximal u with independent vectors m_i in ker(F+V) whose F-images stay independent."""
    field = m.field
    w = m.frobenius.add(m.verschiebung).kernel()
    vectors = []
    if w.dim:
        for coeffs in _all_tuples(field.p, w.dim):
            if not any(coeffs):
                continue
            vec = [0] * m.dim
            for c, b in zip(coeffs, w.basis):
                for k in range(m.dim):
                    vec[k] = (vec[k] + c * b[k]) % field.p
            vectors.append(tuple(vec))
    best = 0

    def extend(chosen: list[tuple[int, ...]], start: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) == m.dim // 2:
            return
        for idx in range(start, len(vectors)):
            cand = vectors[idx]
            vectors_so_far = Matrix.build(field, chosen + [cand], m.dim)
            images = vectors_so_far @ m.frobenius.transpose()
            stacked = Matrix.build(field, vectors_so_far.entries + images.entries, m.dim)
            if stacked.rank() == 2 * (len(chosen) + 1):
                extend(chosen + [cand], idx + 1)

    extend([], 0)
    return best


def _all_tuples(p, d):
    import itertools

    return itertools.product(range(p), repeat=d)


def test_dual_examples(gf2):
    m = i11(gf2)
    assert eo_type_of(dual(m)) == EOType.of([0])
    assert dual(dual(m)) == m
    assert validate_bt1(dual(m)) == []
    # Cartier duality swaps the two indices
    assert decompose(dual(j_rs(2, 3, gf2))) == decompose(j_rs(3, 2, gf2))
    o = ord1(gf2)
    assert p_rank(dual(o)) == 1 and a_number(dual(o)) == 0


def test_dual_is_involution_randomized(gf2, gf3):
    for field in (gf2, gf3):
        for r, s in [(1, 1), (2, 2), (2, 3), (1, 4)]:
            m = j_rs(r, s, field)
            assert dual(dual(m)) == m
            assert validate_bt1(dual(m)) == []


def test_dual_transports_polarizations(gf2, gf3):
    # the inverse Gram matrix polarizes the dual module
    for field in (gf2, gf3):
        for m in (i11(field), ord1(field), h_rs(2, 2, field), h_rs(2, 3, field)):
            d = dual(m)
            assert validate_bt1(d) == []
            assert check_polarization(d)
            assert dual(d) == m


def test_found_polarizations_always_check(gf2, gf3):
    from ssrank.eo import EOType, canonical_module
    from ssrank.words import CyclicWord, word_module

    candidates = [
        j_rs(2, 2, gf2), j_rs(3, 3, gf2), j_rs(4, 4, gf3),
        word_module(CyclicWord("FFVV"), gf3),
        canonical_module(EOType.of([0, 1, 1, 2]), gf2),
        direct_sum(i11(gf2).with_form(None), j_rs(2, 2, gf2)),
    ]
    for m in candidates:
        gram = find_polarization(m.with_form(None))
        assert gram is not None
        assert check_polarization(m.with_form(gram))


def test_direct_sum_examples(gf2):
    both = direct_sum(i11(gf2), ord1(gf2))
    assert p_rank(both) == 1 and a_number(both) == 1 and both.g == 2
    assert check_polarization(both)
    assert direct_sum(both, zero_module(gf2)) == both
    assert direct_sum(zero_module(gf2), both) == both
    with pytest.raises(ValueError):
        direct_sum(i11(gf2), i11(PrimeField(3)))


def test_a_sum_of_nothing_is_an_error():
    for empty_sum, what in ((direct_sum, "module"), (block_diag, "block")):
        with pytest.raises(ValueError, match=f"needs at least one {what}"):
            empty_sum()


def test_direct_sum_is_n_ary(gf2, gf3):
    for field in (gf2, gf3):
        formed = (i11(field), ord1(field), canonical_module(EOType.of([0, 1]), field))
        formless = (j_rs(2, 1, field), i11(field).with_form(None), ord1(field))
        for a, b, c in (formed, formless, (formed[0], formless[1], formed[2])):
            total = direct_sum(a, b, c)
            assert total == direct_sum(direct_sum(a, b), c)
            assert (total.form is None) == any(m.form is None for m in (a, b, c))
        assert direct_sum(formed[2]) == formed[2]
    with pytest.raises(ValueError):
        direct_sum(i11(gf2), ord1(gf2), i11(gf3))


def test_find_polarization_i11_is_hyperbolic(gf2):
    gram = find_polarization(i11(gf2))
    assert gram == Matrix.build(gf2, [[0, 1], [1, 0]])


def test_find_polarization_j33(gf2):
    core = j_rs(3, 3, gf2)
    gram = find_polarization(core)
    assert gram is not None
    assert check_polarization(core.with_form(gram))


def test_find_polarization_odd_p(gf3):
    for m in (i11(gf3), ord1(gf3), j_rs(2, 2, gf3)):
        bare = m.with_form(None)
        gram = find_polarization(bare)
        assert gram is not None
        assert check_polarization(bare.with_form(gram))


def test_sweep_candidates_are_the_nonzero_points_of_sum_at_most_g_sparsest_first():
    for p in (2, 3, 5):
        for g in range(4):
            for d in range(5):
                got = []
                for support, values in _sweep_candidates(d, g, p):
                    coeffs = [0] * d
                    for k, c in zip(support, values):
                        coeffs[k] = c
                    assert all(values) and list(support) == sorted(set(support))
                    got.append(tuple(coeffs))
                assert sorted(got) == [c for c in itertools.product(range(p), repeat=d) if 0 < sum(c) <= g]
                weights = [sum(1 for c in coeffs if c) for coeffs in got]
                assert weights == sorted(weights)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_find_polarization_matches_a_search_over_all_of_fp(p):
    # the sweep's grid {c : sum(c) <= g} is smaller than F_p^d here; for p <= g its
    # proof rests on reducing the Pfaffian by c^p = c
    field = PrimeField(p)
    verdicts = []
    for letters in (("FV",), ("FFVV",), ("FFVFVV",), ("FFFVVV",), ("FV", "FV"), ("FV", "FFVV")):
        for twists in itertools.product(sorted({1, 2 % p, p - 1} - {0}), repeat=len(letters)):
            m = direct_sum(*[twisted_word_module(w, lam, field) for w, lam in zip(letters, twists)])
            if p ** len(compatible_form_basis(m)) > 4096:
                continue
            exists = brute_force_has_polarization(m)
            gram = find_polarization(m)
            assert (gram is not None) == exists, (letters, twists)
            assert gram is None or check_polarization(m.with_form(gram))
            verdicts.append(exists)
    assert len(set(verdicts)) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_packed_compatible_forms_match_the_matrix_product_reference(p):
    field, rng = PrimeField(p), random.Random(p)
    modules = [conjugated(canonical_module(t, field), rng) for g in range(4) for t in enumerate_types(g)]
    twisted = [twisted_word_module(w, lam, field) for w in ("FV", "FFVV", "FFVFVV", "FFFVV")
               for lam in sorted({1, 2 % p, p - 1} - {0})]
    # twisted word modules, their sums, and sums with a canonical module in a random basis
    modules += twisted + [direct_sum(a, b) for a, b in itertools.combinations(twisted[:4], 2)]
    c01 = canonical_module(EOType.of([0, 1]), field)
    modules += [conjugated(direct_sum(t, c01), rng) for t in twisted[:3]]
    for m in modules:
        n = m.dim
        pairs = list(itertools.combinations(range(n), 2))
        coefficients = []
        for form in bt1._compatible_forms(m):
            entries = field._unpack(form, n * n)
            assert all(entries[i * n + i] == 0 for i in range(n))
            assert all((entries[i * n + j] + entries[j * n + i]) % p == 0 for i, j in pairs)
            coefficients.append(tuple(entries[i * n + j] for i, j in pairs))
        assert tuple(coefficients) == compatible_form_basis(m)


def test_find_polarization_stays_on_packed_rows(monkeypatch):
    modules = [conjugated(canonical_module(EOType.of(nu), PrimeField(p)), random.Random(p))
               for p in (2, 3, 97) for nu in ([0, 0, 0], [0, 1, 1], [1, 2, 2])]
    modules += [word_module(CyclicWord.of("FFVFVV"), PrimeField(p)) for p in (2, 97)]

    def unpacked(*args):
        raise AssertionError("the search left the packed rows")

    monkeypatch.setattr(Matrix, "build", classmethod(unpacked))
    monkeypatch.setattr(Matrix, "entries", property(unpacked))
    monkeypatch.setattr(Subspace, "basis", property(unpacked))
    found = [find_polarization(m) for m in modules]
    assert all(check_polarization(m.with_form(gram)) for m, gram in zip(modules[:-2], found))
    assert found[-2:] == [None, None]


def test_find_polarization_on_sparse_canonical_coordinates():
    # unconjugated sums: every basis form is one pairing entry, so a nondegenerate
    # form needs g of them at once, past the sparse end of the grid's order
    f97 = PrimeField(97)
    for m in (direct_sum(*[ord1(f97)] * 4), direct_sum(*[i11(f97)] * 6),
              direct_sum(*[ord1(f97)] * 3, *[i11(f97)] * 2), direct_sum(*[ord1(PrimeField(5))] * 5),
              canonical_module(EOType((1, 2, 3, 4, 5)), PrimeField(5))):
        bare = DieudonneModule(m.frobenius, m.verschiebung)
        gram = find_polarization(bare)
        assert gram is not None and check_polarization(bare.with_form(gram))


@pytest.mark.parametrize("p", [3, 5, 7, 97])
def test_twisted_fv_has_a_form_exactly_when_the_twist_is_minus_one(p):
    # F e0 = e1, V e0 = lam e1: valid BT1 for every lam, polarizable only for lam = -1
    field = PrimeField(p)
    for lam in range(1, p):
        m = DieudonneModule(Matrix.build(field, [[0, 0], [1, 0]]), Matrix.build(field, [[0, 0], [lam, 0]]))
        gram = find_polarization(m)
        assert (gram is not None) == (lam == p - 1), lam
        assert gram is None or check_polarization(m.with_form(gram))


def test_fv_to_the_sixth_has_no_form_over_f2(gf2, monkeypatch):
    # (FV)^6 stops undecided at the default budget; with room for the greedy pass
    # (one try per basis form at p = 2) and the whole grid, the exhausted sweep
    # proves there is no form (a walk over all 2^18 compatible forms agrees)
    m = word_module(CyclicWord.of("FV" * 6), gf2)
    d, g = len(bt1._compatible_forms(m)), m.g
    monkeypatch.setattr(bt1, "_SWEEP_BUDGET", d + sum(1 for _ in _sweep_candidates(d, g, 2)))
    assert find_polarization(m) is None


def test_odd_dimensional_modules_have_no_form(gf2, gf3, monkeypatch):
    # the odd dimension is the proof: a search would stop at the first candidate
    monkeypatch.setattr(bt1, "_SWEEP_BUDGET", 0)
    for field in (gf2, gf3, PrimeField(97)):
        # no row of the sum is dead
        mixed = direct_sum(j_rs(1, 2, field), j_rs(2, 1, field), j_rs(1, 2, field))
        for m in (word_module(CyclicWord.of("FFV"), field), j_rs(1, 2, field), mixed):
            assert validate_bt1(m) == [] and m.dim % 2 == 1
            assert find_polarization(m) is None


def test_invariant_bundle_consistency(gf2):
    for m in (i11(gf2), ord1(gf2), j_rs(2, 2, gf2), direct_sum(i11(gf2), ord1(gf2))):
        b = invariants(m)
        assert 0 <= b.f <= b.g
        assert b.f == b.g or b.a >= 1
        assert b.a <= b.g - b.f
        assert b.u <= b.a


def test_additivity_randomized(gf2):
    rng = random.Random(1812)
    mixed_pool = [w for w in all_cyclic_words(2) + all_cyclic_words(3) + all_cyclic_words(4)
                  if w.is_mixed()]
    for _ in range(30):
        picks = [rng.choice(mixed_pool) for _ in range(rng.randrange(1, 4))]
        parts = [word_module(w, gf2) for w in picks]
        parts += [ord1(gf2)] * rng.randrange(2)
        total = zero_module(gf2)
        for part in parts:
            total = direct_sum(total, part)
        assert p_rank(total) == sum(p_rank(x) for x in parts)
        assert a_number(total) == sum(a_number(x) for x in parts)
        assert unpolarized_ss_rank(total) == sum(unpolarized_ss_rank(x) for x in parts)


def test_json_round_trip(gf2, gf3):
    for m in (i11(gf2), ord1(gf3), j_rs(2, 3, gf2), h_rs(2, 3, gf2)):
        assert from_json(to_json(m)) == m
    m = i11(gf2)
    assert to_json(m) == ('{"p":2,"dim":2,"F":[[0,0],[1,0]],"V":[[0,0],[1,0]],'
                          '"form":[[0,1],[1,0]]}')


def test_json_writer_matches_json_dumps_of_the_entries():
    rng = random.Random(4127)
    for p in (2, 3, 5, 97):
        field = PrimeField(p)
        for n in (0, 1, 2, 3, 8, 13, 24):
            f, v, form = (Matrix.build(field, [[rng.randrange(p) for _ in range(n)]
                                               for _ in range(n)], n) for _ in range(3))
            full = Matrix.build(field, [[p - 1] * n] * n, n)  # every entry at its widest
            for m in (DieudonneModule(f, v), DieudonneModule(f, v, form),
                      DieudonneModule(full, v.transpose(), full)):
                text = to_json(m)
                assert text == reference_to_json(m), (p, n)
                assert from_json(text) == m


def test_json_reader_reduces_every_integer():
    raw = [[-1, 97, 256, 2**64 + 5], [-(2**70) - 3, 0, 1, 255],
           [98, -97, 2**65, -256], [3, 5, 96, -2]]
    for p in (2, 3, 97):
        field = PrimeField(p)
        reduced = Matrix.build(field, [[e % p for e in row] for row in raw])
        m = from_json(json.dumps({"p": p, "dim": 4, "F": raw, "V": raw[::-1], "form": raw}))
        assert m.frobenius == reduced and m.form == reduced
        assert m.verschiebung == Matrix.build(field, [[e % p for e in row] for row in raw[::-1]])


def test_json_rejects_malformed():
    good = {"p": 3, "dim": 2, "F": [[0, 0], [1, 0]], "V": [[0, 0], [2, 0]], "form": [[0, 1], [2, 0]]}
    shape, integers = "matrix must be a dim x dim array", "matrix entries must be integers"
    changes = [
        ({"F": [[0, 0], [True, 0]]}, integers), ({"F": [[0, 0], [1.0, 0]]}, integers),
        ({"V": [[0, "0"], [2, 0]]}, integers), ({"form": [[None, 1], [2, 0]]}, integers),
        ({"F": [[0, 0], [1]]}, shape), ({"F": [[0, 0], [1, 0, 0]]}, shape),
        ({"V": [[0, 0], 2]}, shape), ({"V": [[0, 0]]}, shape), ({"F": [[0, 0]] * 3}, shape),
        ({"F": "x"}, shape), ({"V": None}, shape), ({"form": [[0, 1]]}, shape),
        ({"dim": 3}, shape), ({"dim": -1}, shape),
        ({"p": True}, "module JSON p and dim must be integers"),
        ({"dim": 2.0}, "module JSON p and dim must be integers"),
        ({"p": 4}, "p must be a prime with 2 <= p <= 97, got 4"),
        # the form is read first, then F, then V
        ({"form": [[0, 1]], "F": [[0, 0], [True, 0]]}, shape),
        ({"form": [[0, False], [2, 0]], "F": [[0]], "V": [[0]]}, integers),
        ({"F": [[0, 0], [1, 0.5]], "V": [[0, 0]]}, integers),
        ({"F": [[0, 0]], "V": [[0, 0], [2.5, 0]]}, shape),
        # within a matrix the first bad row decides, and within a row its shape comes first
        ({"F": [[True, 0], [1]]}, integers), ({"F": [[0], [1.0, 0]]}, shape),
        ({"F": [[0, 0], [1.0]]}, shape), ({"V": [[-5, "0"], [2 ** 70, 0]]}, integers),
        ({"V": [[0, 0], [300, "0"]]}, integers), ({"form": [[0, 1], [2 ** 64, None]]}, integers),
    ]
    cases = [({**good, **change}, message) for change, message in changes]
    cases += [({k: v for k, v in good.items() if k != key}, f"module JSON is missing key '{key}'")
              for key in ("p", "dim", "F", "V")]
    for obj, message in cases:
        with pytest.raises(ValueError) as exc:
            from_json(json.dumps(obj))
        assert str(exc.value) == message, obj
    assert from_json(json.dumps({**good, "form": None})).form is None
    with pytest.raises(ValueError, match="module JSON must be an object"):
        from_json("[1,2,3]")


def test_json_reads_rows_and_columns_of_the_entries_reduced_mod_p():
    rng = random.Random(2771)
    for p in (2, 3, 97):
        field = PrimeField(p)
        draws = (lambda: rng.randrange(p), lambda: p - 1, lambda: rng.randrange(-2 * p, p),
                 lambda: rng.choice((rng.randrange(p, 256), 2 ** 64 + rng.randrange(p), rng.randrange(p))))
        for dim in (0, 1, 2, 3, 8, 13, 24, 128):
            for draw in draws:
                raw = [[draw() for _ in range(dim)] for _ in range(dim)]
                m = from_json(json.dumps({"p": p, "dim": dim, "F": raw, "V": raw, "form": raw}))
                expected = Matrix.build(field, [[e % p for e in row] for row in raw], dim)._rows
                for op in (m.frobenius, m.verschiebung, m.form):
                    assert op._rows == expected
                    assert op._cols == Matrix._from_rows(field, dim, dim, expected)._columns()


def test_zero_module_invariants(gf2):
    z = zero_module(gf2)
    assert validate_bt1(z) == []
    assert p_rank(z) == 0 and a_number(z) == 0 and unpolarized_ss_rank(z) == 0
    assert check_polarization(z)


def _random_operators(rng, field, n):
    """F and V that are mostly invalid: random, or with V landing in ker F, or valid."""
    p = field.p

    def rand(nrows, ncols):
        return Matrix.build(field, [[rng.randrange(p) for _ in range(ncols)]
                                    for _ in range(nrows)], ncols)

    kind = rng.randrange(6)
    f = rand(n, n) if rng.random() < 0.5 else rand(n, 1) @ rand(1, n)
    if kind < 3 or (kind == 5 and n % 2):
        return f, rand(n, n)
    if kind < 5:  # FV = 0 by construction, VF and the ranks left to chance
        kernel = f.kernel()
        if not kernel.dim:
            return f, Matrix.zeros(field, n, n)
        return f, Matrix.build(field, kernel.basis, n).transpose() @ rand(kernel.dim, n)
    t = EOType.of([rng.randrange(2)] * (n // 2))
    m = canonical_module(t, field)
    return m.frobenius, m.verschiebung


def _edge_modules(rng, field, n):
    """Two modules of dim n >= 2 in a random basis, at the edges of the rank test: one with
    exactly one of FV and VF nonzero, one with FV = VF = 0 but rank F + rank V < n."""
    p = field.p

    def rand(nrows, ncols):
        return Matrix.build(field, [[rng.randrange(p) for _ in range(ncols)]
                                    for _ in range(nrows)], ncols)

    while True:  # V maps into ker F, so FV = 0; keep a VF that is not
        f = rand(n, n - 1) @ rand(n - 1, n)
        kernel = f.kernel()
        v = Matrix.build(field, kernel.basis, n).transpose() @ rand(kernel.dim, n)
        if not (v @ f).is_zero():
            break
    one_sided = DieudonneModule(f, v) if rng.random() < 0.5 else DieudonneModule(v, f)
    g = rng.randrange((n + 1) // 2)
    zero = Matrix.zeros(field, n - 2 * g, n - 2 * g)
    short = direct_sum(canonical_module(EOType.of([rng.randrange(2)] * g), field),
                       DieudonneModule(zero, zero))
    return conjugated(one_sided, rng), conjugated(short, rng)


def test_rank_form_validation_matches_the_kernel_image_reference():
    rng = random.Random(6061)
    for p in (2, 3, 5, 97):
        field = PrimeField(p)
        for trial in range(150):
            n = rng.randrange(1, 6) if trial < 130 else rng.randrange(6, 25)
            f, v = _random_operators(rng, field, n)
            forms = [None, Matrix.build(field, [[rng.randrange(p) for _ in range(n)]
                                                for _ in range(n)], n)]
            if n % 2 == 0:
                forms.append(canonical_module(EOType.of([0] * (n // 2)), field).form)
            for form in forms:
                m = DieudonneModule(f, v, form)
                assert validate_bt1(m) == reference_validate_bt1(m)
                if form is not None:
                    nonzero_diagonal = any(form.entries[i][i] for i in range(n))
                    assert ("form has a nonzero diagonal entry" in validate_bt1(m)) == nonzero_diagonal
        for _ in range(15):
            one_sided, short = _edge_modules(rng, field, rng.randrange(2, 25))
            violations = validate_bt1(one_sided)
            assert violations == reference_validate_bt1(one_sided)
            assert ("F*V != 0" in violations) != ("V*F != 0" in violations)
            assert validate_bt1(short) == reference_validate_bt1(short) == [
                "ker(F) != im(V)", "ker(V) != im(F)"]


def _dense_a_and_u(m: DieudonneModule) -> tuple[int, int]:
    """n - rank of the dense stacked [F; V], and dim F(ker(F + V)), from the dense oracles."""
    n, p, f, v = m.dim, m.field.p, m.frobenius.entries, m.verschiebung.entries
    stacked_rank = len(reference_rref_modp(f + v, n, p)[0])
    f_plus_v = [[(x + y) % p for x, y in zip(rf, rv)] for rf, rv in zip(f, v)]
    return n - stacked_rank, len(reference_image(m.frobenius, reference_kernel(f_plus_v, n, p)))


def test_a_and_u_match_the_dense_stack_and_image_oracles():
    rng = random.Random(2929)
    for p in (2, 3, 97):
        field = PrimeField(p)
        modules = [zero_module(field)]
        for g in range(7):
            types = list(enumerate_types(g))
            modules += [conjugated(canonical_module(t, field), rng)
                        for t in rng.sample(types, min(4, len(types)))]
        # valid modules that are not quasipolarizable: j_rs off the diagonal, and the etale line
        modules += [j_rs(r, s, field) for r in range(1, 4) for s in range(1, 4) if r != s]
        etale = DieudonneModule(Matrix.identity(field, 1), Matrix.zeros(field, 1, 1))
        modules.append(etale)
        assert (a_number(etale), unpolarized_ss_rank(etale)) == (0, 0)
        assert (a_number(zero_module(field)), unpolarized_ss_rank(zero_module(field))) == (0, 0)
        for m in modules:
            assert (a_number(m), unpolarized_ss_rank(m)) == _dense_a_and_u(m), (p, to_json(m))
        # the twisted FV: F e0 = e1 and V e0 = c e1, a supersingular block exactly when c = -1
        for c in range(1, p):
            twisted = DieudonneModule(Matrix.build(field, [[0, 0], [1, 0]]),
                                      Matrix.build(field, [[0, 0], [c, 0]]))
            assert (a_number(twisted), unpolarized_ss_rank(twisted)) == (1, int(c == p - 1)), (p, c)
            assert _dense_a_and_u(twisted) == (1, int(c == p - 1)), (p, c)
    # bands with a monodromy lam, also in a random basis: for FV and FVFV, u is 0 or 1 by lam
    # while s stays 1 and 2, the case u < s; FFVV and FVV are controls, u fixed
    for p, lams in ((3, (1, 2)), (97, (1, 2, 96))):
        field = PrimeField(p)
        for letters, s, us in (("FV", 1, {0, 1}), ("FVFV", 2, {0, 1}), ("FFVV", 0, {1}), ("FVV", 0, {0})):
            seen = set()
            for lam in lams:
                band = twisted_word_module(letters, lam, field)
                for m in (band, conjugated(band, rng)):
                    assert (a_number(m), unpolarized_ss_rank(m)) == _dense_a_and_u(m), (p, letters, lam)
                    assert superspecial_rank(m) == s
                    seen.add(unpolarized_ss_rank(m))
            assert seen == us, (p, letters)


def test_stacked_a_number_matches_the_kernel_intersection():
    rng = random.Random(3137)
    for p in (2, 3, 97):
        field = PrimeField(p)
        for g in range(6):
            nu = []
            for _ in range(g):
                nu.append(nu[-1] + rng.randrange(2) if nu else rng.randrange(2))
            for m in (canonical_module(EOType.of(nu), field),
                      direct_sum(canonical_module(EOType.of(nu), field), i11(field))):
                ker_f, ker_v = m.frobenius.kernel(), m.verschiebung.kernel()
                both = Subspace.span(field, m.dim, ker_f.basis + ker_v.basis)
                assert a_number(m) == ker_f.dim + ker_v.dim - both.dim  # dim(ker F meet ker V)
                assert a_number(dual(m)) == a_number(m)
