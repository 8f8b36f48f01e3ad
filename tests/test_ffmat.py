from __future__ import annotations

import copy
import pickle
import random

import pytest

from ssrank.ffmat import GF2, Matrix, PrimeField, Subspace, _back_substitute, _echelon, _slot_bytes, rref

from helpers import (reference_contains, reference_image, reference_kernel, reference_preimage,
                     reference_rref_modp, reference_span)

# F and V of the 2-dimensional supersingular block over F_2: x -> y, y -> 0.
I11_OP = Matrix.build(GF2, [[0, 0], [1, 0]])


def random_matrix(rng, field, nrows, ncols):
    return Matrix.build(field, [[rng.randrange(field.p) for _ in range(ncols)]
                                for _ in range(nrows)])


def packed_rref(p, rows, ncols):
    """`ffmat.rref` on the packed form of entry rows, read back as entry lists."""
    field = PrimeField(p)
    reduced, pivots = rref(field, Matrix.build(field, rows, ncols)._rows, ncols)
    return [list(r) for r in Matrix._from_rows(field, len(reduced), ncols, reduced).entries], list(pivots)


def resumed_rank(s, rows):
    """The rank of `_echelon` resumed from a subspace's canonical rows, an echelon state, with more rows."""
    return len(_echelon(s.field, rows, s.ambient_dim, {r & -r: r for r in s._rows}))


def test_prime_field_rejects_composites_and_large_primes():
    for bad in (0, 1, 4, 6, 91, 98, 101):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(97).p == 97


def test_rank_examples(gf3):
    assert Matrix.zeros(GF2, 2, 2).rank() == 0
    assert Matrix.identity(gf3, 3).rank() == 3
    assert I11_OP.rank() == 1


def identity_rows(field, n):
    return Matrix.identity(field, n)._rows


def test_kernel_image_examples():
    assert Matrix.identity(GF2, 3).kernel() == Subspace(GF2, 3, ())
    assert Matrix.zeros(GF2, 4, 4)._image_sources_kernel(identity_rows(GF2, 4))[0] == ()
    # the exchange axiom instance on the supersingular block: ker F = im V
    image = I11_OP._image_sources_kernel(identity_rows(GF2, 2))[0]
    assert I11_OP.kernel()._rows == image
    assert I11_OP.kernel() == Subspace.span(GF2, 2, [[0, 1]])


@pytest.mark.parametrize("p", [2, 3, 7])
def test_rank_nullity_and_preimage_randomized(p):
    rng = random.Random(41 + p)
    field = PrimeField(p)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(rng, field, nrows, ncols)
        kernel = m.kernel()
        assert kernel.dim + m.rank() == ncols
        full = Matrix.identity(field, ncols).entries
        assert reference_preimage(m, reference_image(m, full)) == full
        s = reference_span([[rng.randrange(p) for _ in range(nrows)]], nrows, p)
        pre = reference_preimage(m, s)
        assert reference_contains(pre, kernel.basis, ncols, p)
        assert reference_contains(s, reference_image(m, pre), nrows, p)
        # the packed halves of M^-1(S): M maps it onto S meet im M, and it meets ker M in ker M
        image, _, meet = m._image_sources_kernel(Matrix.build(field, pre, ncols)._rows)
        assert meet == kernel._rows
        assert entry_lists(field, nrows, image) == [list(r) for r in reference_image(m, pre)]


@pytest.mark.parametrize("p", [3, 97])
def test_sliced_sweep_matches_the_whole_row_sweep(p):
    rng = random.Random(90 + p)
    for _ in range(80):
        nrows, ncols = rng.randrange(12), rng.randrange(1, 9)
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        if rows and rng.random() < 0.5:
            rows += [list(rows[0]), [0] * ncols]  # a repeated row and a zero row
        if rng.random() < 0.5:
            dead = rng.randrange(ncols)
            for row in rows:
                row[dead] = 0
        rng.shuffle(rows)
        assert packed_rref(p, rows, ncols) == reference_rref_modp(rows, ncols, p)


def entry_lists(field, ncols, rows):
    """Packed rows of ncols columns, read back as entry lists."""
    return [list(r) for r in Matrix._from_rows(field, len(rows), ncols, rows).entries]


def assert_kernels_match_the_reference(p, rows, ncols, span):
    """rref and kernel of the rows, and their augmented reduction over the vectors `span`,
    handed over as they are: not echelon, and possibly dependent."""
    field = PrimeField(p)
    assert packed_rref(p, rows, ncols) == reference_rref_modp(rows, ncols, p)
    m = Matrix.build(field, rows, ncols)
    assert m.kernel().basis == reference_kernel(rows, ncols, p)
    s_basis = reference_rref_modp(span, ncols, p)[0]
    image, sources, kernel = m._image_sources_kernel(Matrix.build(field, span, ncols)._rows)
    images = [[sum(a * b for a, b in zip(row, v)) % p for row in rows] for v in s_basis]
    assert entry_lists(field, len(rows), image) == reference_rref_modp(images, len(rows), p)[0]
    # S meet ker M: the combinations c of S's basis with sum c_k M b_k = 0
    coeffs = reference_kernel([list(col) for col in zip(*images)], len(s_basis), p)
    meet = [[sum(c * b[j] for c, b in zip(cs, s_basis)) % p for j in range(ncols)] for cs in coeffs]
    assert entry_lists(field, ncols, kernel) == reference_rref_modp(meet, ncols, p)[0]
    assert len(sources) == len(image)
    for w, source in zip(entry_lists(field, len(rows), image), entry_lists(field, ncols, sources)):
        assert [sum(a * b for a, b in zip(row, source)) % p for row in rows] == w


@pytest.mark.parametrize("p", [3, 5, 97])
def test_packed_kernel_matches_the_reference(p):
    """Seeded systems with zero, repeated and surplus rows, most of them rank-deficient."""
    rng = random.Random(300 + p)
    for trial in range(70):
        size = 66 if trial < 2 else 20
        nrows, ncols = rng.randrange(size), rng.randrange(1, size)
        rank = rng.randrange(min(nrows, ncols) + 1)
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] if rank
                else [0] * ncols for row in left]
        if rows and rng.random() < 0.5:
            rows += [list(rows[0]), [0] * ncols, [rng.randrange(p) for _ in range(ncols)]]
        rng.shuffle(rows)
        span = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randrange(ncols + 2))]
        assert_kernels_match_the_reference(p, rows, ncols, span)


def slot_edge_system(p, m):
    """An m x m system: pivot rows e_k + (p - 1) e_(m-1) for k < m - 1, then a row of ones
    ending in p - 1.  Eliminating that row adds (p - 1)^2 to its last slot at each of
    the m - 1 pivots, so the slot reaches (p - 1)(1 + (m - 1)(p - 1))."""
    r = m - 1
    return [[int(j == k) for j in range(r)] + [p - 1] for k in range(r)] + [[1] * r + [p - 1]]


def assert_echelon_matches_the_reference(p, rows, ncols):
    """The echelon state of the rows, in one pass and resumed from the state of a prefix,
    against the reference sweep: every state row is reduced and keyed by its pivot bit,
    where it has a leading 1; the pivots are the reference's; the rows span the reference's
    RREF; the base state is left as it was; and back-substitution gives the canonical rows."""
    field = PrimeField(p)
    bits, packed = field._bits, Matrix.build(field, rows, ncols)._rows
    reduced, pivots = reference_rref_modp(rows, ncols, p)
    assert Matrix._from_rows(field, len(packed), ncols, packed).rank() == len(pivots)
    for cut in sorted({0, len(packed) // 2, max(len(packed) - 1, 0), len(packed)}):
        base = _echelon(field, packed[:cut], ncols)
        saved = dict(base)
        state = _echelon(field, packed[cut:], ncols, base)
        assert base == saved
        for key, row in state.items():
            assert row & -row == key and (key.bit_length() - 1) % bits == 0
            assert row >> key.bit_length() - 1 & (1 << bits) - 1 == 1
            assert all(e < p for e in field._unpack(row, ncols))
        assert sorted((key.bit_length() - 1) // bits for key in state) == pivots
        assert reference_rref_modp(entry_lists(field, ncols, list(state.values())), ncols, p)[0] == reduced
        assert entry_lists(field, ncols, _back_substitute(field, state, ncols)) == reduced


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_echelon_matches_the_reference_and_resumes(p):
    """Seeded systems of every rank, with zero and repeated rows."""
    rng = random.Random(500 + p)
    for _ in range(60):
        nrows, ncols = rng.randrange(14), rng.randrange(1, 14)
        rank = rng.randrange(min(nrows, ncols) + 1)
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] if rank
                else [0] * ncols for row in left]
        if rows and rng.random() < 0.5:
            rows += [list(rows[0]), [0] * ncols]
        rng.shuffle(rows)
        assert_echelon_matches_the_reference(p, rows, ncols)


def back_substitution_edge_system(p, m):
    """m rows of m + 1 columns, already echelon: a row of ones ending in p - 1, then
    e_k + (p - 1) e_m for 0 < k < m.  Back-substitution adds (p - 1) times each later row
    to the first, (p - 1)^2 to its last slot at each of the m - 1 later pivots, so the
    slot reaches the same (p - 1)(1 + (m - 1)(p - 1)) as in `slot_edge_system`."""
    return [[1] * m + [p - 1]] + [[int(j == k) for j in range(m)] + [p - 1] for k in range(1, m)]


# (p, m, slot bytes) for systems of m rows (m x m, and m x (m + 1) for back-substitution),
# whose slots the bound sizes for m pivots: on each side of each width step, 1 -> 2 bytes
# at p = 3, 5 and 97 and 2 -> 4 bytes at p = 97, and one size further, where the largest
# slot first needs the wider width.
SLOT_EDGES = [(3, 63, 1), (3, 64, 2), (3, 65, 2), (5, 15, 1), (5, 16, 2), (5, 17, 2),
              (97, 1, 2), (97, 7, 2), (97, 8, 4), (97, 9, 4)]


@pytest.mark.parametrize("p, m, width", SLOT_EDGES)
def test_row_reduction_at_the_slot_width_edges(p, m, width):
    assert _slot_bytes((p - 1) * (1 + m * (p - 1))) == width
    rows = slot_edge_system(p, m)
    assert_echelon_matches_the_reference(p, rows, m)  # resumed, the last row alone meets the bound
    assert_echelon_matches_the_reference(p, rows[::-1], m)
    assert_echelon_matches_the_reference(p, back_substitution_edge_system(p, m), m + 1)
    assert_kernels_match_the_reference(p, rows, m, [[1] * m, [1] + [0] * (m - 1)])
    assert_kernels_match_the_reference(p, rows[::-1], m, [[int(j == k) for j in range(m)]
                                                          for k in range(m)])


@pytest.mark.parametrize("p, k, width", [(3, 63, 1), (3, 64, 2), (97, 7, 2), (97, 8, 4)])
def test_products_at_the_slot_width_edges(p, k, width):
    """All entries p - 1: every entry of the product is the full k (p - 1)^2 before reduction."""
    assert _slot_bytes(k * (p - 1) ** 2) == width
    field = PrimeField(p)
    a = Matrix.build(field, [[p - 1] * k] * 3)
    b = Matrix.build(field, [[p - 1] * 5] * k)
    expected = k * (p - 1) ** 2 % p
    assert (a @ b).entries == ((expected,) * 5,) * 3
    assert (a @ Matrix.build(field, [[p - 1]] * k)).entries == ((expected,),) * 3
    images = a._images(Matrix.build(field, [[p - 1] * k])._rows)
    assert images == list(Matrix.build(field, [[expected] * 3])._rows)


@pytest.mark.parametrize("p", [2, 3, 97])
def test_sparse_matches_build_of_the_dense_array(p):
    """Seeded (row, column, value) triples, each position once, values from -p to 2p - 1."""
    field, rng = PrimeField(p), random.Random(400 + p)
    for n in (0, 1, 2, 5, 13, 40):
        cells = [(i, j) for i in range(n) for j in range(n)]
        chosen = rng.sample(cells, rng.randrange(len(cells) + 1))
        triples = [(i, j, rng.randrange(-p, 2 * p)) for i, j in chosen]
        dense = [[0] * n for _ in range(n)]
        for i, j, e in triples:
            dense[i][j] = e
        sparse, reference = Matrix._sparse(field, n, triples), Matrix.build(field, dense, n)
        assert sparse == reference and sparse.entries == reference.entries
        assert sparse._columns() == reference._columns()
    assert Matrix._sparse(field, 2, [(0, 1, 1), (1, 0, -1)]) == Matrix.build(field, [[0, 1], [p - 1, 0]])


@pytest.mark.parametrize("p", [2, 3, 97])
def test_image_sources_kernel_matches_the_lattice(p):
    rng = random.Random(17 + p)
    field = PrimeField(p)
    for _ in range(60):
        nrows, ncols = rng.randrange(7), rng.randrange(7)
        rank = ncols if rng.random() < 0.6 else rng.randrange(ncols + 1)
        m = Matrix.build(field, [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)],
                         rank) @ Matrix.build(field, [[rng.randrange(p) for _ in range(ncols)]
                                                      for _ in range(rank)], ncols)
        s = Subspace.span(field, ncols, [[rng.randrange(p) for _ in range(ncols)]
                                         for _ in range(rng.randrange(ncols + 1))])
        image_rows, source_rows, kernel_rows = m._image_sources_kernel(s._rows)
        image = tuple(map(tuple, entry_lists(field, nrows, image_rows)))
        kernel = tuple(map(tuple, entry_lists(field, ncols, kernel_rows)))
        assert image == reference_image(m, s.basis)
        assert reference_contains(s.basis, kernel, ncols, p) and reference_image(m, kernel) == ()
        assert len(kernel) == s.dim - len(image)
        # sigma, with the source of each image row as its column at that row's pivot
        by_pivot = {next(j for j, e in enumerate(w) if e): source for w, source in zip(image, source_rows)}
        section = Matrix._from_rows(field, nrows, ncols,
                                    [by_pivot.get(i, 0) for i in range(nrows)]).transpose()
        assert reference_contains(s.basis, reference_image(section, image), ncols, p)
        for w in image:
            column = Matrix.build(field, [[e] for e in w], 1)
            assert m @ (section @ column) == column


@pytest.mark.parametrize("p", [2, 3, 97])
def test_contains_matches_the_span_test(p):
    """`_echelon` resumed from a subspace's canonical rows, as `_final_profile` resumes ker F,
    keeps the rank exactly when the new rows lie in the subspace, by the dense reference
    (the RREF of both bases is the subspace's); members are built as combinations of its basis."""
    rng = random.Random(23 + p)
    field = PrimeField(p)
    for _ in range(150):
        n = rng.randrange(9)
        big = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)]
                                       for _ in range(rng.randrange(n + 1))])
        combos = [[rng.randrange(p) for _ in big.basis] for _ in range(rng.randrange(3))]
        inside = [[sum(c * b[j] for c, b in zip(cs, big.basis)) % p for j in range(n)] for cs in combos]
        other = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(3))]
        assert reference_contains(big.basis, inside, n, p)
        for small in (inside, other, big.basis, [], Matrix.identity(field, n).entries):
            rank = resumed_rank(big, Matrix.build(field, small, n)._rows)
            assert (rank == big.dim) == reference_contains(big.basis, small, n, p)


def test_stacked_rank_is_the_dense_rank_of_the_stack():
    # over [M; B], also non-square: the rank is the dense rank of the stacked entry rows
    rng = random.Random(23)
    for p in (2, 3, 97):
        field = PrimeField(p)
        for _ in range(40):
            n, top, bottom = rng.randrange(7), rng.randrange(6), rng.randrange(6)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(top)]
            if rng.randrange(2):  # repeat one row, so that ker M is large
                rows = rows[:1] * top
            m = Matrix.build(field, rows, n)
            b = Matrix.build(field, [[rng.randrange(p) for _ in range(n)] for _ in range(bottom)], n)
            assert m._stacked_rank(b) == len(reference_rref_modp(m.entries + b.entries, n, p)[0])


def test_echelon_form_is_canonical():
    a = Subspace.span(GF2, 3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(GF2, 3, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ValueError, match="not in canonical reduced row-echelon form"):
        Subspace(GF2, 3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))


def test_kernel_of_constraint_rows():
    assert Matrix.build(GF2, [], 4).kernel() == Subspace(GF2, 4, Matrix.identity(GF2, 4).entries)
    rows = [[1, 0], [0, 1]]
    assert Matrix.build(GF2, rows, 2).kernel() == Subspace(GF2, 2, ())


def test_kernel_of_constraint_rows_polarization_family():
    # Compatibility for the supersingular block: brute-force all 2x2 matrices
    # over F_2, keep the antisymmetric zero-diagonal ones with F^T G = G V.
    f = v = I11_OP
    family = []
    for bits in range(16):
        g = Matrix.build(GF2, [[(bits >> 0) & 1, (bits >> 1) & 1],
                               [(bits >> 2) & 1, (bits >> 3) & 1]])
        if g.transpose() != g.neg():
            continue
        if any(g.entries[i][i] for i in range(2)):
            continue
        if f.transpose() @ g != g @ v:
            continue
        family.append(g)
    assert len(family) == 2  # zero and the hyperbolic plane: a 1-dimensional family
    # same family as a kernel: one unknown u = G_01, and every entry of
    # F^T G - G V vanishes identically in u, so all four constraint rows are 0
    sol = Matrix.build(GF2, [[0], [0], [0], [0]], 1).kernel()
    assert sol.dim == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_matmul_apply_power_inverse(p):
    rng = random.Random(90 + p)
    field = PrimeField(p)
    for _ in range(25):
        n = rng.randrange(1, 6)
        a = random_matrix(rng, field, n, n)
        b = random_matrix(rng, field, n, n)
        vec = Matrix.build(field, [[rng.randrange(p)] for _ in range(n)], 1)
        assert (a @ b) @ vec == a @ (b @ vec)
        assert (a @ a) @ a == a @ (a @ a)
        assert Matrix.identity(field, n) @ a == a == a @ Matrix.identity(field, n)
    m = Matrix.build(field, [[1, 1], [0, 1]])
    assert m @ m.inverse() == Matrix.identity(field, 2)
    with pytest.raises(ValueError):
        Matrix.zeros(field, 2, 2).inverse()


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(GF2, 1, 1, ((2,),))  # not reduced
    with pytest.raises(ValueError):
        Matrix(GF2, 2, 1, ((0,),))  # wrong row count
    with pytest.raises(ValueError):
        Matrix.identity(GF2, 2) @ Matrix.identity(PrimeField(3), 2)


def test_zero_dimensional_edges():
    empty = Matrix.zeros(GF2, 0, 0)
    assert empty.rank() == 0
    assert empty.kernel() == Subspace(GF2, 0, ())
    assert empty._image_sources_kernel(identity_rows(GF2, 0)) == ((), (), ())
    assert Subspace.span(GF2, 0, [[]]) == Subspace(GF2, 0, ())


# Dense reference over F_2: every lattice operation written on entry tuples with the
# `helpers` oracles on the reference sweep, independent of the packed-int rows.

def _dense_mul(a, b, inner, ncols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) % 2 for j in range(ncols)]
            for i in range(len(a))]


def _random_rows(rng, nrows, ncols):
    """Random 0/1 rows, sometimes of low rank so kernels and preimages are large."""
    if ncols and rng.random() < 0.4:
        k = rng.randrange(ncols + 1)
        left = [[rng.randrange(2) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randrange(2) for _ in range(ncols)] for _ in range(k)]
        return _dense_mul(left, right, k, ncols)
    density = rng.random()
    return [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]


def _image_of(m, rows):
    """The image half of `_image_sources_kernel`, as the canonical subspace it is."""
    return Subspace._from_rows(m.field, m.nrows, m._image_sources_kernel(rows)[0])


def _assert_same_subspace(packed, dense_basis, n):
    assert packed.basis == dense_basis
    checked = Subspace(GF2, n, dense_basis)  # the public, validating constructor
    assert packed == checked and hash(packed) == hash(checked)


def test_packed_gf2_matches_dense_reference():
    rng = random.Random(2024)
    for _ in range(220):
        nrows, ncols = rng.randrange(25), rng.randrange(25)
        rows = _random_rows(rng, nrows, ncols)
        m = Matrix.build(GF2, rows, ncols)
        dense_rows, pivots = reference_rref_modp([list(r) for r in rows], ncols, 2)
        assert m.rank() == len(pivots)
        _assert_same_subspace(m.kernel(), reference_kernel(rows, ncols, 2), ncols)
        columns = [[row[j] for row in rows] for j in range(ncols)]
        _assert_same_subspace(_image_of(m, identity_rows(GF2, ncols)),
                              reference_span(columns, nrows, 2), nrows)

        src = reference_span(_random_rows(rng, rng.randrange(ncols + 1), ncols), ncols, 2)
        s = Subspace.span(GF2, ncols, src)
        _assert_same_subspace(s, src, ncols)
        images = [[sum(row[k] * v[k] for k in range(ncols)) % 2 for row in rows] for v in src]
        _assert_same_subspace(_image_of(m, s._rows), reference_span(images, nrows, 2), nrows)

        a_basis = reference_span(_random_rows(rng, rng.randrange(nrows + 1), nrows), nrows, 2)
        b_basis = reference_span(_random_rows(rng, rng.randrange(nrows + 1), nrows), nrows, 2)
        a, b = Subspace.span(GF2, nrows, a_basis), Subspace.span(GF2, nrows, b_basis)
        # M^-1(A) holds ker M and maps onto A meet im M, of dim A + rank M - dim(A + im M)
        pre = reference_preimage(m, a_basis)
        image, _, meet = m._image_sources_kernel(Subspace.span(GF2, ncols, pre)._rows)
        assert meet == m.kernel()._rows
        assert reference_contains(a_basis, entry_lists(GF2, nrows, image), nrows, 2)
        a_plus_im = reference_span(a_basis + tuple(columns), nrows, 2)
        assert len(image) == len(a_basis) + len(pivots) - len(a_plus_im)
        total = reference_span(a_basis + b_basis, nrows, 2)
        both = Subspace.span(GF2, nrows, a_basis + b_basis)
        _assert_same_subspace(both, total, nrows)
        assert (resumed_rank(a, b._rows) == a.dim) == (total == a_basis)
        assert resumed_rank(both, a._rows + b._rows) == both.dim

        inner = rng.randrange(25)
        other = _random_rows(rng, ncols, inner)
        product = m @ Matrix.build(GF2, other, inner)
        expected = Matrix(GF2, nrows, inner,
                          tuple(map(tuple, _dense_mul(rows, other, ncols, inner))))
        assert product.entries == expected.entries
        assert product == expected and hash(product) == hash(expected)


def test_public_constructors_check_input():
    with pytest.raises(ValueError):
        Matrix.build(GF2, [[1, 0], [1]])  # ragged rows
    with pytest.raises(ValueError):
        Subspace.span(GF2, 3, [[1, 0]])
    # both public constructors share one entry check; only a basis that is not RREF gets that message
    for make, message in ((lambda: Matrix(GF2, 1, 3, ((1, 0),)), "column count does not match entries"),
                          (lambda: Subspace(GF2, 3, ((1, 0),)), "column count does not match entries"),
                          (lambda: Matrix(PrimeField(3), 1, 2, ((1, 3),)), "entries must be reduced mod p"),
                          (lambda: Subspace(PrimeField(3), 2, ((1, 3),)), "entries must be reduced mod p"),
                          (lambda: Subspace(PrimeField(3), 2, ((2, 0),)),
                           "basis is not in canonical reduced row-echelon form"),
                          (lambda: Subspace(GF2, 2, ((0, 0),)),
                           "basis is not in canonical reduced row-echelon form")):
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message
    assert Matrix.build(PrimeField(3), [[4, -1]]).entries == ((1, 2),)
    for make in (lambda: Matrix.zeros(GF2, -1, 2), lambda: Matrix.identity(GF2, -1),
                 lambda: Subspace(GF2, -1, ()), lambda: Subspace.span(GF2, -1, [])):
        with pytest.raises(ValueError):
            make()
    m = Matrix.identity(GF2, 2)
    with pytest.raises(AttributeError):
        m.nrows = 3
    assert Matrix(GF2, 2, 2, ((1, 0), (0, 1))) == m
    s = Subspace.span(PrimeField(5), 3, [[1, 2, 3]])
    for value in (m, s):
        assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
