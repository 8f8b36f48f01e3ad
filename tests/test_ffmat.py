from __future__ import annotations

import copy
import pickle
import random

import pytest

from ssrank.ffmat import GF2, Matrix, PrimeField, Subspace, _slot_bytes, rref, vstack

from helpers import reference_preimage, reference_rref_modp

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


def test_prime_field_rejects_composites_and_large_primes():
    for bad in (0, 1, 4, 6, 91, 98, 101):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(97).p == 97


def test_rank_examples(gf3):
    assert Matrix.zeros(GF2, 2, 2).rank() == 0
    assert Matrix.identity(gf3, 3).rank() == 3
    assert I11_OP.rank() == 1


def test_kernel_image_examples():
    assert Matrix.identity(GF2, 3).kernel() == Subspace.zero(GF2, 3)
    assert Matrix.zeros(GF2, 4, 4).image() == Subspace.zero(GF2, 4)
    # the exchange axiom instance on the supersingular block: ker F = im V
    assert I11_OP.kernel() == I11_OP.image()
    assert I11_OP.kernel() == Subspace.span(GF2, 2, [[0, 1]])


@pytest.mark.parametrize("p", [2, 3, 7])
def test_rank_nullity_and_preimage_randomized(p):
    rng = random.Random(41 + p)
    field = PrimeField(p)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = random_matrix(rng, field, nrows, ncols)
        assert m.kernel().dim + m.rank() == ncols
        assert reference_preimage(m, m.image()) == Subspace.full(field, ncols)
        s = Subspace.span(field, nrows, [[rng.randrange(p) for _ in range(nrows)]])
        pre = reference_preimage(m, s)
        assert pre.contains(m.kernel())
        assert s.contains(m.map_subspace(pre))


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


def reference_kernel(rows, ncols, p):
    """Echelon basis of {v : rows v = 0}, from the reference sweep."""
    reduced, pivots = reference_rref_modp(rows, ncols, p)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free] % p
        basis.append(v)
    return reference_rref_modp(basis, ncols, p)[0]


def assert_kernels_match_the_reference(p, rows, ncols, span):
    """rref, kernel and image_sources_kernel of the rows, on the subspace spanned by span."""
    field = PrimeField(p)
    assert packed_rref(p, rows, ncols) == reference_rref_modp(rows, ncols, p)
    m = Matrix.build(field, rows, ncols)
    assert [list(v) for v in m.kernel().basis] == reference_kernel(rows, ncols, p)
    s_basis = reference_rref_modp(span, ncols, p)[0]
    image, sources, kernel = m.image_sources_kernel(Subspace.span(field, ncols, span))
    images = [[sum(a * b for a, b in zip(row, v)) % p for row in rows] for v in s_basis]
    assert [list(v) for v in image.basis] == reference_rref_modp(images, len(rows), p)[0]
    # S meet ker M: the combinations c of S's basis with sum c_k M b_k = 0
    coeffs = reference_kernel([list(col) for col in zip(*images)], len(s_basis), p)
    meet = [[sum(c * b[j] for c, b in zip(cs, s_basis)) % p for j in range(ncols)] for cs in coeffs]
    assert [list(v) for v in kernel.basis] == reference_rref_modp(meet, ncols, p)[0]
    for w, pc in zip(image.basis, image.pivots()):
        source = sources.entries[pc]
        assert [sum(a * b for a, b in zip(row, source)) % p for row in rows] == list(w)


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


# (p, m, slot bytes) for m x m systems, whose slots the bound sizes for m pivots: on
# each side of each width step, 1 -> 2 bytes at p = 3, 5 and 97 and 2 -> 4 bytes at
# p = 97, and one size further, where the largest slot first needs the wider width.
SLOT_EDGES = [(3, 63, 1), (3, 64, 2), (3, 65, 2), (5, 15, 1), (5, 16, 2), (5, 17, 2),
              (97, 1, 2), (97, 7, 2), (97, 8, 4), (97, 9, 4)]


@pytest.mark.parametrize("p, m, width", SLOT_EDGES)
def test_row_reduction_at_the_slot_width_edges(p, m, width):
    assert _slot_bytes((p - 1) * (1 + m * (p - 1))) == width
    rows = slot_edge_system(p, m)
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
    assert a.apply([p - 1] * k) == (expected,) * 3
    s = Subspace.span(field, k, [[p - 1] * k])
    assert a.map_subspace(s) == Subspace.span(field, 3, [[expected] * 3])


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
        image, sources, kernel = m.image_sources_kernel(s)
        assert image == m.map_subspace(s)
        assert s.contains(kernel) and m.map_subspace(kernel).dim == 0
        assert kernel.dim == s.dim - image.dim
        section = sources.transpose()
        assert s.contains(section.map_subspace(image))
        for w in image.basis:
            assert m.apply(section.apply(w)) == w
    with pytest.raises(ValueError):
        I11_OP.image_sources_kernel(Subspace.zero(GF2, 3))


@pytest.mark.parametrize("p", [2, 3, 97])
def test_contains_matches_the_span_test(p):
    """S contains T exactly when S + T, the span of both bases, is S; members are built as
    combinations of S's basis."""
    rng = random.Random(23 + p)
    field = PrimeField(p)
    for _ in range(150):
        n = rng.randrange(9)
        big = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)]
                                       for _ in range(rng.randrange(n + 1))])
        combos = [[rng.randrange(p) for _ in big.basis] for _ in range(rng.randrange(3))]
        inside = Subspace.span(field, n, [[sum(c * b[j] for c, b in zip(cs, big.basis)) % p
                                           for j in range(n)] for cs in combos])
        other = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)]
                                         for _ in range(rng.randrange(3))])
        assert big.contains(inside)
        for small in (inside, other, big, Subspace.zero(field, n), Subspace.full(field, n)):
            assert big.contains(small) == (Subspace.span(field, n, big.basis + small.basis) == big)


def test_vstack():
    a, b = Matrix.build(GF2, [[1, 0]]), Matrix.identity(GF2, 2)
    assert vstack(a, b) == Matrix.build(GF2, [[1, 0], [1, 0], [0, 1]])
    with pytest.raises(ValueError):
        vstack(a, Matrix.identity(GF2, 3))
    with pytest.raises(ValueError):
        vstack(a, Matrix.build(PrimeField(3), [[1, 0]]))


def test_echelon_form_is_canonical():
    a = Subspace.span(GF2, 3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(GF2, 3, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ValueError):
        Subspace(GF2, 3, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))  # not RREF


def test_kernel_of_constraint_rows():
    assert Matrix.build(GF2, [], 4).kernel() == Subspace.full(GF2, 4)
    rows = [[1, 0], [0, 1]]
    assert Matrix.build(GF2, rows, 2).kernel() == Subspace.zero(GF2, 2)


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
        vec = [rng.randrange(p) for _ in range(n)]
        assert (a @ b).apply(vec) == a.apply(b.apply(vec))
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
    assert empty.kernel() == Subspace.zero(GF2, 0)
    assert empty.image() == Subspace.zero(GF2, 0)
    assert Subspace.full(GF2, 0) == Subspace.zero(GF2, 0)


# Dense reference over F_2: every lattice operation written on entry tuples
# and the reference sweep `helpers.reference_rref_modp`, independent of the packed-int rows.

def _dense_span(vectors, n):
    reduced, _ = reference_rref_modp([list(v) for v in vectors], n, 2)
    return tuple(tuple(r) for r in reduced)


def _dense_mul(a, b, inner, ncols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) % 2 for j in range(ncols)]
            for i in range(len(a))]


def _dense_kernel(rows, n):
    reduced, pivots = reference_rref_modp([list(r) for r in rows], n, 2)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = row[free]
        basis.append(v)
    return _dense_span(basis, n)


def _random_rows(rng, nrows, ncols):
    """Random 0/1 rows, sometimes of low rank so kernels and preimages are large."""
    if ncols and rng.random() < 0.4:
        k = rng.randrange(ncols + 1)
        left = [[rng.randrange(2) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randrange(2) for _ in range(ncols)] for _ in range(k)]
        return _dense_mul(left, right, k, ncols)
    density = rng.random()
    return [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]


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
        _assert_same_subspace(m.kernel(), _dense_kernel(rows, ncols), ncols)
        columns = [[row[j] for row in rows] for j in range(ncols)]
        _assert_same_subspace(m.image(), _dense_span(columns, nrows), nrows)

        src = _dense_span(_random_rows(rng, rng.randrange(ncols + 1), ncols), ncols)
        s = Subspace.span(GF2, ncols, src)
        _assert_same_subspace(s, src, ncols)
        images = [[sum(row[k] * v[k] for k in range(ncols)) % 2 for row in rows] for v in src]
        _assert_same_subspace(m.map_subspace(s), _dense_span(images, nrows), nrows)

        a_basis = _dense_span(_random_rows(rng, rng.randrange(nrows + 1), nrows), nrows)
        b_basis = _dense_span(_random_rows(rng, rng.randrange(nrows + 1), nrows), nrows)
        a, b = Subspace.span(GF2, nrows, a_basis), Subspace.span(GF2, nrows, b_basis)
        constraint = _dense_mul(_dense_kernel(a_basis, nrows), rows, nrows, ncols)
        _assert_same_subspace(reference_preimage(m, a), _dense_kernel(constraint, ncols), ncols)
        total = _dense_span(list(a_basis) + list(b_basis), nrows)
        both = Subspace.span(GF2, nrows, a_basis + b_basis)
        _assert_same_subspace(both, total, nrows)
        assert a.contains(b) == (total == a_basis)
        assert both.contains(a) and both.contains(b)

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
    with pytest.raises(ValueError):
        Subspace(PrimeField(3), 2, ((1, 3),))  # not reduced mod p
    assert Matrix.build(PrimeField(3), [[4, -1]]).entries == ((1, 2),)
    for make in (lambda: Matrix.zeros(GF2, -1, 2), lambda: Matrix.identity(GF2, -1),
                 lambda: Subspace.zero(GF2, -1), lambda: Subspace.full(GF2, -1)):
        with pytest.raises(ValueError):
            make()
    m = Matrix.identity(GF2, 2)
    with pytest.raises(AttributeError):
        m.nrows = 3
    assert Matrix(GF2, 2, 2, ((1, 0), (0, 1))) == m
    s = Subspace.span(PrimeField(5), 3, [[1, 2, 3]])
    for value in (m, s):
        assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
