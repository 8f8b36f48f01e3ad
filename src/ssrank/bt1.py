"""Mod-p Dieudonne modules: BT1 axioms, invariants, duality, polarizations.

A module is a 2g-dimensional F_p-space with commuting-to-zero operators F
(Frobenius) and V (Verschiebung) satisfying the BT1 exchange axioms
ker F = im V and ker V = im F, optionally equipped with a nondegenerate
alternating form compatible with the operators: <Fx, y> = <x, Vy>.

Structure constants live in F_p; dimension-valued invariants (p-rank,
a-number, unpolarized superspecial rank) are insensitive to base change,
so they agree with their values over an algebraic closure.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator

from .ffmat import Matrix, PrimeField, Subspace, _set, _Value, block_diag, solve_linear_system, vstack


class Bt1ValidationError(ValueError):
    """Raised when an operation requires a valid BT1 module but axioms fail."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class PolarizationSearchError(RuntimeError):
    """Raised when a compatible nondegenerate form was required but not found."""


# Candidates the polarization sweep tries before it gives up undecided.
_SWEEP_BUDGET = 20000


class DieudonneModule(_Value):
    """F_p-space with Frobenius and Verschiebung actions and optional form.

    Immutable, so once `require_valid` passes it stays valid; the success is
    recorded on the instance, outside the compared fields.  Every new
    instance (`with_form`, `direct_sum`, `from_json`, ...) starts unvalidated.
    """

    _fields = ("frobenius", "verschiebung", "form")
    __slots__ = (*_fields, "_validated")

    def __init__(self, frobenius: Matrix, verschiebung: Matrix, form: Matrix | None = None) -> None:
        if frobenius.field != verschiebung.field:
            raise ValueError("operator field mismatch")
        n = frobenius.nrows
        if frobenius.ncols != n or verschiebung.nrows != n or verschiebung.ncols != n:
            raise ValueError("operators must be square matrices of equal size")
        if form is not None:
            if form.field != frobenius.field or form.nrows != n or form.ncols != n:
                raise ValueError("form shape does not match the module")
        _set(self, "frobenius", frobenius)
        _set(self, "verschiebung", verschiebung)
        _set(self, "form", form)
        _set(self, "_validated", False)

    @property
    def field(self) -> PrimeField:
        return self.frobenius.field

    @property
    def dim(self) -> int:
        return self.frobenius.nrows

    @property
    def g(self) -> int:
        """Half-dimension; meaningful for even-dimensional modules."""
        return self.dim // 2

    def with_form(self, form: Matrix | None) -> "DieudonneModule":
        return type(self)(self.frobenius, self.verschiebung, form)


class InvariantBundle(_Value):
    """p-rank f, a-number a, and the superspecial ranks of one module."""

    __slots__ = _fields = ("g", "f", "a", "s", "u")

    def __init__(self, g: int | None, f: int, a: int, s: int | None = None,
                 u: int | None = None) -> None:
        _set(self, "g", g)
        _set(self, "f", f)
        _set(self, "a", a)
        _set(self, "s", s)
        _set(self, "u", u)

    def check_consistent(self) -> None:
        if self.g is not None:
            if not 0 <= self.f <= self.g:
                raise ValueError("p-rank out of range")
            if self.f < self.g and self.a < 1:
                raise ValueError("a-number must be positive below the ordinary locus")
            if self.a > self.g - self.f:
                raise ValueError("a-number exceeds g - f")
        if self.s is not None and self.s > self.a:
            raise ValueError("superspecial rank exceeds a-number")
        if self.u is not None and self.u > self.a:
            raise ValueError("unpolarized superspecial rank exceeds a-number")


def zero_module(field: PrimeField) -> DieudonneModule:
    m = Matrix.zeros(field, 0, 0)
    return DieudonneModule(m, m, m)


def validate_bt1(m: DieudonneModule) -> list[str]:
    """All violated axioms, as strings; empty means the module is valid BT1."""
    f, v = m.frobenius, m.verschiebung
    fv_zero, vf_zero = (f @ v).is_zero(), (v @ f).is_zero()
    # FV = 0 puts im V inside ker F, so the two are equal iff rank V = n - rank F;
    # if FV != 0 they differ anyway.  Likewise VF = 0 for ker V and im F.
    ranks_fill = f.rank() + v.rank() == m.dim
    violations = []
    if not fv_zero:
        violations.append("F*V != 0")
    if not vf_zero:
        violations.append("V*F != 0")
    if not (fv_zero and ranks_fill):
        violations.append("ker(F) != im(V)")
    if not (vf_zero and ranks_fill):
        violations.append("ker(V) != im(F)")
    if m.form is not None:
        violations.extend(_form_violations(m))
    return violations


def _form_violations(m: DieudonneModule) -> list[str]:
    gram = m.form
    assert gram is not None
    out = []
    if gram.transpose() != gram.neg():
        out.append("form is not antisymmetric")
    if any(gram.entries[i][i] for i in range(gram.nrows)):
        out.append("form has a nonzero diagonal entry")
    if gram.rank() != m.dim:
        out.append("form is degenerate")
    if m.frobenius.transpose() @ gram != gram @ m.verschiebung:
        out.append("form does not satisfy <Fx,y> = <x,Vy>")
    return out


def require_valid(m: DieudonneModule) -> None:
    """Raise Bt1ValidationError unless m is valid; checks each instance once."""
    if m._validated:
        return
    violations = validate_bt1(m)
    if violations:
        raise Bt1ValidationError(violations)
    _set(m, "_validated", True)


def _stable_image_dim(op: Matrix) -> int:
    """Dimension of the intersection of all iterated images of op."""
    space = Subspace.full(op.field, op.nrows)
    while True:
        nxt = op.map_subspace(space)
        if nxt == space:
            return space.dim
        space = nxt


def p_rank(m: DieudonneModule) -> int:
    """Dimension of the stable V-image; asserted equal to the stable F-image."""
    require_valid(m)
    mult_part = _stable_image_dim(m.verschiebung)
    etale_part = _stable_image_dim(m.frobenius)
    if mult_part != etale_part:
        raise Bt1ValidationError(
            [f"multiplicative rank {mult_part} != etale rank {etale_part}"])
    return mult_part


def a_number(m: DieudonneModule) -> int:
    """dim(ker F intersect ker V), the nullity of the stacked 2n x n matrix [F; V]."""
    require_valid(m)
    return m.dim - vstack(m.frobenius, m.verschiebung).rank()


def unpolarized_ss_rank(m: DieudonneModule) -> int:
    """Largest u admitting an inclusion of u independent rank-p^2 supersingular blocks.

    Equals dim F(W) for W = ker(F + V): generators of any such inclusion land
    in W with independent F-images, and conversely preimages of a basis of
    F(W) inside W define an injective module map (F^2 and V^2 vanish on W
    because FV = VF = 0).
    """
    require_valid(m)
    w = m.frobenius.add(m.verschiebung).kernel()
    return m.frobenius.map_subspace(w).dim


def dual(m: DieudonneModule) -> DieudonneModule:
    """Cartier-dual module: F and V swap through transposition."""
    new_form = m.form.inverse() if m.form is not None else None
    return DieudonneModule(m.verschiebung.transpose(), m.frobenius.transpose(), new_form)


def direct_sum(*parts: DieudonneModule) -> DieudonneModule:
    """Block-diagonal sum in the order given; the form is kept when every part has one."""
    form = None
    if all(m.form is not None for m in parts):
        form = block_diag(*[m.form for m in parts])
    return DieudonneModule(block_diag(*[m.frobenius for m in parts]),
                           block_diag(*[m.verschiebung for m in parts]), form)


def check_polarization(m: DieudonneModule) -> bool:
    """True when the attached form is alternating, nondegenerate and compatible."""
    if m.form is None:
        return False
    return not _form_violations(m)


def _compatibility_rows(m: DieudonneModule, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The matrix of G -> F^T G - G V on the basis E_ij = e_i e_j^T - e_j e_i^T.

    One column per pair (i, j), one row per entry (a, b) of the n x n image;
    rows that vanish mod p are dropped.
    """
    n, p = m.dim, m.field.p
    f, v = m.frobenius.entries, m.verschiebung.entries
    cols = []
    for i, j in pairs:
        col = [0] * (n * n)
        for a in range(n):
            col[a * n + j] += f[i][a]
            col[a * n + i] -= f[j][a]
            col[i * n + a] -= v[j][a]
            col[j * n + a] += v[i][a]
        cols.append(col)
    return [row for row in zip(*cols) if any(e % p for e in row)]


def _sweep_candidates(d: int, g: int, p: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each nonzero c in {0, ..., p - 1}^d with sum(c) <= g once, sparsest first, as (support, values)."""
    for weight in range(1, min(d, g) + 1):
        parts = [v for v in itertools.product(range(1, min(p, g - weight + 2)), repeat=weight) if sum(v) <= g]
        for support in itertools.combinations(range(d), weight):
            for values in parts:
                yield support, values


def find_polarization(m: DieudonneModule) -> Matrix | None:
    """Search for a compatible principal quasipolarization.

    Solves the homogeneous system {alternating, <Fx,y> = <x,Vy>} for the Gram
    matrix, with echelon basis B_1, ..., B_d, and looks for a nondegenerate
    G(c) = sum c_k B_k.  A greedy pass grows the rank one basis form at a
    time (c_k is the first value in 1..min(p - 1, g) that raises the rank of
    G(c), else 0); then a sweep tries every nonzero c with 0 <= c_k < p and
    sum(c) <= g, g = dim / 2, sparsest first.

    That grid is large enough.  G(c) is nondegenerate exactly when its
    Pfaffian P(c) is nonzero, and P is homogeneous of degree g.  On F_p^d, P
    agrees with its reduction Q by c_k^p = c_k, of degree at most g and
    below p in each c_k.  If Q != 0, take a monomial prod c_k^t_k of Q of
    top degree: Alon's Combinatorial Nullstellensatz gives a point with
    0 <= c_k <= t_k, so sum(c) <= g, where Q, hence P, is nonzero.  So an
    exhausted sweep proves that no compatible nondegenerate form exists over
    F_p, and for p > g (then Q = P) over no extension of F_p either.

    Returns None only with a proof: that one, an odd dimension (alternating
    forms have even rank), no nonzero solution, or a row on which every
    solution vanishes.  Reaching _SWEEP_BUDGET candidates, greedy ones
    included, proves nothing and raises PolarizationSearchError.
    """
    require_valid(m)
    n, p = m.dim, m.field.p
    if n == 0:
        return Matrix.zeros(m.field, 0, 0)
    if n % 2:
        return None
    pairs = list(itertools.combinations(range(n), 2))
    solutions = solve_linear_system(m.field, len(pairs), _compatibility_rows(m, pairs))
    basis = [[(i, j, e) for (i, j), e in zip(pairs, bvec) if e] for bvec in solutions.basis]
    # a row on which every solution vanishes makes the whole family degenerate
    if not basis or len({x for bvec in basis for i, j, _ in bvec for x in (i, j)}) < n:
        return None
    g, d = n // 2, len(basis)
    tries = itertools.count(1)

    def gram_and_rank(terms: Iterable[tuple[int, int]]) -> tuple[Matrix, int]:
        if next(tries) > _SWEEP_BUDGET:
            raise PolarizationSearchError(f"no compatible nondegenerate form found; the search "
                                          f"stopped after {_SWEEP_BUDGET} candidates, short of its grid")
        rows = [[0] * n for _ in range(n)]
        for k, c in terms:
            for i, j, e in basis[k]:
                rows[i][j] += c * e
                rows[j][i] -= c * e
        gram = Matrix.build(m.field, rows, n)
        return gram, gram.rank()

    chosen, rank = [], 0
    for k in range(d):
        for t in range(1, min(p, g + 1)):
            gram, r = gram_and_rank(chosen + [(k, t)])
            if r == n:
                return gram
            if r > rank:
                chosen, rank = chosen + [(k, t)], r
                break
    for support, values in _sweep_candidates(d, g, p):
        gram, r = gram_and_rank(zip(support, values))
        if r == n:
            return gram
    return None


def _basis_matrix(m: DieudonneModule, s: Subspace) -> Matrix:
    """The echelon basis of a subspace of m's space, one row each; ValueError for any other subspace."""
    if s.field != m.field or s.ambient_dim != m.dim:
        raise ValueError("subspace field or ambient does not match the module")
    return Matrix._from_rows(m.field, s.dim, m.dim, s._rows)


def orthogonal_complement(m: DieudonneModule, n_sub: Subspace) -> Subspace:
    """Orthogonal complement of an operator-stable subspace under the form.

    Requires a polarized module and a subspace on which the form restricts
    nondegenerately; the complement is then operator-stable and splits the
    module.
    """
    if m.form is None:
        raise ValueError("module carries no form")
    basis_matrix = _basis_matrix(m, n_sub)
    restricted = basis_matrix @ m.form @ basis_matrix.transpose()
    if restricted.rank() != n_sub.dim:
        raise ValueError("form restricts degenerately; not a polarized factor")
    complement = (basis_matrix @ m.form).kernel()
    for op in (m.frobenius, m.verschiebung):
        if not complement.contains(op.map_subspace(complement)):
            raise ValueError("complement is not operator-stable; input was not a submodule")
    if complement.intersect(n_sub).dim != 0 or complement.dim + n_sub.dim != m.dim:
        raise ValueError("complement does not split the module")
    return complement


def restrict_to(m: DieudonneModule, s: Subspace) -> DieudonneModule:
    """The module structure induced on an operator-stable subspace."""
    basis_matrix = _basis_matrix(m, s)
    cols_f = []
    cols_v = []
    for b in s.basis:
        cols_f.append(s.coordinates(m.frobenius.apply(b)))
        cols_v.append(s.coordinates(m.verschiebung.apply(b)))
    k = s.dim
    new_f = Matrix.from_columns(m.field, k, cols_f)
    new_v = Matrix.from_columns(m.field, k, cols_v)
    new_form = None
    if m.form is not None:
        new_form = basis_matrix @ m.form @ basis_matrix.transpose()
    return DieudonneModule(new_f, new_v, new_form)


def split_etale_mult(m: DieudonneModule) -> tuple[int, DieudonneModule]:
    """Peel off the etale-multiplicative part, returning (p-rank, local-local part)."""
    f_rank = p_rank(m)
    n = m.dim
    nilpotent_f = m.frobenius.power(n).kernel()
    nilpotent_v = m.verschiebung.power(n).kernel()
    local_local = nilpotent_f.intersect(nilpotent_v)
    if local_local.dim != n - 2 * f_rank:
        raise Bt1ValidationError(["local-local part has unexpected dimension"])
    return f_rank, restrict_to(m, local_local)


def invariants(m: DieudonneModule) -> InvariantBundle:
    g = m.g if m.dim % 2 == 0 else None
    return InvariantBundle(g=g, f=p_rank(m), a=a_number(m), u=unpolarized_ss_rank(m))


def to_json(m: DieudonneModule) -> str:
    """Canonical one-line JSON serialization of a module."""
    obj = {
        "p": m.field.p,
        "dim": m.dim,
        "F": [list(row) for row in m.frobenius.entries],
        "V": [list(row) for row in m.verschiebung.entries],
        "form": [list(row) for row in m.form.entries] if m.form is not None else None,
    }
    return json.dumps(obj, separators=(",", ":"))


def from_json(text: str, max_dim: int | None = None) -> DieudonneModule:
    """Parse the canonical module serialization; integer entries are reduced mod p."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("module JSON must be an object")
    try:
        p, dim, raw_f, raw_v = obj["p"], obj["dim"], obj["F"], obj["V"]
    except KeyError as missing:
        raise ValueError(f"module JSON is missing key {missing}") from None
    if type(p) is not int or type(dim) is not int:
        raise ValueError("module JSON p and dim must be integers")
    field = PrimeField(p)
    if max_dim is not None and dim > max_dim:
        raise ValueError(f"module dim is capped at {max_dim}")
    raw_form = obj.get("form")

    def matrix_of(raw) -> Matrix:
        if not isinstance(raw, list) or len(raw) != dim:
            raise ValueError("matrix must be a dim x dim array")
        for row in raw:
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError("matrix must be a dim x dim array")
            if not set(map(type, row)) <= {int}:
                raise ValueError("matrix entries must be integers")
        return Matrix.build(field, raw, dim)

    form = matrix_of(raw_form) if raw_form is not None else None
    return DieudonneModule(matrix_of(raw_f), matrix_of(raw_v), form)
