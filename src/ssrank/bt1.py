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
import random
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Iterable

from .ffmat import Matrix, PrimeField, Subspace, block_diag, solve_linear_system


class Bt1ValidationError(ValueError):
    """Raised when an operation requires a valid BT1 module but axioms fail."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class PolarizationSearchError(RuntimeError):
    """Raised when a compatible nondegenerate form was required but not found."""


# Candidate budget for the deterministic polarization sweep: full lexicographic
# enumeration below this many tuples, staged/seeded sampling beyond it.
_LEX_SWEEP_CAP = 4096
_SAMPLE_SWEEP_TRIES = 20000
_SAMPLE_SEED = 0x2977


@dataclass(frozen=True)
class DieudonneModule:
    """F_p-space with Frobenius and Verschiebung actions and optional form.

    Immutable, so once `require_valid` passes it stays valid; the success is
    recorded on the instance.  Every new instance (`with_form`, `direct_sum`,
    `from_json`, ...) starts unvalidated.
    """

    frobenius: Matrix
    verschiebung: Matrix
    form: Matrix | None = None
    _validated: bool = dataclass_field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        f, v = self.frobenius, self.verschiebung
        if f.field != v.field:
            raise ValueError("operator field mismatch")
        n = f.nrows
        if f.ncols != n or v.nrows != n or v.ncols != n:
            raise ValueError("operators must be square matrices of equal size")
        if self.form is not None:
            if self.form.field != f.field or self.form.nrows != n or self.form.ncols != n:
                raise ValueError("form shape does not match the module")

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
        return replace(self, form=form)


@dataclass(frozen=True)
class InvariantBundle:
    """p-rank f, a-number a, and the superspecial ranks of one module."""

    g: int | None
    f: int
    a: int
    s: int | None = None
    u: int | None = None

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
    violations = []
    if not (f @ v).is_zero():
        violations.append("F*V != 0")
    if not (v @ f).is_zero():
        violations.append("V*F != 0")
    if f.kernel() != v.image():
        violations.append("ker(F) != im(V)")
    if v.kernel() != f.image():
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
    object.__setattr__(m, "_validated", True)


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
    """dim(ker F intersect ker V)."""
    require_valid(m)
    return m.frobenius.kernel().intersect(m.verschiebung.kernel()).dim


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


def _pair_index(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _gram_from_coefficients(field: PrimeField, n: int, pairs: list[tuple[int, int]],
                            coeffs: Iterable[int]) -> Matrix:
    p = field.p
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in zip(pairs, coeffs):
        c %= p
        rows[i][j] = c
        rows[j][i] = (-c) % p
    return Matrix.build(field, rows, n)


def _compatibility_rows(m: DieudonneModule, pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Linear constraints on the strict upper triangle from F^T G = G V."""
    n = m.dim
    p = m.field.p
    f = m.frobenius.entries
    v = m.verschiebung.entries
    index = {pair: k for k, pair in enumerate(pairs)}

    def add_gram(row: list[int], x: int, y: int, scale: int) -> None:
        if x == y or scale % p == 0:
            return
        if x < y:
            row[index[(x, y)]] = (row[index[(x, y)]] + scale) % p
        else:
            row[index[(y, x)]] = (row[index[(y, x)]] - scale) % p

    rows = []
    for a in range(n):
        for b in range(n):
            row = [0] * len(pairs)
            for c in range(n):
                if f[c][a]:
                    add_gram(row, c, b, f[c][a])      # (F^T G)_{ab}
                if v[c][b]:
                    add_gram(row, a, c, -v[c][b])     # -(G V)_{ab}
            if any(row):
                rows.append(row)
    return rows


def _sweep_candidates(p: int, d: int):
    """Deterministic stream of coefficient tuples over F_p^d, cheapest first."""
    if p ** d <= _LEX_SWEEP_CAP:
        yield from itertools.product(range(p), repeat=d)
        return
    for i in range(d):
        yield tuple(1 if k == i else 0 for k in range(d))
    for i in range(1, d):
        yield tuple(1 if k <= i else 0 for k in range(d))
    rng = random.Random(_SAMPLE_SEED)
    for _ in range(_SAMPLE_SWEEP_TRIES):
        yield tuple(rng.randrange(p) for _ in range(d))


def find_polarization(m: DieudonneModule) -> Matrix | None:
    """Search for a compatible principal quasipolarization.

    Solves the homogeneous system {alternating, <Fx,y> = <x,Vy>} for the Gram
    matrix, then sweeps the solution space in a fixed deterministic order for
    a nondegenerate representative: exhaustive lexicographic enumeration when
    the space is small, otherwise single vectors, prefix sums, and a
    fixed-seed sample.  Returns None only when no nondegenerate form exists:
    the system has no nonzero solution, every solution vanishes on some
    row, or the exhaustive sweep found none.  A sampled sweep that finds
    nothing proves nothing and raises PolarizationSearchError.
    """
    require_valid(m)
    n = m.dim
    if n == 0:
        return Matrix.zeros(m.field, 0, 0)
    pairs = _pair_index(n)
    solutions = solve_linear_system(m.field, len(pairs), _compatibility_rows(m, pairs))
    d = solutions.dim
    if d == 0:
        return None
    p = m.field.p
    basis = solutions.basis
    # a row on which every solution vanishes makes the whole family degenerate
    touched = set()
    for bvec in basis:
        for (i, j), e in zip(pairs, bvec):
            if e:
                touched.add(i)
                touched.add(j)
    if len(touched) < n:
        return None
    seen: set[tuple[int, ...]] = set()
    for coeffs in _sweep_candidates(p, d):
        if not any(coeffs) or coeffs in seen:
            continue
        seen.add(coeffs)
        vec = [0] * len(pairs)
        for c, bvec in zip(coeffs, basis):
            if c:
                for k, e in enumerate(bvec):
                    if e:
                        vec[k] = (vec[k] + c * e) % p
        gram = _gram_from_coefficients(m.field, n, pairs, vec)
        if gram.rank() == n:
            return gram
    if p ** d > _LEX_SWEEP_CAP:
        raise PolarizationSearchError(
            f"no compatible nondegenerate form found; the sampled search over "
            f"{p}^{d} candidates was not exhaustive")
    return None


def orthogonal_complement(m: DieudonneModule, n_sub: Subspace) -> Subspace:
    """Orthogonal complement of an operator-stable subspace under the form.

    Requires a polarized module and a subspace on which the form restricts
    nondegenerately; the complement is then operator-stable and splits the
    module.
    """
    if m.form is None:
        raise ValueError("module carries no form")
    if n_sub.ambient_dim != m.dim:
        raise ValueError("subspace ambient does not match the module")
    basis_matrix = Matrix.build(m.field, n_sub.basis, m.dim)
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
    if s.ambient_dim != m.dim:
        raise ValueError("subspace ambient does not match the module")
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
        basis_matrix = Matrix.build(m.field, s.basis, m.dim)
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
