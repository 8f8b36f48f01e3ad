"""Explicit module constructions and (g, f, a, s) feasibility and realization."""

from __future__ import annotations

from dataclasses import dataclass

from .bt1 import (
    DieudonneModule,
    a_number,
    check_polarization,
    direct_sum,
    dual,
    p_rank,
    zero_module,
)
from .eo import EOType, canonical_module
from .ffmat import Matrix, PrimeField
from .words import CyclicWord, superspecial_rank, word_module


class InfeasibleProfileError(ValueError):
    """The requested invariant profile cannot be realized."""


@dataclass(frozen=True)
class ProfileQuery:
    """A requested tuple (g, f, a, s) of invariants."""

    g: int
    f: int
    a: int
    s: int


def _hyperbolic_form(field: PrimeField) -> Matrix:
    return Matrix.build(field, [[0, 1], [field.p - 1, 0]], 2)


def i11(field: PrimeField) -> DieudonneModule:
    """The rank-p^2 supersingular block: Fx = y = -Vx, polarized by <x,y> = 1."""
    m = word_module(CyclicWord("FV"), field).with_form(_hyperbolic_form(field))
    assert check_polarization(m)
    return m


def ord1(field: PrimeField) -> DieudonneModule:
    """Ordinary rank-p^2 block: an etale line plus a multiplicative line."""
    frob = Matrix.build(field, [[1, 0], [0, 0]], 2)
    ver = Matrix.build(field, [[0, 0], [0, 1]], 2)
    m = DieudonneModule(frob, ver, _hyperbolic_form(field))
    assert check_polarization(m)
    return m


def j_rs(r: int, s: int, field: PrimeField) -> DieudonneModule:
    """The (r+s)-dimensional module on x with F^r x = -V^s x.

    Basis ordering: x, Fx, ..., F^r x, Vx, ..., V^(s-1) x.  Indecomposable
    and local-local, with a-number 1.
    """
    if r < 1 or s < 1:
        raise ValueError("need r, s >= 1")
    n = r + s
    p = field.p
    frob = [[0] * n for _ in range(n)]
    ver = [[0] * n for _ in range(n)]
    for i in range(r):
        frob[i + 1][i] = 1
    if s == 1:
        ver[r][0] = p - 1
    else:
        ver[r + 1][0] = 1
        for j in range(1, s - 1):
            ver[r + j + 1][r + j] = 1
        ver[r][r + s - 1] = p - 1
    return DieudonneModule(Matrix.build(field, frob, n), Matrix.build(field, ver, n))


def h_rs(r: int, s: int, field: PrimeField) -> DieudonneModule:
    """Polarized companion of j_rs: self-dual for r = s, doubled otherwise.

    For r = s the form on j_rr is <x, F^r x> = 1 and <F^i x, V^(r-i) x> = -1
    for 1 <= i <= r - 1, extended antisymmetrically; otherwise j_rs is paired
    with its dual.
    """
    if r == s:
        core = j_rs(r, r, field)
        n = 2 * r
        rows = [[0] * n for _ in range(n)]
        rows[0][r] = 1
        rows[r][0] = -1
        for i in range(1, r):
            rows[i][2 * r - i] = -1     # <F^i x, V^(r-i) x>; V^k x has index r + k
            rows[2 * r - i][i] = 1
        paired = core.with_form(Matrix.build(field, rows, n))
        assert check_polarization(paired)
        return paired
    left = j_rs(r, s, field)
    right = dual(left)
    total = direct_sum(left, right)
    n = left.dim
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = field.p - 1
    paired = total.with_form(Matrix.build(field, rows, 2 * n))
    assert check_polarization(paired)  # the block-with-dual cross pairing is always compatible
    return paired


@dataclass(frozen=True)
class M11Embedding:
    """Witness for the inclusion of a supersingular block into j_rs."""

    r: int
    s: int
    generator: tuple[int, ...]
    frobenius_image: tuple[int, ...]


def m11_embedding(r: int, s: int, field: PrimeField) -> M11Embedding:
    """The explicit vector y = F^(r-1) x + V^(s-1) x with Fy = -Vy != 0."""
    if r < 2 or s < 2:
        raise ValueError("need r, s >= 2")
    module = j_rs(r, s, field)
    n = module.dim
    y = [0] * n
    y[r - 1] = 1          # F^(r-1) x
    y[r + s - 1] = 1      # V^(s-1) x
    fy = module.frobenius.apply(y)
    vy = module.verschiebung.apply(y)
    if tuple((a + b) % field.p for a, b in zip(fy, vy)) != (0,) * n or not any(fy):
        raise ValueError("embedding vector does not satisfy Fy = -Vy != 0")
    span_rank = Matrix.build(field, [y, list(fy)], n).rank()
    if span_rank != 2:
        raise ValueError("embedding vector does not span a 2-dimensional block")
    return M11Embedding(r=r, s=s, generator=tuple(y), frobenius_image=tuple(fy))


def feasible(q: ProfileQuery) -> bool:
    """Whether (g, f, a, s) occurs for a polarized module of half-dimension g.

    Exactly the union of the boundary case a = g - f (which forces s = a,
    with a = 0 only in the ordinary case f = g) and the open region
    0 <= s < a < g - f.
    """
    g, f, a, s = q.g, q.f, q.a, q.s
    if g < 0 or not 0 <= f <= g or a < 0 or s < 0:
        return False
    if a == g - f:
        return s == a and (a >= 1 or f == g)
    return s < a < g - f


def realize(q: ProfileQuery, field: PrimeField) -> DieudonneModule:
    """Build a polarized module with the exact invariants of a feasible query.

    Ordinary and supersingular blocks cover f and s.  Off the boundary
    a = g - f, the remainder is the canonical module of a type nu of length
    h = g - f - s with a-number a1 = a - s and no FV word: with c = h - a1,
    nu is 0, 1, ..., c - 2, then c - 1 repeated floor((a1 + 1) / 2) times,
    then c repeated floor((a1 + 2) / 2) times.  Proof sketch: nu_i < i
    everywhere, so f = 0, and a = h - nu_h = h - c = a1.  Walking the node
    maps gives the census: for odd a1 = 2k + 1 the single self-dual word
    F^(c+1) (VF)^k V^(c+1) (FV)^k, for even a1 = 2k the word
    F^(c+1) (VF)^(k-1) V and its dual.  Each word contains F^(c+1) with
    c >= 1, so none is FV and s = 0 (checked for every 2 <= h < 40).

    Every part carries its constructed form; the result is re-measured
    before being returned.
    """
    if not feasible(q):
        raise InfeasibleProfileError(f"profile {q} is not feasible")
    parts = [ord1(field) for _ in range(q.f)]
    parts += [i11(field) for _ in range(q.s)]
    # in the boundary case a == g - f the supersingular blocks already cover a = s
    if q.a < q.g - q.f:
        a1 = q.a - q.s
        c = q.g - q.f - q.s - a1
        nu = list(range(c - 1)) + [c - 1] * ((a1 + 1) // 2) + [c] * ((a1 + 2) // 2)
        parts.append(canonical_module(EOType.of(nu), field))
    module = direct_sum(zero_module(field), *parts)
    measured = (p_rank(module), a_number(module), superspecial_rank(module))
    if measured != (q.f, q.a, q.s):
        raise RuntimeError(f"realization produced {measured}, wanted {(q.f, q.a, q.s)}")
    return module


def supersingular_profile(g: int, s: int, field: PrimeField) -> DieudonneModule:
    """p-torsion of the supersingular existence construction for rank s.

    Allowed exactly for 0 <= s <= g - 2 or s = g; the gap at s = g - 1
    reflects that the only local-local polarized block of rank p^2 is the
    supersingular one.
    """
    if not (0 <= s <= g - 2 or s == g):
        raise InfeasibleProfileError(
            f"supersingular rank {s} is impossible in dimension {g}")
    parts = [i11(field) for _ in range(s)]
    if s < g:
        parts.append(canonical_module(EOType.of(range(g - s)), field))
    module = direct_sum(zero_module(field), *parts)
    if superspecial_rank(module) != s:
        raise RuntimeError("constructed module has the wrong superspecial rank")
    return module
