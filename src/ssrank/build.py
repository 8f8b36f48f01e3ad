"""Explicit module constructions and (g, f, a, s) feasibility and realization."""

from __future__ import annotations

__all__ = ["InfeasibleProfileError", "ProfileQuery", "feasible", "h_rs", "i11", "j_rs", "ord1",
           "realize", "supersingular_profile"]

from .bt1 import DieudonneModule, direct_sum, dual, zero_module
from .eo import EOType, canonical_module
from .ffmat import Matrix, PrimeField, _set, _Value
from .words import FV, census_invariants, decompose, word_module


class InfeasibleProfileError(ValueError):
    """The requested invariant profile cannot be realized."""


class ProfileQuery(_Value):
    """A requested tuple (g, f, a, s) of invariants."""

    __slots__ = _fields = ("g", "f", "a", "s")

    def __init__(self, g: int, f: int, a: int, s: int) -> None:
        _set(self, "g", g)  # hand-written: one per feasibility table row, where `_assign` costs 0.4 us more
        _set(self, "f", f)
        _set(self, "a", a)
        _set(self, "s", s)


def _hyperbolic_form(field: PrimeField, n: int) -> Matrix:
    """The 2n x 2n form pairing e_i with e_(n+i): <e_i, e_(n+i)> = 1 = -<e_(n+i), e_i>."""
    pairs = [(i, n + i, 1) for i in range(n)]
    return Matrix._sparse(field, 2 * n, pairs + [(j, i, -c) for i, j, c in pairs])


def i11(field: PrimeField) -> DieudonneModule:
    """The rank-p^2 supersingular block: Fx = y = -Vx, polarized by <x,y> = 1."""
    return word_module(FV, field).with_form(_hyperbolic_form(field, 1))


def ord1(field: PrimeField) -> DieudonneModule:
    """Ordinary rank-p^2 block: an etale line plus a multiplicative line."""
    return DieudonneModule(Matrix._sparse(field, 2, [(0, 0, 1)]), Matrix._sparse(field, 2, [(1, 1, 1)]),
                           _hyperbolic_form(field, 1))


def j_rs(r: int, s: int, field: PrimeField) -> DieudonneModule:
    """The (r+s)-dimensional module on x with F^r x = -V^s x.

    Basis ordering: x, Fx, ..., F^r x, Vx, ..., V^(s-1) x.  Indecomposable
    and local-local, with a-number 1.
    """
    if r < 1 or s < 1:
        raise ValueError("need r, s >= 1")
    frob = [(i + 1, i, 1) for i in range(r)]
    chain = [0, *range(r + 1, r + s)]  # x -> Vx -> ... -> V^(s-1) x -> -F^r x
    ver = [(b, a, 1) for a, b in zip(chain, chain[1:])] + [(r, chain[-1], -1)]
    return DieudonneModule(Matrix._sparse(field, r + s, frob), Matrix._sparse(field, r + s, ver))


def h_rs(r: int, s: int, field: PrimeField) -> DieudonneModule:
    """Polarized companion of j_rs: self-dual for r = s, doubled otherwise.

    For r = s the form on j_rr is <x, F^r x> = 1 and <F^i x, V^(r-i) x> = -1
    for 1 <= i <= r - 1, extended antisymmetrically; otherwise j_rs is paired
    with its dual by the hyperbolic form.
    """
    if r == s:
        # V^k x has index r + k
        pairs = [(0, r, 1), *((i, 2 * r - i, -1) for i in range(1, r))]
        form = Matrix._sparse(field, 2 * r, pairs + [(j, i, -c) for i, j, c in pairs])
        return j_rs(r, r, field).with_form(form)
    left = j_rs(r, s, field)
    return direct_sum(left, dual(left)).with_form(_hyperbolic_form(field, left.dim))


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
    everywhere, so f = 0, and a = h - nu_h = h - c = a1.  Walking the riffle
    permutation of psi gives the census: for odd a1 = 2k + 1 the single
    self-dual word F^(c+1) (VF)^k V^(c+1) (FV)^k, for even a1 = 2k the word
    F^(c+1) (VF)^(k-1) V and its dual.  Each word contains F^(c+1) with
    c >= 1, so none is FV and s = 0 (the tests check every 2 <= h < 40).

    Every part carries its constructed form and none is checked on its own;
    decomposing the sum validates it, and with it every part, once, and its
    word census gives f, a and s.
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
    bundle = census_invariants(decompose(module))
    measured = (bundle.f, bundle.a, bundle.s)
    if measured != (q.f, q.a, q.s):
        raise RuntimeError(f"realization produced {measured}, wanted {(q.f, q.a, q.s)}")
    return module


def supersingular_profile(g: int, s: int, field: PrimeField) -> DieudonneModule:
    """p-torsion of the supersingular existence construction for rank s.

    Allowed exactly for 0 <= s <= g - 2 or s = g; the gap at s = g - 1
    reflects that the only local-local polarized block of rank p^2 is the
    supersingular one.  The construction is the realization of the profile
    (g, 0, min(s + 1, g), s): s supersingular blocks plus, for s < g, the
    canonical module of nu = (0, 1, ..., g - s - 1), which has a-number 1.
    """
    if not (0 <= s <= g - 2 or s == g):
        raise InfeasibleProfileError(
            f"supersingular rank {s} is impossible in dimension {g}")
    return realize(ProfileQuery(g, 0, min(s + 1, g), s), field)
