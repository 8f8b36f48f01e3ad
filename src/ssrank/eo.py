"""Ekedahl-Oort types: enumeration, invariant formulas, canonical modules.

An EO type of length g is a sequence nu with nu_1 in {0, 1} and
nu_i <= nu_{i+1} <= nu_i + 1; there are exactly 2^g of them.  Each type
extends symmetrically to a final profile psi on 0..2g, from which a
canonical module is assembled whose operators are signed partial
permutation matrices and whose form is written down, not searched for.
The reverse direction recovers the type of an arbitrary valid module from
its canonical filtration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .bt1 import DieudonneModule, require_valid
from .ffmat import Matrix, PrimeField, Subspace


class FiltrationError(ValueError):
    """Canonical filtration failed to interpolate; input is not classifiable."""


def validate_sequence(nu: Sequence[int]) -> bool:
    """Whether a raw integer sequence is a well-formed EO type."""
    if len(nu) == 0:
        return True
    if nu[0] not in (0, 1):
        return False
    for a, b in zip(nu, nu[1:]):
        if not a <= b <= a + 1:
            return False
    return True


@dataclass(frozen=True)
class EOType:
    """The sequence [nu_1, ..., nu_g]; validated at construction."""

    nu: tuple[int, ...]

    def __post_init__(self) -> None:
        if not validate_sequence(self.nu):
            raise ValueError(f"not a valid EO type: {list(self.nu)}")

    @classmethod
    def of(cls, nu: Sequence[int]) -> "EOType":
        return cls(tuple(int(x) for x in nu))

    @classmethod
    def _trusted(cls, nu: tuple[int, ...]) -> "EOType":
        """Trusted constructor for a tuple already known to be a valid EO type."""
        t = object.__new__(cls)
        object.__setattr__(t, "nu", nu)
        return t

    @property
    def g(self) -> int:
        return len(self.nu)

    def p_rank(self) -> int:
        """max { i : nu_i = i }, zero when no such i exists."""
        best = 0
        for i, v in enumerate(self.nu, start=1):
            if v == i:
                best = i
        return best

    def a_number(self) -> int:
        return self.g - self.nu[-1] if self.nu else 0

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.nu) + "]"


@dataclass(frozen=True)
class FinalType:
    """The symmetric extension psi(0..2g) of an EO type."""

    psi: tuple[int, ...]

    def __post_init__(self) -> None:
        psi = self.psi
        if len(psi) % 2 == 0 or not psi:
            raise ValueError("psi must have odd length 2g + 1")
        g = (len(psi) - 1) // 2
        if psi[0] != 0 or psi[2 * g] != g:
            raise ValueError("psi must run from 0 to g")
        for a, b in zip(psi, psi[1:]):
            if b - a not in (0, 1):
                raise ValueError("psi steps must be 0 or 1")
        for i in range(g + 1, 2 * g + 1):
            if psi[i] != psi[2 * g - i] + i - g:
                raise ValueError("psi is not symmetric")

    @property
    def g(self) -> int:
        return (len(self.psi) - 1) // 2


def enumerate_types(g: int) -> Iterator[EOType]:
    """All 2^g EO types of length g, in lexicographic order."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    nu = [0] * g
    while True:
        yield EOType._trusted(tuple(nu))
        i = g - 1
        while i >= 0 and nu[i] == (nu[i - 1] + 1 if i else 1):
            i -= 1
        if i < 0:
            return
        nu[i:] = [nu[i] + 1] * (g - i)  # raise the rightmost entry that can; refill after it


def _final_profile(nu: tuple[int, ...]) -> list[int]:
    """psi on 0..2g: 0, then nu, then psi(i) = psi(2g - i) + i - g above g."""
    g = len(nu)
    psi = [0, *nu]
    return psi + [psi[g - k] + k for k in range(1, g + 1)]


def extend_final(t: EOType) -> FinalType:
    """The validated final type of t."""
    return FinalType(tuple(_final_profile(t.nu)))


def node_maps(t: EOType) -> tuple[list[int | None], list[int | None]]:
    """Successor maps of the canonical module on basis indices 0..2g-1.

    v_next[j] is the index hit by V on basis vector j (None when V kills it);
    f_next[j] likewise for F.  V jumps land on e_psi(i) at every psi-increase;
    F sends the top half onto the stagnant indices in order.  psi is not
    re-validated: for a valid nu it is symmetric with steps in {0, 1}.
    """
    g = t.g
    psi = _final_profile(t.nu)
    v_next: list[int | None] = [None] * (2 * g)
    stagnant: list[int | None] = []
    for i in range(2 * g):
        if psi[i + 1] > psi[i]:
            v_next[i] = psi[i + 1] - 1
        else:
            stagnant.append(i)
    if len(stagnant) != g:
        raise FiltrationError("final profile does not have g stagnant steps")
    return [None] * g + stagnant, v_next


def canonical_module(t: EOType, field: PrimeField) -> DieudonneModule:
    """The canonical module of an EO type with its constructed form.

    F is +1 on every F edge of the node maps.  The form is anti-diagonal,
    <e_i, e_(2g-1-i)> = sigma(i) with sigma(i) = +1 for i < g and -1 for
    i >= g, which makes it alternating and nondegenerate.  Because psi is
    symmetric, the reflection i -> 2g-1-i turns every F edge j -> k into a
    V edge 2g-1-k -> 2g-1-j, so the anti-diagonal pairing matches the node
    maps; <Fx, y> = <x, Vy> then fixes the sign of the V edge j -> k as
    sigma(2g-1-j) * sigma(2g-1-k).  Mod 2 every sign is +1.  The output
    satisfies the BT1 axioms and the form conditions (asserted).
    """
    f_next, v_next = node_maps(t)
    n = 2 * t.g

    def sigma(i: int) -> int:
        return 1 if i < t.g else -1

    frob = [[0] * n for _ in range(n)]
    ver = [[0] * n for _ in range(n)]
    gram = [[0] * n for _ in range(n)]
    for j in range(n):
        if f_next[j] is not None:
            frob[f_next[j]][j] = 1
        if v_next[j] is not None:
            ver[v_next[j]][j] = sigma(n - 1 - j) * sigma(n - 1 - v_next[j])
        gram[j][n - 1 - j] = sigma(j)
    m = DieudonneModule(Matrix.build(field, frob, n), Matrix.build(field, ver, n),
                        Matrix.build(field, gram, n))
    require_valid(m)
    return m


def eo_type_of(m: DieudonneModule) -> EOType:
    """Recover the EO type of a valid module from its canonical filtration.

    Closes {0, M} under N -> V(N) and N -> F^{-1}(N); the result is a chain
    whose V-image dimensions pin psi at the chain's dimensions.  Between
    consecutive chain members the V-rank must jump either not at all or by
    the full dimension gap (asserted), which interpolates psi everywhere.
    """
    require_valid(m)
    n = m.dim
    if n % 2 != 0:
        raise FiltrationError("module dimension is odd; no EO type")
    g = n // 2
    frob, ver = m.frobenius, m.verschiebung

    chain: set[Subspace] = {Subspace.zero(m.field, n), Subspace.full(m.field, n)}
    frontier = list(chain)
    while frontier:
        fresh = []
        for sub in frontier:
            for candidate in (ver.map_subspace(sub), frob.preimage(sub)):
                if candidate not in chain:
                    chain.add(candidate)
                    fresh.append(candidate)
        frontier = fresh

    ordered = sorted(chain, key=lambda s: s.dim)
    for small, big in zip(ordered, ordered[1:]):
        if small.dim == big.dim or not big.contains(small):
            raise FiltrationError("canonical closure is not a chain")

    psi_at = {sub.dim: ver.map_subspace(sub).dim for sub in ordered}
    psi = [0] * (n + 1)
    dims = sorted(psi_at)
    for lo, hi in zip(dims, dims[1:]):
        jump = psi_at[hi] - psi_at[lo]
        if jump == 0:
            for i in range(lo, hi + 1):
                psi[i] = psi_at[lo]
        elif jump == hi - lo:
            for i in range(lo, hi + 1):
                psi[i] = psi_at[lo] + (i - lo)
        else:
            raise FiltrationError("graded piece has partial V-rank; not a BT1 filtration")
    psi[n] = psi_at[n]

    if psi[n] != g:
        raise FiltrationError("V has rank different from g; module is not self-balanced")
    for i in range(g + 1, n + 1):
        if psi[i] != psi[n - i] + i - g:
            raise FiltrationError("final profile is not symmetric; module is not quasipolarizable")
    return EOType(tuple(psi[1:g + 1]))
