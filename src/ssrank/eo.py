"""Ekedahl-Oort types: enumeration, invariant formulas, canonical modules.

An EO type of length g is a sequence nu with nu_1 in {0, 1} and
nu_i <= nu_{i+1} <= nu_i + 1; there are exactly 2^g of them.  Each type
extends symmetrically to a final profile psi on 0..2g, from which a
canonical module is assembled whose operators are signed partial
permutation matrices and whose form is written down, not searched for.
The reverse direction reads the final profile of any valid module off its
canonical filtration, and the type of a quasipolarizable one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .bt1 import DieudonneModule, require_valid
from .ffmat import Matrix, PrimeField, Subspace, _combine, _set, _Value


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


class EOType(_Value):
    """The sequence [nu_1, ..., nu_g]; validated at construction."""

    __slots__ = _fields = ("nu",)

    def __init__(self, nu: tuple[int, ...]) -> None:
        nu = tuple(nu)
        if not validate_sequence(nu):
            raise ValueError(f"not a valid EO type: {list(nu)}")
        _set(self, "nu", nu)

    @classmethod
    def of(cls, nu: Sequence[int]) -> "EOType":
        return cls(tuple(int(x) for x in nu))

    @classmethod
    def _trusted(cls, nu: tuple[int, ...]) -> "EOType":
        """Trusted constructor for a tuple already known to be a valid EO type."""
        t = object.__new__(cls)
        _set(t, "nu", nu)
        return t

    @property
    def g(self) -> int:
        return len(self.nu)

    def p_rank(self) -> int:
        """max { i : nu_i = i }, zero when no such i exists.

        Those i are 1..f for some f, so the scan stops at the first miss:
        nu_1 <= 1 and nu_(i+1) <= nu_i + 1 give nu_i <= i, and once nu_i < i,
        nu_(i+1) <= nu_i + 1 < i + 1 keeps every later entry below its index.
        """
        nu, f = self.nu, 0
        while f < len(nu) and nu[f] == f + 1:
            f += 1
        return f

    def a_number(self) -> int:
        return self.g - self.nu[-1] if self.nu else 0

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.nu) + "]"


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


def riffle(psi: EOType | Sequence[int]) -> tuple[list[int], list[int]]:
    """The steps i where a profile psi rises, psi(i + 1) > psi(i), then the rest, both increasing.

    A type's riffle is that of its final type psi(0..2g): psi(i) = nu_i for
    i <= g and psi(2g - i) = psi(i) + g - i.
    """
    if isinstance(psi, EOType):
        g, psi = psi.g, [0, *psi.nu]
        psi += [psi[g - k] + k for k in range(1, g + 1)]
    rises, flats = [], []
    for i, (lo, hi) in enumerate(zip(psi, psi[1:])):
        (rises if hi > lo else flats).append(i)
    return rises, flats


def canonical_module(t: EOType, field: PrimeField) -> DieudonneModule:
    """The canonical module of an EO type with its constructed form.

    With (rises, flats) = riffle(t), F sends e_(g+m) to e_(flats[m]) with
    sign +1, and V sends e_(rises[k]) to e_k.  The form is anti-diagonal,
    <e_i, e_(2g-1-i)> = sigma(i) with sigma(i) = +1 for i < g and -1 for
    i >= g, which makes it alternating and nondegenerate.  Because psi is
    symmetric, the reflection i -> 2g-1-i turns every F edge j -> k into a
    V edge 2g-1-k -> 2g-1-j, so the anti-diagonal pairing matches the
    edges; <Fx, y> = <x, Vy> then fixes the sign of the V edge j -> k as
    sigma(2g-1-j) * sigma(2g-1-k).  Mod 2 every sign is +1.  The output
    satisfies the BT1 axioms and the form conditions; the tests check both
    for every tested p, and each command that returns a module validates it.
    """
    rises, flats = riffle(t)
    g, n = t.g, 2 * t.g

    def sigma(i: int) -> int:
        return 1 if i < g else -1

    frob = [(j, g + m, 1) for m, j in enumerate(flats)]
    ver = [(k, j, sigma(n - 1 - j) * sigma(n - 1 - k)) for k, j in enumerate(rises)]
    gram = [(j, n - 1 - j, sigma(j)) for j in range(n)]
    return DieudonneModule(Matrix._sparse(field, n, frob), Matrix._sparse(field, n, ver),
                           Matrix._sparse(field, n, gram))


def _final_profile(m: DieudonneModule) -> list[int]:
    """The final profile psi(0..n) of a valid module of dimension n, from its canonical filtration.

    Closes {0, M} under N -> V(N) and N -> F^{-1}(N); the result is a chain
    whose V-image dimensions pin psi at the chain's dimensions.  Between
    consecutive chain members the V-rank must jump either not at all or by
    the full dimension gap (asserted), which interpolates psi everywhere.

    One reduction of (F e_j | e_j) per module gives im F, ker F and a
    section sigma of F on im F.  Each member N then costs one reduction, of
    the rows (V b | b) over a basis b of N that need not be echelon, which
    gives V(N) (kept for psi) and K = N meet ker V.  Lower members are the
    V-images; they lie in im V = ker F and are keyed by their echelon basis.
    Upper members are the F^{-1}(N): as Fx lies in K and ker V = im F in a
    valid module, x - sigma(Fx) lies in ker F, so F^{-1}(N) = ker F + sigma(K),
    a direct sum because F o sigma is the identity on im F.  Each is kept
    unreduced as ker F's rows followed by sigma's images of K's rows, and
    keyed by K = F(F^{-1}(N)), which determines it.  K = 0 gives ker F =
    V(M), a lower member; M is F^{-1}(M), keyed by ker V = im F.  Every
    lower member lies in ker F and every upper one strictly contains it,
    so the chain check compares lower members among themselves and upper
    members through their keys, and no pair across.
    """
    require_valid(m)
    n, field = m.dim, m.field
    im_rows, sources, ker_rows = m.frobenius._image_sources_kernel(Subspace.full(field, n)._rows)
    im_f, ker_f = Subspace._from_rows(field, n, im_rows), Subspace._from_rows(field, n, ker_rows)
    by_pivot = dict(zip(im_f.pivots(), sources))
    section = [by_pivot.get(i, 0) for i in range(n)]  # sigma e_i: the source of im F's row with pivot i

    lower: dict[Subspace, int] = {}  # lower member -> dim of its V-image
    upper: dict[Subspace, int] = {}  # K -> dim V(ker F + sigma(K))

    def f_inverse(meet: Subspace) -> tuple[dict[Subspace, int], Subspace]:
        """Where F^{-1}(N) is kept, given K = N meet ker V."""
        return (upper, meet) if meet.dim else (lower, ker_f)

    todo = [(lower, Subspace.zero(field, n)), f_inverse(im_f)]
    while todo:
        members, key = todo.pop()
        if key not in members:
            rows = (key._rows if members is lower
                    else ker_f._rows + tuple(_combine(field, section, n, key._rows)))
            image, _, meet = m.verschiebung._image_sources_kernel(rows)
            members[key] = len(image)
            todo += ((lower, Subspace._from_rows(field, n, image)),
                     f_inverse(Subspace._from_rows(field, n, meet)))

    for keys in (sorted(lower, key=lambda s: s.dim), sorted(upper, key=lambda s: s.dim)):
        for small, big in zip(keys, keys[1:]):
            if small.dim == big.dim or not big.contains(small):
                raise FiltrationError("canonical closure is not a chain")

    psi_at = {sub.dim: rank for sub, rank in lower.items()}
    psi_at.update((ker_f.dim + sub.dim, rank) for sub, rank in upper.items())
    psi = [0] * (n + 1)
    dims = sorted(psi_at)
    for lo, hi in zip(dims, dims[1:]):
        jump = psi_at[hi] - psi_at[lo]
        if jump not in (0, hi - lo):
            raise FiltrationError("graded piece has partial V-rank; not a BT1 filtration")
        for i in range(lo, hi + 1):
            psi[i] = psi_at[lo] + (i - lo if jump else 0)
    return psi


def eo_type_of(m: DieudonneModule) -> EOType:
    """Recover the EO type of a valid module: its final profile, checked to be a type's."""
    psi, n, g = _final_profile(m), m.dim, m.dim // 2
    if n % 2 != 0:
        raise FiltrationError("module dimension is odd; no EO type")
    if psi[n] != g:
        raise FiltrationError("V has rank different from g; module is not self-balanced")
    for i in range(g + 1, n + 1):
        if psi[i] != psi[n - i] + i - g:
            raise FiltrationError("final profile is not symmetric; module is not quasipolarizable")
    return EOType(tuple(psi[1:g + 1]))
