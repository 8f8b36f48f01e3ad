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
from itertools import accumulate, product

from .bt1 import DieudonneModule, require_valid
from .ffmat import Matrix, PrimeField, _combine, _set, _Value


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
        """max { i : nu_i = i }, zero when no such i exists."""
        return max((i for i, v in enumerate(self.nu, 1) if v == i), default=0)

    def a_number(self) -> int:
        return self.g - self.nu[-1] if self.nu else 0

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.nu) + "]"


def enumerate_types(g: int) -> Iterator[EOType]:
    """All 2^g EO types of length g, in lexicographic order.

    A type is the running sum of its steps nu_i - nu_(i-1), each 0 or 1 from
    nu_0 = 0, and running sums keep the lexicographic order of the steps.
    """
    if g < 0:
        raise ValueError("g must be nonnegative")
    for steps in product((0, 1), repeat=g):
        yield EOType._trusted(tuple(accumulate(steps)))


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
    (proved below) whose V-image dimensions pin psi at the chain's dimensions.  Between
    consecutive chain members the V-rank must jump either not at all or by
    the full dimension gap (asserted), which interpolates psi everywhere.

    One canonical reduction of (F e_j | e_j) per module gives im F, ker F and a
    section sigma of F on im F.  Each member N then costs one echelon reduction, of
    the rows (V b | b) over a basis b of N that need not be echelon, which gives
    V(N) (its dimension is psi there) and K = N meet ker V.  Lower members are the
    V-images, with their echelon rows as the basis.  Upper members are the F^{-1}(N):
    as Fx lies in K and ker V = im F in a valid module, x - sigma(Fx) lies in ker F, so
    F^{-1}(N) = ker F + sigma(K), a direct sum because F o sigma is the identity on im F,
    of dimension dim ker F + dim K.  K = 0 gives ker F = F^{-1}(0), itself a member, and
    M is F^{-1}(M) with K = im F.  The rows (V b | b) over ker F are reduced once, as
    that member's reduction, and each other upper member resumes from that state with
    sigma's images of K's rows alone, built only for a dimension not yet seen.

    The closure is a chain without checking, by im V = ker F alone: every
    lower member lies in V(M) = ker F, every upper member contains
    F^{-1}(0) = ker F, and V and F^{-1} keep inclusions.  So, by induction
    from 0 and M, any two members are comparable, and distinct members have
    distinct dimensions: members are keyed by dimension.
    """
    require_valid(m)
    n, field, ver = m.dim, m.field, m.verschiebung
    im_rows, sources, ker_rows = m.frobenius._image_sources_kernel(Matrix.identity(field, n)._rows)
    by_pivot = {((r & -r).bit_length() - 1) // field._bits: s for r, s in zip(im_rows, sources)}
    section = [by_pivot.get(i, 0) for i in range(n)]  # sigma e_i: the source of im F's row with pivot i
    ker_state, ker_dim = ver._pair_echelon(ker_rows), len(ker_rows)  # (V b | b) over ker F

    psi_at: dict[int, int] = {}  # member dimension -> dim of its V-image
    todo = [(0, (), False), (n, im_rows, True)]  # (dim, rows of N, or of K for F^{-1}(N))
    while todo:
        dim, rows, upper = todo.pop()
        if dim in psi_at:
            continue
        if dim == ker_dim:
            state = ker_state
        elif upper:
            state = ver._pair_echelon(_combine(field, section, n, rows), ker_state)
        else:
            state = ver._pair_echelon(rows)
        image, _, meet = ver._halves(state.values())
        psi_at[dim] = len(image)
        todo += ((len(image), image, False), (ker_dim + len(meet), meet, True))

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
    """Recover the EO type of a valid module: its final profile, checked to be a type's.

    psi(1..g) needs no type check: _final_profile makes each step 0 or 1 from psi(0) = 0."""
    require_valid(m)
    n, g = m.dim, m.dim // 2
    if n % 2 != 0:
        raise FiltrationError("module dimension is odd; no EO type")
    psi = _final_profile(m)
    if psi[n] != g:
        raise FiltrationError("V has rank different from g; module is not self-balanced")
    for i in range(g + 1, n + 1):
        if psi[i] != psi[n - i] + i - g:
            raise FiltrationError("final profile is not symmetric; module is not quasipolarizable")
    return EOType._trusted(tuple(psi[1:g + 1]))
