"""Curve applications: hyperelliptic covers in characteristic 2 and Hermitian curves.

For a hyperelliptic curve y^2 + y = h(x) over an algebraically closed field
of characteristic 2 the cohomology splits by the pole divisor of h, so the
superspecial rank is read off the odd pole orders alone.  For the Hermitian
curve y^q + y = x^(q+1), q = p^n, all invariants are closed-form in p and n,
with the indecomposable factors indexed by doubling orbits on Z/(2^n+1).
"""

from __future__ import annotations

from .bt1 import DieudonneModule, direct_sum, zero_module
from .eo import EOType, canonical_module
from .ffmat import GF2, PrimeField, _Value
from .build import ord1


class PoleDivisor(_Value):
    """Pole orders d_0, ..., d_r of h(x); each must be odd and positive."""

    __slots__ = _fields = ("orders",)

    def __init__(self, orders: tuple[int, ...]) -> None:
        orders = tuple(orders)
        if not orders:
            raise ValueError("a pole divisor needs at least one pole")
        for d in orders:
            if d < 1 or d % 2 == 0:
                raise ValueError(f"pole orders must be odd positive integers, got {d}")
        self._assign(orders)

    @classmethod
    def of(cls, orders) -> "PoleDivisor":
        return cls(tuple(int(d) for d in orders))

    @property
    def r(self) -> int:
        return len(self.orders) - 1

    @property
    def genus(self) -> int:
        """g = r + sum of c_j, where d_j = 2 c_j + 1."""
        return self.r + sum((d - 1) // 2 for d in self.orders)


class HyperellipticReport(_Value):
    """Invariants of a genus-g hyperelliptic curve in characteristic 2."""

    __slots__ = _fields = ("poles", "g", "f", "c", "s", "s_bound", "e_bound", "summands")

    def __init__(self, poles: tuple[int, ...], g: int, f: int, c: tuple[int, ...], s: int,
                 s_bound: int, e_bound: int, summands: tuple[tuple[int, ...], ...]) -> None:
        self._assign(poles, g, f, c, s, s_bound, e_bound, summands)


class HermitianReport(_Value):
    """Invariants of the Hermitian curve for q = p^n."""

    __slots__ = _fields = ("p", "n", "q", "g", "a", "s", "e_bound", "orbits",
                           "zeta_numerator_exponent", "points_q2")

    def __init__(self, p: int, n: int, q: int, g: int, a: int, s: int, e_bound: int,
                 orbits: tuple[tuple[int, ...], ...], zeta_numerator_exponent: int,
                 points_q2: int) -> None:
        self._assign(p, n, q, g, a, s, e_bound, orbits, zeta_numerator_exponent, points_q2)


def hyp2_rank0_type(g: int) -> EOType:
    """EO type [0,1,1,2,2,...] of the 2-rank-zero hyperelliptic curve of genus g."""
    if g < 1:
        raise ValueError("genus must be positive")
    return EOType.of(i // 2 for i in range(1, g + 1))


def hyp2_analyze(divisor: PoleDivisor) -> HyperellipticReport:
    """Closed-form invariants of y^2 + y = h(x) from the pole orders of h."""
    c = tuple((d - 1) // 2 for d in divisor.orders)
    r = divisor.r
    g = divisor.genus
    s = sum(1 for cj in c if cj % 3 == 1)
    s_bound = 1 + r
    e_bound = min(1 + 2 * r, r + s)
    summands = tuple((1,) for _ in range(r))
    summands += tuple(hyp2_rank0_type(cj).nu for cj in c if cj >= 1)
    assert 2 * g + 2 == sum(d + 1 for d in divisor.orders)
    return HyperellipticReport(poles=divisor.orders, g=g, f=r, c=c, s=s,
                               s_bound=s_bound, e_bound=e_bound, summands=summands)


def hyp2_module_oracle(divisor: PoleDivisor) -> DieudonneModule:
    """Assemble the cohomology module over F_2 pole by pole.

    One ordinary block per extra pole, plus the canonical 2-rank-zero module
    of genus c_j for every pole of order 2 c_j + 1 >= 3.  The superspecial
    rank of the result independently checks the closed form.
    """
    parts = [ord1(GF2) for _ in range(divisor.r)]
    parts += [canonical_module(hyp2_rank0_type((d - 1) // 2), GF2)
              for d in divisor.orders if d >= 3]
    return direct_sum(zero_module(GF2), *parts)


def doubling_orbits(n: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of Z/(2^n + 1) minus 0 under multiplication by 2, for n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    modulus = 2 ** n + 1
    seen = [False] * modulus
    orbits = []
    for start in range(1, modulus):
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = (2 * x) % modulus
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def hermitian_analyze(p: int, n: int) -> HermitianReport:
    """All reported invariants of the Hermitian curve y^q + y = x^(q+1)."""
    PrimeField(p)  # raises unless p is a prime with 2 <= p <= 97
    if n < 1:
        raise ValueError("n must be at least 1")
    q = p ** n
    g = q * (q - 1) // 2
    a_times_4 = q * (p ** (n - 1) + 1) * (p - 1)
    assert a_times_4 % 4 == 0
    a = a_times_4 // 4
    orbits = doubling_orbits(n)
    has_two_orbit = any(len(o) == 2 for o in orbits)
    s = (p * (p - 1) // 2) ** n if has_two_orbit else 0
    return HermitianReport(p=p, n=n, q=q, g=g, a=a, s=s, e_bound=s,
                           orbits=orbits, zeta_numerator_exponent=g,
                           points_q2=q ** 3 + 1)


def ekedahl_bound(p: int, g: int) -> bool:
    """Genus bound for superspecial curves: g <= p(p-1)/2."""
    return g <= p * (p - 1) // 2

