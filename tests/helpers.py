"""Shared test utilities: an independent brute-force embedding counter over F_2,
and the straightforward forms of faster code paths, kept as references."""

from __future__ import annotations

from ssrank.bt1 import DieudonneModule, _form_violations, require_valid
from ssrank.eo import EOType, FiltrationError
from ssrank.ffmat import Subspace


def _pack(vec) -> int:
    acc = 0
    for j, e in enumerate(vec):
        if e:
            acc |= 1 << j
    return acc


def _try_add(v: int, basis: dict[int, int]) -> bool:
    """Insert v into an XOR basis keyed by highest set bit; False if dependent."""
    while v:
        high = v.bit_length() - 1
        row = basis.get(high)
        if row is None:
            basis[high] = v
            return True
        v ^= row
    return False


def brute_force_embedding_count(m: DieudonneModule) -> int:
    """Largest u such that u independent supersingular blocks embed, by search.

    Enumerates every nonzero element of ker(F + V) and looks for the largest
    set m_1, ..., m_u whose combined vectors {m_i, F m_i} stay linearly
    independent.  Exponential and completely independent of the closed form
    it is used to check.  F_2 only.
    """
    if m.field.p != 2:
        raise ValueError("brute force oracle is written for p = 2")
    n = m.dim
    fcols = [_pack(m.frobenius.column(j)) for j in range(n)]

    def apply_f(v: int) -> int:
        acc = 0
        j = 0
        while v:
            if v & 1:
                acc ^= fcols[j]
            v >>= 1
            j += 1
        return acc

    kernel_basis = [_pack(b) for b in m.frobenius.add(m.verschiebung).kernel().basis]
    elements = []
    for mask in range(1, 1 << len(kernel_basis)):
        acc = 0
        for i, b in enumerate(kernel_basis):
            if (mask >> i) & 1:
                acc ^= b
        elements.append(acc)

    best = 0

    def extend(start: int, basis: dict[int, int], depth: int) -> None:
        nonlocal best
        best = max(best, depth)
        if depth == n // 2:
            return
        for idx in range(start, len(elements)):
            v = elements[idx]
            candidate = dict(basis)
            if not _try_add(v, candidate):
                continue
            if not _try_add(apply_f(v), candidate):
                continue
            extend(idx + 1, candidate, depth + 1)

    extend(0, {}, 0)
    return best


def reference_rref_modp(rows, ncols, p):
    """The dense sweep that scales and eliminates whole rows."""
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][col] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(e * inv) % p for e in work[rank]]
        piv = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] % p:
                c = work[i][col] % p
                work[i] = [(a - c * b) % p for a, b in zip(work[i], piv)]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def reference_validate_bt1(m: DieudonneModule) -> list[str]:
    """BT1 violations found by comparing kernels with images as subspaces."""
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


def reference_eo_type_of(m: DieudonneModule) -> EOType:
    """EO type from the canonical filtration closed with `map_subspace` and `preimage`."""
    require_valid(m)
    n = m.dim
    if n % 2 != 0:
        raise FiltrationError("module dimension is odd; no EO type")
    g = n // 2
    frob, ver = m.frobenius, m.verschiebung

    chain = {Subspace.zero(m.field, n), Subspace.full(m.field, n)}
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
