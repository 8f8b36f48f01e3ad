"""Shared test utilities: independent brute-force searches (embeddings over F_2,
polarizations over F_p), twisted word modules, and the straightforward forms
of faster code paths, kept as references, and word and census builders that
only tests use."""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Mapping

from ssrank.bt1 import DieudonneModule, _form_violations, require_valid
from ssrank.eo import EOType, FiltrationError
from ssrank.ffmat import Matrix, PrimeField, Subspace
from ssrank.words import CyclicWord, WordCensus, _least_rotation, word_module


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
    fcols = [_pack(col) for col in m.frobenius.transpose().entries]

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


def conjugated(m: DieudonneModule, rng) -> DieudonneModule:
    """m in a random basis: C F C^-1 and C V C^-1 for a random invertible C."""
    field, n = m.field, m.dim
    while True:
        change = Matrix.build(field, [[rng.randrange(field.p) for _ in range(n)]
                                      for _ in range(n)], n)
        if change.rank() == n:
            break
    inv = change.inverse()
    return DieudonneModule(change @ m.frobenius @ inv, change @ m.verschiebung @ inv)


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
    full = Subspace.full(m.field, m.dim)
    if f.kernel() != v.map_subspace(full):
        violations.append("ker(F) != im(V)")
    if v.kernel() != f.map_subspace(full):
        violations.append("ker(V) != im(F)")
    if m.form is not None:
        violations.extend(_form_violations(m))
    return violations


def reference_preimage(op: Matrix, sub: Subspace) -> Subspace:
    """{v : op v in sub}: the kernel of (the rows of sub's annihilator) @ op."""
    annihilator = Matrix.build(op.field, sub.basis, op.nrows).kernel()
    return (Matrix.build(op.field, annihilator.basis, op.nrows) @ op).kernel()


def reference_eo_type_of(m: DieudonneModule) -> EOType:
    """EO type from the canonical filtration closed with `map_subspace` and `reference_preimage`."""
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
            for candidate in (ver.map_subspace(sub), reference_preimage(frob, sub)):
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


def reference_census_of_type(t: EOType) -> list[tuple[str, int]]:
    """(word, multiplicity) for the canonical module of t, by (length, word).

    Walks the None-padded node maps: psi extends nu symmetrically to 0..2g,
    V sends node i to psi(i + 1) - 1 at each rise of psi, and F sends node
    g + m to the m-th flat.  Each cycle goes forward along F and backward along
    V, and its least rotation is the least of all its rotations.
    """
    g = len(t.nu)
    psi = [0, *t.nu] + [0] * g
    for i in range(g + 1, 2 * g + 1):
        psi[i] = psi[2 * g - i] + i - g
    flats = [i for i in range(2 * g) if psi[i + 1] == psi[i]]
    f_next = [None] * g + flats
    v_next = [psi[i + 1] - 1 if psi[i + 1] > psi[i] else None for i in range(2 * g)]
    v_source = {k: j for j, k in enumerate(v_next) if k is not None}
    counts: dict[str, int] = {}
    seen = [False] * (2 * g)
    for start in range(2 * g):
        word, node = "", start
        while not seen[node]:
            seen[node] = True
            word += "F" if f_next[node] is not None else "V"
            node = f_next[node] if f_next[node] is not None else v_source[node]
        assert node == start or not word, "the node maps do not split into cycles"
        if word:
            least = min(word[i:] + word[:i] for i in range(len(word)))
            counts[least] = counts.get(least, 0) + 1
    return sorted(counts.items(), key=lambda item: (len(item[0]), item[0]))


def all_cyclic_words(length: int) -> list[CyclicWord]:
    """All cyclic words of the given length, lexicographic by canonical form."""
    seen = set()
    for bits in range(2 ** length):
        s = "".join("V" if (bits >> i) & 1 else "F" for i in range(length))
        seen.add(_least_rotation(s))
    return [CyclicWord(s) for s in sorted(seen)]


def census_from_counter(counter: Mapping[CyclicWord, int]) -> WordCensus:
    """The census of the words with nonzero count, through the validating constructor."""
    return WordCensus(tuple(sorted(((w, m) for w, m in counter.items() if m),
                                   key=lambda item: (len(item[0]), item[0].letters))))


def _omega_order(u: str, v: str) -> int:
    """Compare u^omega with v^omega: they differ, if at all, within uv and vu."""
    return (u + v > v + u) - (u + v < v + u)


def type_of_census(census: WordCensus) -> EOType:
    """The type whose canonical census is census, by the extended Burrows-Wheeler transform.

    Every rotation of every word, repeated by its multiplicity, sorted in
    omega-order with V < F; their last letters are the step word of psi, V at
    a rise and F at a flat, so nu_i counts the V among the first i of them.
    """
    order = str.maketrans("VF", "01")
    rotations = sorted(((w.letters[i:] + w.letters[:i]).translate(order)
                        for w, m in census.counts for _ in range(m) for i in range(len(w))),
                       key=functools.cmp_to_key(_omega_order))
    rises = [r[-1] == "0" for r in rotations]
    return EOType(tuple(itertools.accumulate(rises[:len(rises) // 2])))


def twisted_word_module(letters: str, lam: int, field: PrimeField) -> DieudonneModule:
    """`word_module` with the edge that closes the word scaled by lam.

    The twist changes the band's monodromy, which no rescaling of the basis
    undoes; lam = 1 gives the word module itself.
    """
    m = word_module(CyclicWord.of(letters), field)
    n = m.dim
    frob = [list(row) for row in m.frobenius.entries]
    ver = [list(row) for row in m.verschiebung.entries]
    if letters[-1] == "F":
        frob[0][n - 1] *= lam
    else:
        ver[n - 1][0] *= lam
    return DieudonneModule(Matrix.build(field, frob, n), Matrix.build(field, ver, n))


def compatible_form_basis(m: DieudonneModule) -> tuple[tuple[int, ...], ...]:
    """Basis of the compatible alternating forms, as coefficients on the pairs i < j.

    The kernel of G -> F^T G - G V on the alternating unit matrices, applied
    with matrix products.
    """
    field, n = m.field, m.dim
    images = []
    for i, j in itertools.combinations(range(n), 2):
        rows = [[0] * n for _ in range(n)]
        rows[i][j], rows[j][i] = 1, -1
        unit = Matrix.build(field, rows, n)
        image = (m.frobenius.transpose() @ unit).add((unit @ m.verschiebung).neg())
        images.append([e for row in image.entries for e in row])
    return Matrix.build(field, images, n * n).transpose().kernel().basis


def brute_force_has_polarization(m: DieudonneModule) -> bool:
    """Whether some compatible alternating form on m is nondegenerate, trying all of F_p^d."""
    n, p = m.dim, m.field.p
    pairs = list(itertools.combinations(range(n), 2))
    basis = compatible_form_basis(m)
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), *column in zip(pairs, *basis):
            rows[i][j] = sum(c * e for c, e in zip(coeffs, column)) % p
            rows[j][i] = -rows[i][j]
        if Matrix.build(m.field, rows, n).rank() == n:
            return True
    return False


def reference_to_json(m: DieudonneModule) -> str:
    """The canonical module JSON as json.dumps of the entry lists."""
    def lists(matrix: Matrix | None):
        return [list(row) for row in matrix.entries] if matrix is not None else None

    return json.dumps({"p": m.field.p, "dim": m.dim, "F": lists(m.frobenius),
                       "V": lists(m.verschiebung), "form": lists(m.form)}, separators=(",", ":"))
