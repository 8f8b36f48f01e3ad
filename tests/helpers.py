"""Shared test utilities: independent brute-force searches (embeddings over F_2,
polarizations over F_p), twisted word modules, and the straightforward forms
of faster code paths, kept as references, and word and census builders that
only tests use."""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Mapping

from ssrank.bt1 import DieudonneModule, require_valid
from ssrank.eo import EOType, FiltrationError
from ssrank.ffmat import Matrix, PrimeField
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


# Dense subspace oracles: a subspace of F_p^n is the tuple of its canonical RREF rows, as
# entry tuples, from `reference_rref_modp`; images are dense products, containment is
# "the RREF of both bases is the bigger one", and nothing reads the library's packed rows.

def reference_span(vectors, n, p):
    """The canonical RREF rows of the span of the vectors in F_p^n."""
    return tuple(map(tuple, reference_rref_modp([list(v) for v in vectors], n, p)[0]))


def reference_kernel(rows, ncols, p):
    """The canonical RREF rows of {v : rows v = 0} in F_p^ncols."""
    reduced, pivots = reference_rref_modp([list(r) for r in rows], ncols, p)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free] % p
        basis.append(v)
    return reference_span(basis, ncols, p)


def reference_product(a, b, p):
    """The dense product of entry rows a (k columns) and b (k rows)."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def reference_image(op: Matrix, basis):
    """The canonical RREF rows of op(S), for vectors that span S."""
    rows, p = op.entries, op.field.p
    return reference_span([[sum(a * b for a, b in zip(row, v)) % p for row in rows] for v in basis],
                          op.nrows, p)


def reference_contains(big, small, n, p):
    """Whether span(small) lies in span(big), for big in canonical RREF rows of F_p^n."""
    return reference_span(list(big) + list(small), n, p) == tuple(big)


def reference_preimage(op: Matrix, basis):
    """The canonical RREF rows of {v : op v in S}, for vectors that span S: the kernel of the
    rows of S's annihilator times op."""
    p = op.field.p
    annihilator = reference_kernel(basis, op.nrows, p)
    return reference_kernel(reference_product(annihilator, op.entries, p), op.ncols, p)


def reference_validate_bt1(m: DieudonneModule) -> list[str]:
    """BT1 violations found by comparing dense kernels with dense images, and form violations
    from the dense Gram entries: a transpose, a diagonal, a kernel and two products."""
    f, v, p, n = m.frobenius.entries, m.verschiebung.entries, m.field.p, m.dim
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    violations = []
    if any(map(any, reference_product(f, v, p))):
        violations.append("F*V != 0")
    if any(map(any, reference_product(v, f, p))):
        violations.append("V*F != 0")
    if reference_kernel(f, n, p) != reference_image(m.verschiebung, identity):
        violations.append("ker(F) != im(V)")
    if reference_kernel(v, n, p) != reference_image(m.frobenius, identity):
        violations.append("ker(V) != im(F)")
    if m.form is not None:
        gram = m.form.entries
        if any((gram[i][j] + gram[j][i]) % p for i in range(n) for j in range(n)):
            violations.append("form is not antisymmetric")
        if any(gram[i][i] for i in range(n)):
            violations.append("form has a nonzero diagonal entry")
        if reference_kernel(gram, n, p):
            violations.append("form is degenerate")
        if reference_product([list(col) for col in zip(*f)], gram, p) != reference_product(gram, v, p):
            violations.append("form does not satisfy <Fx,y> = <x,Vy>")
    return violations


def reference_final_profile(m: DieudonneModule) -> list[int]:
    """psi(0..n) from the canonical filtration, closed as a set of dense canonical RREF
    tuples under `reference_image` of V and `reference_preimage` of F."""
    require_valid(m)
    n, p = m.dim, m.field.p
    frob, ver = m.frobenius, m.verschiebung

    full = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    chain = {(), full}
    frontier = list(chain)
    while frontier:
        fresh = []
        for sub in frontier:
            for candidate in (reference_image(ver, sub), reference_preimage(frob, sub)):
                if candidate not in chain:
                    chain.add(candidate)
                    fresh.append(candidate)
        frontier = fresh

    ordered = sorted(chain, key=len)
    for small, big in zip(ordered, ordered[1:]):
        if len(small) == len(big) or not reference_contains(big, small, n, p):
            raise FiltrationError("canonical closure is not a chain")

    psi_at = {len(sub): len(reference_image(ver, sub)) for sub in ordered}
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
    return psi


def reference_eo_type_of(m: DieudonneModule) -> EOType:
    """EO type from `reference_final_profile`, checked to be a type's final type."""
    psi = reference_final_profile(m)
    n = len(psi) - 1
    if n % 2 != 0:
        raise FiltrationError("module dimension is odd; no EO type")
    g = n // 2
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


def primitive_root(letters: str) -> tuple[str, int]:
    """(u, k) with letters = u^k and u primitive, by trying every length that divides."""
    n = len(letters)
    d = next(d for d in range(1, n + 1) if n % d == 0 and letters[:d] * (n // d) == letters)
    return letters[:d], n // d


def split_census(letters: list[str]) -> WordCensus:
    """The census of a sum of word modules, each power u^k counted as k copies of u."""
    counts: dict[CyclicWord, int] = {}
    for w in letters:
        root, k = primitive_root(w)
        u = CyclicWord.of(root)
        counts[u] = counts.get(u, 0) + k
    return census_from_counter(counts)


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
