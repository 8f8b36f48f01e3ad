"""The benchmark's own arithmetic: matrices over F_p and EO-type combinatorics.

Nothing here imports ssrank.  Request inputs are built from these routines
and every response is checked against them, so a change to the code under
test can neither alter a workload nor vouch for its own answers.

Matrices are lists of rows under ssrank's column-action convention: column
j is the image of basis vector j.
"""

from __future__ import annotations

import random
from collections import Counter


def rref(rows, ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of the given rows over F_p, with pivot columns."""
    work = [[e % p for e in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        lead = [(e * inv) % p for e in work[rank]]
        work[rank] = lead
        for i, row in enumerate(work):
            c = row[col]
            if i != rank and c:
                work[i] = [(x - c * y) % p for x, y in zip(row, lead)]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def rank(rows, ncols: int, p: int) -> int:
    return len(rref(rows, ncols, p)[1])


def matmul(a, b, p: int):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def is_zero(a) -> bool:
    return not any(any(row) for row in a)


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def power(a, k: int, p: int):
    result = identity(len(a))
    while k:
        if k & 1:
            result = matmul(result, a, p)
        a = matmul(a, a, p)
        k >>= 1
    return result


def kernel(a, ncols: int, p: int) -> list[list[int]]:
    """A basis (as rows) of {v : a v = 0}."""
    reduced, pivots = rref(a, ncols, p)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = (-row[free]) % p
        basis.append(v)
    return basis


def inverse(a, p: int):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(a)
    reduced, pivots = rref([list(row) + identity(n)[i] for i, row in enumerate(a)], 2 * n, p)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        return None
    return [row[n:] for row in reduced]


def random_invertible(n: int, p: int, rng: random.Random):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = inverse(m, p)
        if inv is not None:
            return m, inv


# --- BT1 checks ------------------------------------------------------------


def bt1_violations(frob, ver, p: int) -> list[str]:
    """Violated BT1 axioms: FV = VF = 0 plus ker F = im V and ker V = im F.

    Given FV = VF = 0, both exchange axioms reduce to rank F + rank V = dim.
    """
    n = len(frob)
    out = []
    if not is_zero(matmul(frob, ver, p)):
        out.append("FV != 0")
    if not is_zero(matmul(ver, frob, p)):
        out.append("VF != 0")
    if rank(frob, n, p) + rank(ver, n, p) != n:
        out.append("rank F + rank V != dim")
    return out


def form_violations(frob, ver, form, p: int) -> list[str]:
    """Violations of: alternating, nondegenerate, <Fx,y> = <x,Vy>."""
    n = len(frob)
    out = []
    if any((form[i][j] + form[j][i]) % p for i in range(n) for j in range(n)):
        out.append("form is not antisymmetric")
    if any(form[i][i] % p for i in range(n)):
        out.append("form has a nonzero diagonal entry")
    if rank(form, n, p) != n:
        out.append("form is degenerate")
    if matmul(transpose(frob), form, p) != matmul(form, ver, p):
        out.append("form does not satisfy <Fx,y> = <x,Vy>")
    return out


def p_rank(op, p: int) -> int:
    """Dimension of the stable image of an operator."""
    n = len(op)
    return rank(power(op, n, p), n, p) if n else 0


def a_number(frob, ver, p: int) -> int:
    """dim(ker F intersect ker V)."""
    n = len(frob)
    return n - rank(list(frob) + list(ver), n, p)


def unpolarized_rank(frob, ver, p: int) -> int:
    """dim F(ker(F + V))."""
    n = len(frob)
    plus = [[(x + y) % p for x, y in zip(r1, r2)] for r1, r2 in zip(frob, ver)]
    w = kernel(plus, n, p)
    return rank([[sum(frob[i][j] * v[j] for j in range(n)) % p for i in range(n)] for v in w], n, p)


# --- EO types, node maps, censuses -----------------------------------------


def all_types(g: int) -> list[tuple[int, ...]]:
    """The 2^g EO types of length g, in lexicographic order."""
    out = [()]
    for _ in range(g):
        out = [nu + (c,) for nu in out for c in ((0, 1) if not nu else (nu[-1], nu[-1] + 1))]
    return out


def type_f(nu) -> int:
    return max((i for i, v in enumerate(nu, start=1) if v == i), default=0)


def type_a(nu) -> int:
    return len(nu) - nu[-1] if nu else 0


def node_maps(nu) -> tuple[list, list]:
    """F and V successor maps of the canonical module of nu on 0..2g-1.

    psi extends nu symmetrically to 0..2g; V sends e_(i-1) to e_(psi(i)-1) at
    each increase of psi, and F sends the top g basis vectors onto the
    indices just below the stagnant steps, in order.
    """
    g = len(nu)
    psi = [0] + list(nu) + [0] * g
    for i in range(g + 1, 2 * g + 1):
        psi[i] = psi[2 * g - i] + i - g
    f_next: list = [None] * (2 * g)
    v_next: list = [None] * (2 * g)
    stagnant = []
    for i in range(1, 2 * g + 1):
        if psi[i] > psi[i - 1]:
            v_next[i - 1] = psi[i] - 1
        else:
            stagnant.append(i)
    for k, i in enumerate(stagnant):
        f_next[g + k] = i - 1
    return f_next, v_next


def least_rotation(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def walk_cycles(f_next, v_next):
    """Cycles of the basis graph, each a list of edges in walk order.

    From a node the walk follows F when F moves it, else goes back along the
    V edge that lands on it.  An edge is ('F', source) or ('V', source), so
    its letter comes first and the operator column it occupies second.
    Returns None when the maps do not form a disjoint union of cycles.
    """
    n = len(f_next)
    v_pre = {t: j for j, t in enumerate(v_next) if t is not None}
    if len(v_pre) != sum(t is not None for t in v_next):
        return None
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        steps = []
        node = start
        while True:
            seen[node] = True
            if f_next[node] is not None:
                steps.append(("F", node))
                node = f_next[node]
            elif node in v_pre:
                steps.append(("V", v_pre[node]))
                node = v_pre[node]
            else:
                return None
            if node == start:
                break
            if seen[node] or len(steps) > n:
                return None
        cycles.append(steps)
    return cycles


def census_of_maps(f_next, v_next) -> Counter | None:
    cycles = walk_cycles(f_next, v_next)
    if cycles is None:
        return None
    return Counter(least_rotation("".join(letter for letter, _ in c)) for c in cycles)


def census_of_type(nu) -> Counter:
    return census_of_maps(*node_maps(nu))


def canonical_module(nu, p: int) -> tuple[list, list]:
    """(F, V) of the canonical module of nu with sign-corrected structure constants.

    Every edge carries +1 except the closing edge of each mixed cycle, which
    carries -1 (the cyclic-word convention, invisible mod 2).
    """
    f_next, v_next = node_maps(nu)
    n = len(f_next)
    frob = [[0] * n for _ in range(n)]
    ver = [[0] * n for _ in range(n)]
    for j, t in enumerate(f_next):
        if t is not None:
            frob[t][j] = 1
    for j, t in enumerate(v_next):
        if t is not None:
            ver[t][j] = 1
    for cycle in walk_cycles(f_next, v_next):
        letters = {letter for letter, _ in cycle}
        if letters == {"F", "V"}:
            kind, src = cycle[-1]
            op, nxt = (frob, f_next) if kind == "F" else (ver, v_next)
            op[nxt[src]][src] = p - 1
    return frob, ver


def conjugate(frob, ver, p: int, rng: random.Random) -> tuple[list, list]:
    """(P F P^-1, P V P^-1) for a random invertible P."""
    n = len(frob)
    mat, inv = random_invertible(n, p, rng)
    return (matmul(matmul(mat, frob, p), inv, p), matmul(matmul(mat, ver, p), inv, p))


def word_form_maps(op, p: int) -> list | None:
    """Targets of an operator whose columns are 0 or a signed unit vector, else None."""
    n = len(op)
    out: list = []
    for j in range(n):
        support = [i for i in range(n) if op[i][j]]
        if not support:
            out.append(None)
        elif len(support) == 1 and op[support[0]][j] in (1, p - 1):
            out.append(support[0])
        else:
            return None
    hit = [t for t in out if t is not None]
    return out if len(hit) == len(set(hit)) else None


def eo_type_of(frob, ver, p: int) -> tuple[int, ...] | None:
    """EO type from the canonical filtration (closure of {0, M} under V and F^-1).

    Returns None when the closure is not a chain or its profile is not
    symmetric (the module is not quasipolarizable).
    """
    n = len(frob)
    if n % 2:
        return None

    def span(vectors) -> tuple:
        return tuple(map(tuple, rref(vectors, n, p)[0]))

    def image(op, sub) -> tuple:
        return span([[sum(op[i][j] * b[j] for j in range(n)) % p for i in range(n)] for b in sub])

    def preimage(op, sub) -> tuple:
        ann = kernel(sub, n, p) if sub else identity(n)
        return span(kernel(matmul(ann, op, p), n, p)) if ann else span(identity(n))

    full = span(identity(n))
    chain = {(), full}
    frontier = [(), full]
    while frontier:
        fresh = []
        for sub in frontier:
            for cand in (image(ver, sub), preimage(frob, sub)):
                if cand not in chain:
                    chain.add(cand)
                    fresh.append(cand)
        frontier = fresh
    ordered = sorted(chain, key=len)
    for small, big in zip(ordered, ordered[1:]):
        if len(small) == len(big) or rank(list(big) + list(small), n, p) != len(big):
            return None
    psi_at = {len(sub): len(image(ver, sub)) for sub in ordered}
    psi = [0] * (n + 1)
    dims = sorted(psi_at)
    for lo, hi in zip(dims, dims[1:]):
        jump = psi_at[hi] - psi_at[lo]
        if jump not in (0, hi - lo):
            return None
        for i in range(lo, hi + 1):
            psi[i] = psi_at[lo] + (i - lo if jump else 0)
    g = n // 2
    if psi[n] != g or any(psi[i] != psi[n - i] + i - g for i in range(g + 1, n + 1)):
        return None
    return tuple(psi[1:g + 1])


def census_of_module(frob, ver, p: int) -> Counter | None:
    """Word census of a valid module: walked in word form, else via its EO type."""
    f_next, v_next = word_form_maps(frob, p), word_form_maps(ver, p)
    if f_next is not None and v_next is not None:
        census = census_of_maps(f_next, v_next)
        if census is not None:
            return census
    nu = eo_type_of(frob, ver, p)
    return census_of_type(nu) if nu is not None else None


def feasible_profiles(g: int) -> set[tuple[int, int, int]]:
    """(f, a, s) reached by the canonical census of some EO type of length g."""
    return {(type_f(nu), type_a(nu), census_of_type(nu)["FV"]) for nu in all_types(g)}
