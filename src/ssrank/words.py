"""Cyclic words in {F, V}: word-built modules, decomposition, census invariants.

Indecomposable summands of a module in canonical form correspond to the
connected components of its basis graph, and each component reads off as a
cyclic word.  The superspecial rank is the multiplicity of the word FV in
that census.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .bt1 import DieudonneModule, InvariantBundle, require_valid
from .eo import EOType, _final_profile, riffle
from .ffmat import Matrix, PrimeField, _set, _Value


class CyclicWord(_Value):
    """A nonempty cyclic word over {F, V}, stored in its least rotation."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: str) -> None:
        _check_letters(letters)
        if letters != _least_rotation(letters):
            raise ValueError("word is not in canonical rotation; use CyclicWord.of")
        _set(self, "letters", letters)

    @classmethod
    def of(cls, letters: str) -> "CyclicWord":
        """The cyclic word of letters, in least rotation; a power u^k stays one word u^k."""
        _check_letters(letters)
        return cls._trusted(_least_rotation(letters))

    @classmethod
    def _trusted(cls, letters: str) -> "CyclicWord":
        """Trusted constructor for letters already over {F, V} in least rotation."""
        w = object.__new__(cls)
        _set(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def is_mixed(self) -> bool:
        return "F" in self.letters and "V" in self.letters

    def frobenius_runs(self) -> int:
        """Number of maximal cyclic runs of F (0 for pure-V words)."""
        return (self.letters + self.letters[0]).count("FV")


def _check_letters(letters: str) -> None:
    if not letters or letters.strip("FV"):
        raise ValueError("word letters must be a nonempty string over {F, V}")


def _least_rotation(s: str) -> str:
    """Least rotation of a word over {F, V}.

    A pure word is its own least rotation.  A mixed one starts with F, and
    among its rotations that do, one starting at an F-run start (an F after a
    V) beats any starting inside that run, so only those are compared: each
    "VF" at j < n in s + s gives the rotation starting at j + 1.
    """
    if "F" not in s or "V" not in s:
        return s
    n = len(s)
    doubled = s + s
    j = doubled.find("VF")
    best = doubled[j + 1:j + 1 + n]
    j = doubled.find("VF", j + 1)
    while -1 < j < n:
        rotation = doubled[j + 1:j + 1 + n]
        if rotation < best:
            best = rotation
        j = doubled.find("VF", j + 1)
    return best


class WordCensus(_Value):
    """Multiset of cyclic words with multiplicities, canonically ordered."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[tuple[CyclicWord, int], ...]) -> None:
        counts = tuple((w, m) for w, m in counts)
        keys = [(len(w.letters), w.letters) for w, _ in counts]
        if any(a >= b for a, b in zip(keys, keys[1:])) or any(m <= 0 for _, m in counts):
            raise ValueError("census must list distinct words in order, with positive multiplicities")
        _set(self, "counts", counts)

    @classmethod
    def _trusted(cls, counts: tuple[tuple[CyclicWord, int], ...]) -> "WordCensus":
        """Trusted constructor for counts already sorted with positive multiplicities."""
        census = object.__new__(cls)
        _set(census, "counts", counts)
        return census

    def multiplicity(self, word: CyclicWord) -> int:
        for w, m in self.counts:
            if w.letters == word.letters:
                return m
        return 0

    def total_length(self) -> int:
        return sum(len(w) * m for w, m in self.counts)

    def as_dict(self) -> dict[str, int]:
        return {w.letters: m for w, m in self.counts}

    def joined(self) -> str:
        """Semicolon-joined expansion, one entry per summand."""
        return ";".join([w.letters for w, m in self.counts for _ in range(m)])


# the word of the supersingular block; its multiplicity is the superspecial rank
FV = CyclicWord("FV")


def word_module(w: CyclicWord, field: PrimeField) -> DieudonneModule:
    """The module carried by a cyclic word on basis z_1..z_n.

    Letter i acts between z_i and z_{i+1} (indices cyclic): an F sends z_i to
    z_{i+1} and V kills z_{i+1}; a V sends z_{i+1} down to z_i and F kills
    z_i.  For mixed words the wrap-around edge carries coefficient -1, so
    e.g. FV yields the relation Fx = -Vx of the rank-p^2 supersingular block
    rationally, not just over the algebraic closure.  (Mod 2 the twist is
    invisible.)  A power u^k gives one band, which splits over an algebraic
    closure into k bands of u, so `decompose` counts it as k copies of u.
    """
    n = len(w)
    closing = -1 if w.is_mixed() else 1
    frob, ver = [], []
    for i, letter in enumerate(w.letters):
        nxt, coeff = (i + 1) % n, closing if i == n - 1 else 1
        if letter == "F":
            frob.append((nxt, i, coeff))
        else:
            ver.append((i, nxt, coeff))
    return DieudonneModule(Matrix._sparse(field, n, frob), Matrix._sparse(field, n, ver))


# Every rotation of a cycle word maps to one shared entry (length, least rotation, word),
# so a census sorts and counts entries without building a word twice.  The g <= 12
# catalogue needs 2,228 keys (1,114 words and the other rotations its walk closes on);
# module files bring arbitrary raw words, so the cache is emptied when it fills.
_ENTRY_CAP = 4096
_entries: dict[str, tuple[int, str, CyclicWord]] = {}


def _entry(raw: str) -> tuple[int, str, CyclicWord]:
    """The shared census entry of the cyclic word whose letters, in some rotation, are raw."""
    entry = _entries.get(raw)
    if entry is None:
        least = _least_rotation(raw)
        entry = _entries.get(least) or (len(least), least, CyclicWord._trusted(least))
        if len(_entries) >= _ENTRY_CAP - 1:
            _entries.clear()
        _entries[raw] = _entries[least] = entry
    return entry


_FV_ENTRY = _entry("FV")


def _tally(entries: list[tuple[int, str, CyclicWord]]) -> WordCensus:
    """The census of cycles given by their entries: sorted by (length, letters), then counted.

    Equal entries compare equal also when the cache was emptied between them.
    """
    entries.sort()
    counts, last, m = [], None, 0
    for entry in entries:
        if entry != last:
            if m:
                counts.append((last[2], m))
            last, m = entry, 0
        m += 1
    if m:
        counts.append((last[2], m))
    return WordCensus._trusted(tuple(counts))


def _word_census(m: DieudonneModule) -> WordCensus | None:
    """Census of a valid module in word form, read straight off its packed columns, else None.

    None unless every operator column is zero or a signed unit and neither
    operator hits a node twice; a packed column (entry i in slot i) is a
    signed unit at i exactly when shifting out the slots below its lowest set
    bit leaves 1 or p - 1.  Walking forward along F and backward along V then
    gives each node one successor, and they form a permutation: ker F and
    im V are spanned by the nodes F kills and V hits, so ker F = im V gives
    each node an F-image or a V-preimage, never both, and likewise
    ker V = im F makes each node hit by F or not killed by V, never both.
    """
    bits, units = m.field._bits, {1, m.field.p - 1}
    maps = []
    for op in (m.frobenius, m.verschiebung):
        targets = {}  # node -> the node the operator sends it to; killed nodes left out
        for j, col in enumerate(op._columns()):
            if col:
                i = ((col & -col).bit_length() - 1) // bits
                if col >> bits * i not in units:
                    return None
                targets[j] = i
        if len(set(targets.values())) != len(targets):
            return None
        maps.append(targets)
    f_next, v_next = maps
    succ, letters = [f_next.get(j) for j in range(m.dim)], ["F"] * m.dim
    for j, k in v_next.items():
        succ[k], letters[k] = j, "V"
    return _cycle_census(succ, letters)


def _cycle_census(succ: list[int | None], letters: Sequence[str]) -> WordCensus:
    """The census of the cycles of the permutation succ, node k reading letters[k].

    Each cycle is walked from its least node, clearing the successors it
    passes.  A cycle that reads u^k, u primitive, counts as k copies of u.
    """
    cycles = []
    for start, node in enumerate(succ):
        if node is None:  # a walked node's successor is cleared
            continue
        word = letters[start]
        while node != start:
            word += letters[node]
            succ[node], node = None, succ[node]
        period = (word + word).find(word, 1)
        cycles += [_entry(word[:period])] * (len(word) // period)
    return _tally(cycles)


def _step(ends: list[tuple[int, str]], closed: list, g: int, j: int, p: int, rise: int) -> None:
    """Add the two riffle edges that step j of nu fixes, from psi(j) = p; see type_censuses.

    ends[t] is (head, letters) for the fragment whose tail is t, and ends[2g + h]
    is (tail, letters) for the one whose head is h; entries of nodes that stopped
    being ends are stale and never read again.  A closed cycle's entry goes to closed.
    """
    n = 2 * g
    r = p if rise else g + j - p
    for pos in (j, n - 1 - j):
        head, front = ends[r]
        tail, back = ends[n + pos]
        if head == pos:  # r's own fragment starts at pos: the edge closes it
            closed.append(_entry(front))
        else:
            word = front + back
            ends[tail] = (head, word)
            ends[n + head] = (tail, word)
        r = n - 1 - r  # the mirror edge


def census_of_type(t: EOType) -> WordCensus:
    """Word census of the canonical module of a type, read off its riffle without building matrices."""
    rises, flats = riffle(t)
    return _cycle_census(rises + flats, "V" * t.g + "F" * t.g)


def type_censuses(g: int, f: int | None = None, a: int | None = None,
                  s: int | None = None) -> Iterator[tuple[tuple[int, ...], int, int, WordCensus]]:
    """(nu, f, a, census) for every type of length g with the given f, a and s, nu-lex.

    One depth-first walk over nu's g step bits b_j = nu_(j+1) - nu_j (nu_0 = 0),
    1 a rise and 0 a flat.  Two types first differ at their first differing
    bit, where the one with a 0 has the smaller entry, so taking the flat
    child before the rise child lists the types in nu-lex order.  f = max{i :
    nu_i = i} is the number of leading rises and a = g - nu_g the number of
    flats, so a prefix of length j ending at p = nu_j bounds both: f lies in
    [j, g] while every step so far rises and is fixed once one is flat, and a
    lies in [j - p, g - p].  A subtree that cannot reach a wanted f or a is
    skipped whole.

    The census is read off the riffle permutation succ = rises + flats of the
    final type psi (psi(0) = 0, psi(i) = nu_i for i <= g, psi(2g - i) = psi(i) +
    g - i; see eo.riffle).  In eo.canonical_module V sends node rises[k] to
    node k < g and F sends node g + m to flats[m], so walking forward along F
    and backward along V steps by succ, a node reading V iff it is < g, and
    the census words are the letters along the cycles of succ.  succ lists the
    steps 0..2g - 1 stably sorted with rises first, so succ(r) = i where r,
    the rank of step i, is psi(i) for a rise (the rises before it) and g + i -
    psi(i) for a flat (g, then the flats before it).  psi(2g - i) = psi(i) +
    g - i gives psi(2g - j) - psi(2g - 1 - j) = 1 - (psi(j + 1) - psi(j)), so
    the mirror step 2g - 1 - j is flat exactly when step j rises.  With
    p = psi(j) and j < g:
      - a rise at j has rank p; its flat mirror has rank g + (2g - 1 - j) -
        psi(2g - 1 - j) = g + (2g - 1 - j) - (p + 1 + g - j - 1) = 2g - 1 - p;
      - a flat at j has rank g + j - p; its rising mirror has rank
        psi(2g - 1 - j) = psi(j + 1) + g - j - 1 = p + g - j - 1 =
        2g - 1 - (g + j - p).
    So step j adds the edges rank -> j and 2g - 1 - rank -> 2g - 1 - j, and
    after g steps every node has its successor.  Each edge joins the path
    fragment ending at its source to the one starting at its target; when
    those are one fragment, the edge closes a cycle, whose letters read from
    its head are a rotation of its word.  A closed cycle takes no more edges,
    so its word is shared by every type below that node, and the FV words
    closed so far bound s from below, which prunes a wanted s as well.
    """
    if g < 0:
        raise ValueError("g must be nonnegative")
    # (nu prefix, leading rises, fragment ends, closed); before any step each node k is a
    # fragment of its own, reading V iff k < g, at both ends
    todo = [((), 0, [(k, "V" if k < g else "F") for k in range(2 * g)] * 2, [])]
    while todo:
        nu, lead, ends, closed = todo.pop()
        j = len(nu)
        p = nu[-1] if nu else 0
        if f is not None and not lead <= f <= (g if lead == j else lead):
            continue
        if a is not None and not j - p <= a <= g - p:
            continue
        if s is not None and closed.count(_FV_ENTRY) > s:
            continue
        if j < g:
            for rise in (1, 0):  # the flat child goes on last, so it is walked first
                child_ends, child_closed = ends[:], closed[:]
                _step(child_ends, child_closed, g, j, p, rise)
                todo.append((nu + (p + rise,), lead + rise if lead == j else lead,
                             child_ends, child_closed))
        elif s is None or closed.count(_FV_ENTRY) == s:
            yield nu, lead, g - p, _tally(closed)


def decompose(m: DieudonneModule) -> WordCensus:
    """Cyclic-word census of a valid module, each word primitive.

    Word-form inputs (every operator column a signed unit vector or zero) are
    walked directly; any other is read off the riffle of its final profile,
    whose cycles read the primitive words of the census (Gessel-Reutenauer;
    Mantaci, Restivo, Rosone and Sciortino).  The census forgets each band's
    monodromy: F e0 = e1, V e0 = c e1 has census FV for every c != 0, and a
    compatible form only for c = -1.
    """
    require_valid(m)
    census = _word_census(m)
    if census is None:  # a node below rank V, the number of rises, reads V
        rises, flats = riffle(_final_profile(m))
        census = _cycle_census(rises + flats, "V" * len(rises) + "F" * len(flats))
    return census


def superspecial_rank(m: DieudonneModule) -> int:
    """Multiplicity of the word FV in the canonical decomposition."""
    return decompose(m).multiplicity(FV)


def census_invariants(census: WordCensus) -> InvariantBundle:
    """Invariants read off a census: f from pure words, a from F-runs, s from FV.

    Pure-F length-k words count k toward the etale rank (over the closure a
    length-k Frobenius cycle splits into k rank-p etale lines); likewise for
    pure V.  The two pure ranks must agree or the census has no defined
    p-rank.
    """
    etale = sum(len(w) * mult for w, mult in census.counts if "V" not in w.letters)
    toric = sum(len(w) * mult for w, mult in census.counts if "F" not in w.letters)
    if etale != toric:
        raise ValueError(f"census is not self-balanced: etale {etale} != multiplicative {toric}")
    a_num = sum(w.frobenius_runs() * mult for w, mult in census.counts if w.is_mixed())
    s_rank = census.multiplicity(FV)
    total = census.total_length()
    g = total // 2 if total % 2 == 0 else None
    return InvariantBundle(g=g, f=etale, a=a_num, s=s_rank)
