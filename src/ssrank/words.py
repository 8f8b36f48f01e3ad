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
from .ffmat import Matrix, PrimeField, _Value


class CyclicWord(_Value):
    """A nonempty cyclic word over {F, V}, stored in its least rotation."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: str) -> None:
        _check_letters(letters)
        if letters != _least_rotation(letters):
            raise ValueError("word is not in canonical rotation; use CyclicWord.of")
        self._assign(letters)

    @classmethod
    def of(cls, letters: str) -> "CyclicWord":
        """The cyclic word of letters, in least rotation; a power u^k stays one word u^k."""
        _check_letters(letters)
        return cls._trusted(_least_rotation(letters))

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
    """Least rotation of a word over {F, V}."""
    return min(s[i:] + s[:i] for i in range(len(s)))


class WordCensus(_Value):
    """Multiset of cyclic words with multiplicities, canonically ordered."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[tuple[CyclicWord, int], ...]) -> None:
        counts = tuple((w, m) for w, m in counts)
        keys = [(len(w.letters), w.letters) for w, _ in counts]
        if any(a >= b for a, b in zip(keys, keys[1:])) or any(m <= 0 for _, m in counts):
            raise ValueError("census must list distinct words in order, with positive multiplicities")
        self._assign(counts)

    def multiplicity(self, word: CyclicWord) -> int:
        for w, m in self.counts:
            if w.letters == word.letters:
                return m
        return 0

    def total_length(self) -> int:
        return sum(len(w) * m for w, m in self.counts)

    def as_dict(self) -> dict[str, int]:
        return {w.letters: m for w, m in self.counts}


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
# so a census sorts and counts entries without building a word twice, and a catalogue
# row reads its words and counts straight off its type's sorted entries.  The g <= 12
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


def _tally(entries: list[tuple[int, str, CyclicWord]]) -> WordCensus:
    """The census of cycles given by their entries, sorted by (length, letters): a run is a word.

    Equal entries compare equal, and so sort together, also when the cache was
    emptied between them.
    """
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
    """Census of a valid module in word form, read straight off its node maps, else None.

    None unless every operator column has one nonzero entry or none (the node
    maps of `Matrix._node_map`, which validation reads too).  Validity then does
    the rest.  im V is spanned by the nodes V hits, so ker F = im V is spanned
    by nodes, and F e_a = c e_i, F e_b = d e_i with a != b would put d e_a - c e_b,
    hence e_a, in ker F though F e_a != 0: F hits no node twice, and ker F is
    spanned by the nodes F kills.  Likewise, by ker V = im F, for V.
    Walking forward along F and backward along V then gives each node one
    successor, and they form a permutation: ker F = im V gives each node an
    F-image or a V-preimage, never both, and ker V = im F makes each node
    hit by F or not killed by V, never both.
    """
    f_next, v_next = m.frobenius._node_map(), m.verschiebung._node_map()
    if f_next is None or v_next is None:
        return None
    succ, letters = [None] * m.dim, ["F"] * m.dim
    for j, (i, _) in f_next.items():
        succ[j] = i
    for j, (k, _) in v_next.items():
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
    cycles.sort()
    return _tally(cycles)


def _step(ends: list[tuple[int, str]], closed: list, g: int, j: int, p: int, rise: int) -> int:
    """Add the two riffle edges that step j of nu fixes, from psi(j) = p; see _type_entries.

    ends[t] is (head, letters) for the fragment whose tail is t, and ends[2g + h]
    is (tail, letters) for the one whose head is h; entries of nodes that stopped
    being ends are stale and never read again.  A closed cycle's entry goes to closed,
    and the number of closed cycles that read FV is returned.
    """
    n, fv = 2 * g, 0
    r = p if rise else g + j - p
    for pos in (j, n - 1 - j):
        head, front = ends[r]
        tail, back = ends[n + pos]
        if head == pos:  # r's own fragment starts at pos: the edge closes it
            entry = _entry(front)
            closed.append(entry)
            fv += entry[1] == "FV"
        else:
            word = front + back
            ends[tail] = (head, word)
            ends[n + head] = (tail, word)
        r = n - 1 - r  # the mirror edge
    return fv


def census_of_type(psi: EOType | Sequence[int]) -> WordCensus:
    """Word census of the canonical module of a type or final profile, read off its riffle
    without building matrices; a node reads V when it lies below rank V, the number of rises."""
    rises, flats = riffle(psi)
    return _cycle_census(rises + flats, "V" * len(rises) + "F" * len(flats))


def _type_entries(g: int, f: int | None = None, a: int | None = None,
                  s: int | None = None) -> Iterator[tuple[str, int, int, int, list]]:
    """(nu_text, f, a, s, entries) for every type of length g with the given f, a and s, nu-lex.

    nu_text is nu_1..nu_g joined by ";", as a CSV row prints it.  entries is
    the census as a list of the shared entries (length, letters, word) of
    _entry, one per summand, sorted by (length, letters): word u of
    multiplicity m comes m times, and s is the number of FV entries.  The
    list is the caller's own.

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
    closed so far bound s from below, which prunes a wanted s as well.  Each
    node carries its nu prefix as text, j, p = nu_j and that FV count, which
    _step adds to by the entry's letters (a closing FV reads FV or VF).

    The last step, j = g - 1, is taken in closed form, and both leaves are
    yielded from the node at depth g - 1, flat first.  Steps 0..g - 2 reached
    the nodes 0..g - 2 and g + 1..2g - 1, so g - 1 and g have no predecessor
    yet.  Every node is the source of exactly one of the 2g edges, as succ is
    a permutation, and step g - 1's sources are p and 2g - 1 - p
    (p = nu_(g - 1)) whether it rises or not, so these two alone have no
    successor yet.  The 2g - 2 edges so far,
    each node with at most one in and one out, form cycles and paths, a path
    running from a node without predecessor to one without successor: so
    exactly two fragments are open, w1 with head g - 1 and w2 with head g,
    their tails p and 2g - 1 - p in some order.  The rise child adds p -> g - 1
    and 2g - 1 - p -> g, the flat child 2g - 1 - p -> g - 1 and p -> g.  If
    w1's tail is p, the rise child closes w1 and w2 as two cycles and the flat
    child closes the one cycle w2 w1; otherwise the two children swap roles.
    A leaf's f, a and FV count are then known exactly, so the filters there
    are equalities.
    """
    if g < 0:
        raise ValueError("g must be nonnegative")
    if g == 0:  # the one empty type, with f = a = s = 0
        if not (f or a or s):
            yield "", 0, 0, 0, []
        return
    n = 2 * g
    digits = [str(k) for k in range(g + 1)]
    marks = [k + ";" for k in digits]
    # (nu prefix text, j, p, leading rises, fragment ends, closed, closed FVs); before any
    # step each node k is a fragment of its own, reading V iff k < g, at both ends
    todo = [("", 0, 0, 0, [(k, "V" if k < g else "F") for k in range(n)] * 2, [], 0)]
    while todo:
        text, j, p, lead, ends, closed, fv = todo.pop()
        if f is not None and not lead <= f <= (g if lead == j else lead):
            continue
        if a is not None and not j - p <= a <= g - p:
            continue
        if s is not None and fv > s:
            continue
        if j < g - 1:
            # the rise child copies the lists; the flat child, pushed last so walked first,
            # takes them over, as this node reads them no more
            rise_ends, rise_closed = ends[:], closed[:]
            rise_fv = fv + _step(rise_ends, rise_closed, g, j, p, 1)
            todo.append((text + marks[p + 1], j + 1, p + 1, lead + 1 if lead == j else lead,
                         rise_ends, rise_closed, rise_fv))
            fv += _step(ends, closed, g, j, p, 0)
            todo.append((text + marks[p], j + 1, p, lead, ends, closed, fv))
            continue
        # the last step in closed form: w1 heads at g - 1, w2 at g
        tail, w1 = ends[n + j]
        w2 = ends[n + g][1]
        e1, e2, e12 = _entry(w1), _entry(w2), _entry(w2 + w1)
        apart = ([e1, e2], fv + (e1[1] == "FV") + (e2[1] == "FV"))
        joined = ([e12], fv + (e12[1] == "FV"))
        for rise, (new, leaf_s) in ((0, joined), (1, apart)) if tail == p else ((0, apart), (1, joined)):
            leaf_lead = lead + rise if lead == j else lead
            if ((f is None or f == leaf_lead) and (a is None or a == g - p - rise)
                    and (s is None or s == leaf_s)):
                entries = closed + new
                entries.sort()
                yield text + digits[p + rise], leaf_lead, g - p - rise, leaf_s, entries


def decompose(m: DieudonneModule) -> WordCensus:
    """Cyclic-word census of a valid module, each word primitive.

    Word-form inputs, every operator column with one nonzero entry or none (`Matrix._node_map`),
    twisted bands too, are walked directly; any other goes through census_of_type on its final
    profile, whose riffle's cycles read the primitive words of the census (Gessel-Reutenauer;
    Mantaci, Restivo, Rosone and Sciortino).  The census forgets each band's monodromy:
    F e0 = e1, V e0 = c e1 has census FV for every c != 0, and a compatible form only for c = -1.
    """
    require_valid(m)
    census = _word_census(m)
    return census_of_type(_final_profile(m)) if census is None else census


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
