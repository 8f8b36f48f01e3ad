"""Cyclic words in {F, V}: word-built modules, decomposition, census invariants.

Indecomposable summands of a module in canonical form correspond to the
connected components of its basis graph, and each component reads off as a
cyclic word.  The superspecial rank is the multiplicity of the word FV in
that census.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence

from .bt1 import (
    Bt1ValidationError,
    DieudonneModule,
    InvariantBundle,
    require_valid,
)
from .eo import EOType, eo_type_of, riffle
from .ffmat import Matrix, PrimeField, _set, _Value


class DecompositionError(ValueError):
    """Module is neither in word form nor canonicalizable."""


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


def all_cyclic_words(length: int) -> list[CyclicWord]:
    """All cyclic words of the given length, lexicographic by canonical form."""
    seen = set()
    for bits in range(2 ** length):
        s = "".join("V" if (bits >> i) & 1 else "F" for i in range(length))
        seen.add(_least_rotation(s))
    return [CyclicWord(s) for s in sorted(seen)]


def _census_key(item: tuple[CyclicWord, int]) -> tuple[int, str]:
    return len(item[0].letters), item[0].letters


class WordCensus(_Value):
    """Multiset of cyclic words with multiplicities, canonically ordered."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[tuple[CyclicWord, int], ...]) -> None:
        counts = tuple((w, m) for w, m in counts)
        keys = [_census_key(item) for item in counts]
        if any(a >= b for a, b in zip(keys, keys[1:])) or any(m <= 0 for _, m in counts):
            raise ValueError("census must list distinct words in order, with positive multiplicities")
        _set(self, "counts", counts)

    @classmethod
    def from_counter(cls, counter: Mapping[CyclicWord, int]) -> "WordCensus":
        return cls(tuple(sorted(((w, m) for w, m in counter.items() if m), key=_census_key)))

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
    invisible.)
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


# A walk from a cycle's least node reads a recurring word the same way each time
# (the 8190 types with g <= 12 have 1114 words), so each is rotated and made once.
_cycle_rotation = functools.lru_cache(maxsize=4096)(_least_rotation)
_cycle_word = functools.lru_cache(maxsize=4096)(CyclicWord._trusted)


def _census_of_cycles(succ: list[int | None], letters: Sequence[str]) -> WordCensus:
    """Census of the cycles of the permutation succ, node j read as letters[j].

    Each cycle is walked from its least node, clearing the successors it
    passes; its least rotation is counted in one pass over the sorted list.
    """
    cycles = []
    for start, node in enumerate(succ):
        if node is None:  # a walked node's successor is cleared
            continue
        word = letters[start]
        while node != start:
            word += letters[node]
            succ[node], node = None, succ[node]
        cycles.append(word)
    found = sorted(map(_cycle_rotation, cycles))
    found.sort(key=len)
    counts, last, m = [], "", 0
    for w in found:
        if w != last:
            if m:
                counts.append((_cycle_word(last), m))
            last, m = w, 0
        m += 1
    if m:
        counts.append((_cycle_word(last), m))
    return WordCensus._trusted(tuple(counts))


def _word_census(m: DieudonneModule) -> WordCensus | None:
    """Census of a module in word form, read straight off its packed columns, else None.

    None unless every operator column is zero or a signed unit and neither
    operator hits a node twice; a packed column (entry i in slot i) is a
    signed unit at i exactly when shifting out the slots below its lowest set
    bit leaves 1 or p - 1.  Walking forward along F and backward along V then
    gives each node one successor; once checked to be a permutation, its
    cycles are read off with no more checks.
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
    n = m.dim
    succ, letters = [f_next.get(j) for j in range(n)], ["F"] * n
    for j, k in v_next.items():
        if succ[k] is not None:
            raise DecompositionError("node has both an F-image and a V-preimage")
        succ[k], letters[k] = j, "V"
    if None in succ or len(set(succ)) != n:
        raise DecompositionError("a node has no successor or is entered twice")
    return _census_of_cycles(succ, letters)


def census_of_type(t: EOType) -> WordCensus:
    """Word census of the canonical module of a type, without building matrices.

    With (rises, flats) = riffle(t), psi climbs from 0 by steps of 0 or 1, so
    psi(rises[k] + 1) = k + 1 and V enters node k < g from rises[k], while F
    sends node g + m to flats[m].  Walking forward along F and backward along
    V thus steps by the permutation rises + flats; a node reads V iff < g.
    """
    rises, flats = riffle(t)
    return _census_of_cycles(rises + flats, "V" * len(rises) + "F" * len(flats))


def decompose(m: DieudonneModule) -> WordCensus:
    """Cyclic-word census of a valid module.

    Word-form inputs (every operator column a signed unit vector or zero) are
    walked directly; anything else is routed through its EO type and the
    canonical module.  Routing succeeds for every quasipolarizable input, but
    success does not imply that a form exists: F e0 = e1, V e0 = c e1 has
    type [0] and census FV for every c != 0, and a compatible form only for c = -1.
    """
    require_valid(m)
    census = _word_census(m)
    if census is not None:
        return census
    try:
        return census_of_type(eo_type_of(m))
    except (Bt1ValidationError, ValueError) as exc:
        raise DecompositionError(f"not in word form and not canonicalizable: {exc}") from exc


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
