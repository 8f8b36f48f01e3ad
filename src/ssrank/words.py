"""Cyclic words in {F, V}: word-built modules, decomposition, census invariants.

Indecomposable summands of a module in canonical form correspond to the
connected components of its basis graph, and each component reads off as a
cyclic word.  The superspecial rank is the multiplicity of the word FV in
that census.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .bt1 import (
    Bt1ValidationError,
    DieudonneModule,
    InvariantBundle,
    require_valid,
)
from .eo import EOType, eo_type_of, node_maps
from .ffmat import Matrix, PrimeField


class DecompositionError(ValueError):
    """Module is neither in word form nor canonicalizable."""


@dataclass(frozen=True)
class CyclicWord:
    """A nonempty cyclic word over {F, V}, stored in its least rotation."""

    letters: str

    def __post_init__(self) -> None:
        _check_letters(self.letters)
        if self.letters != _least_rotation(self.letters):
            raise ValueError("word is not in canonical rotation; use CyclicWord.of")

    @classmethod
    def of(cls, letters: str) -> "CyclicWord":
        _check_letters(letters)
        return cls._trusted(_least_rotation(letters))

    @classmethod
    def _trusted(cls, letters: str) -> "CyclicWord":
        """Trusted constructor for letters already over {F, V} in least rotation."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def is_mixed(self) -> bool:
        return "F" in self.letters and "V" in self.letters

    def frobenius_runs(self) -> int:
        """Number of maximal cyclic runs of F (0 for pure-V words)."""
        s = self.letters
        n = len(s)
        return sum(1 for i in range(n) if s[i] == "F" and s[(i + 1) % n] == "V")


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


@dataclass(frozen=True)
class WordCensus:
    """Multiset of cyclic words with multiplicities, canonically ordered."""

    counts: tuple[tuple[CyclicWord, int], ...]

    def __post_init__(self) -> None:
        keys = [_census_key(item) for item in self.counts]
        if any(a >= b for a, b in zip(keys, keys[1:])) or any(m <= 0 for _, m in self.counts):
            raise ValueError("census must list distinct words in order, with positive multiplicities")

    @classmethod
    def from_counter(cls, counter: Mapping[CyclicWord, int]) -> "WordCensus":
        items = sorted(((w, m) for w, m in counter.items() if m), key=_census_key)
        if any(m < 0 for _, m in items):
            raise ValueError("census must be sorted with positive multiplicities")
        return cls._trusted(tuple(items))

    @classmethod
    def _trusted(cls, counts: tuple[tuple[CyclicWord, int], ...]) -> "WordCensus":
        """Trusted constructor for counts already sorted with positive multiplicities."""
        census = object.__new__(cls)
        object.__setattr__(census, "counts", counts)
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
    p = field.p
    frob = [[0] * n for _ in range(n)]
    ver = [[0] * n for _ in range(n)]
    sign_closing = (p - 1) if w.is_mixed() else 1
    for i in range(1, n + 1):
        letter = w.letters[i - 1]
        here = i - 1
        nxt = i % n
        coeff = sign_closing if i == n else 1
        if letter == "F":
            frob[nxt][here] = coeff
        else:
            ver[here][nxt] = coeff
    return DieudonneModule(Matrix.build(field, frob, n), Matrix.build(field, ver, n))


def _word_maps(m: DieudonneModule) -> tuple[list[int | None], list[int | None]] | None:
    """Successor maps (f_next, v_next) as `eo.node_maps` gives them, else None.

    None unless every operator column is a signed unit or zero and no target is hit twice.
    """
    n = m.dim
    p = m.field.p
    unit_values = {1, p - 1}

    def targets(mat: Matrix) -> list[int | None] | None:
        out: list[int | None] = []
        for j in range(n):
            col = mat.column(j)
            support = [i for i, e in enumerate(col) if e]
            if not support:
                out.append(None)
            elif len(support) == 1 and col[support[0]] in unit_values:
                out.append(support[0])
            else:
                return None
        return out

    f_next = targets(m.frobenius)
    v_next = targets(m.verschiebung)
    if f_next is None or v_next is None:
        return None
    for nxt in (f_next, v_next):
        hit = [t for t in nxt if t is not None]
        if len(hit) != len(set(hit)):
            return None
    return f_next, v_next


# A walk from a cycle's least node reads a recurring word the same way each time
# (the 8190 types with g <= 12 have 1114 words), so each is rotated and made once.
_cycle_rotation = functools.lru_cache(maxsize=4096)(_least_rotation)
_cycle_word = functools.lru_cache(maxsize=4096)(CyclicWord._trusted)


def _census_of_cycles(cycles: list[str]) -> WordCensus:
    """Census of cycles read as letters F and V, in (length, letters) order."""
    found = sorted(map(_cycle_rotation, cycles))
    found.sort(key=len)
    return WordCensus._trusted(tuple([(_cycle_word(w), found.count(w))
                                      for w in dict.fromkeys(found)]))


def _census_of_maps(f_next: list[int | None], v_next: list[int | None]) -> WordCensus:
    """Census of the cycles walked forward along F and backward along V.

    That walk gives each node one successor; once checked to be a
    permutation, its cycles are read off with no more checks.
    """
    n = len(f_next)
    succ, letters = list(f_next), ["F"] * n
    for j, k in enumerate(v_next):
        if k is not None:
            if succ[k] is not None:
                raise DecompositionError("node has both an F-image and a V-preimage")
            succ[k], letters[k] = j, "V"
    if None in succ or len(set(succ)) != n:
        raise DecompositionError("a node has no successor or is entered twice")
    cycles = []
    for start, node in enumerate(succ):
        if node is None:  # a walked node's successor is cleared
            continue
        word = letters[start]
        while node != start:
            word += letters[node]
            succ[node], node = None, succ[node]
        cycles.append(word)
    return _census_of_cycles(cycles)


def census_of_type(t: EOType) -> WordCensus:
    """Word census of the canonical module of a type, without building matrices."""
    return _census_of_maps(*node_maps(t))


def decompose(m: DieudonneModule) -> WordCensus:
    """Cyclic-word census of a valid module.

    Word-form inputs (every operator column a signed unit vector or zero) are
    walked directly; anything else is routed through its EO type and the
    canonical module.  Routing succeeds for every quasipolarizable input, but
    success does not imply that a form exists: F e0 = e1, V e0 = c e1 has
    type [0] and census FV for every c != 0, and a compatible form only for c = -1.
    """
    require_valid(m)
    maps = _word_maps(m)
    if maps is not None:
        return _census_of_maps(*maps)
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
