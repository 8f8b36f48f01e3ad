"""Cyclic words in {F, V}: word-built modules, decomposition, census invariants.

Indecomposable summands of a module in canonical form correspond to the
connected components of its basis graph, and each component reads off as a
cyclic word.  The superspecial rank is the multiplicity of the word FV in
that census.
"""

from __future__ import annotations

from collections import Counter
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
        if not self.letters or any(c not in "FV" for c in self.letters):
            raise ValueError("word letters must be a nonempty string over {F, V}")
        if self.letters != _least_rotation(self.letters):
            raise ValueError("word is not in canonical rotation; use CyclicWord.of")

    @classmethod
    def of(cls, letters: str) -> "CyclicWord":
        return cls(_least_rotation(letters))

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


def _least_rotation(s: str) -> str:
    if not s:
        return s
    return min(s[i:] + s[:i] for i in range(len(s)))


def all_cyclic_words(length: int) -> list[CyclicWord]:
    """All cyclic words of the given length, lexicographic by canonical form."""
    seen = set()
    for bits in range(2 ** length):
        s = "".join("V" if (bits >> i) & 1 else "F" for i in range(length))
        seen.add(_least_rotation(s))
    return [CyclicWord(s) for s in sorted(seen)]


@dataclass(frozen=True)
class WordCensus:
    """Multiset of cyclic words with multiplicities, canonically ordered."""

    counts: tuple[tuple[CyclicWord, int], ...]

    def __post_init__(self) -> None:
        expected = tuple(sorted(self.counts, key=lambda wc: (len(wc[0]), wc[0].letters)))
        if self.counts != expected or any(mult <= 0 for _, mult in self.counts):
            raise ValueError("census must be sorted with positive multiplicities")

    @classmethod
    def from_counter(cls, counter: Mapping[CyclicWord, int]) -> "WordCensus":
        items = tuple(sorted(((w, m) for w, m in counter.items() if m),
                             key=lambda wc: (len(wc[0]), wc[0].letters)))
        return cls(items)

    def multiplicity(self, word: CyclicWord) -> int:
        for w, m in self.counts:
            if w == word:
                return m
        return 0

    def total_length(self) -> int:
        return sum(len(w) * m for w, m in self.counts)

    def as_dict(self) -> dict[str, int]:
        return {w.letters: m for w, m in self.counts}

    def joined(self) -> str:
        """Semicolon-joined expansion, one entry per summand."""
        return ";".join(w.letters for w, m in self.counts for _ in range(m))


_FV = CyclicWord("FV")


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


def _word_maps(m: DieudonneModule) -> tuple[list[int | None], dict[int, int]] | None:
    """Extract successor maps when every operator column is a signed unit.

    Returns (f_next, v_pre) where v_pre maps a node to the unique node V
    sends onto it; None when the module is not in word form.
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
    v_pre = {t: j for j, t in enumerate(v_next) if t is not None}
    return f_next, v_pre


def _census_from_maps(f_next: list[int | None], v_pre: Mapping[int, int]) -> WordCensus:
    n = len(f_next)
    visited = [False] * n
    counter: Counter[CyclicWord] = Counter()
    for start in range(n):
        if visited[start]:
            continue
        letters = []
        node = start
        for _ in range(n + 1):
            visited[node] = True
            if f_next[node] is not None:
                letters.append("F")
                node = f_next[node]
            else:
                pre = v_pre.get(node)
                if pre is None:
                    raise DecompositionError("node has neither F-image nor V-preimage")
                letters.append("V")
                node = pre
            if node == start:
                break
            if visited[node]:
                raise DecompositionError("walk re-entered a visited node; graph is not a disjoint cycle union")
        else:
            raise DecompositionError("walk did not close")
        counter[CyclicWord.of("".join(letters))] += 1
    return WordCensus.from_counter(counter)


def census_of_type(t: EOType) -> WordCensus:
    """Word census of the canonical module of a type, without building matrices."""
    f_next, v_next = node_maps(t)
    v_pre = {tgt: j for j, tgt in enumerate(v_next) if tgt is not None}
    return _census_from_maps(f_next, v_pre)


def decompose(m: DieudonneModule) -> WordCensus:
    """Cyclic-word census of a valid module.

    Word-form inputs (every operator column a signed unit vector or zero) are
    walked directly; anything else is routed through its EO type and the
    canonical module, which succeeds exactly for quasipolarizable inputs.
    """
    require_valid(m)
    maps = _word_maps(m)
    if maps is not None:
        return _census_from_maps(maps[0], maps[1])
    try:
        return census_of_type(eo_type_of(m))
    except (Bt1ValidationError, ValueError) as exc:
        raise DecompositionError(f"not in word form and not canonicalizable: {exc}") from exc


def superspecial_rank(m: DieudonneModule) -> int:
    """Multiplicity of the word FV in the canonical decomposition."""
    return decompose(m).multiplicity(_FV)


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
    s_rank = census.multiplicity(_FV)
    total = census.total_length()
    g = total // 2 if total % 2 == 0 else None
    return InvariantBundle(g=g, f=etale, a=a_num, s=s_rank)
