"""Exact dense linear algebra over prime fields F_p for small p.

Matrices act on column vectors: column j of a matrix is the image of the
j-th standard basis vector.  Subspaces are stored in reduced row-echelon
form, so two equal subspaces compare and hash identically.

Every row, column and vector is one Python int with entry j in slot j, bit j
over F_2 and byte j over odd p (`PrimeField._bits`), always reduced, so equal
rows are equal ints.  Over F_2 the kernels XOR rows; over odd p they add integer
multiples of whole rows with delayed modular reduction (Dumas, Giorgi and
Pernet, TOMS 2008; Dumas, Fousse and Salvy, JSC 2011): sums go into slots just
wide enough for their worst case, and each result is reduced once.  Entries are
unpacked, and not kept, on every read of `Matrix.entries` and `Subspace.basis`.

Input is checked once, where it enters: the public `Matrix(...)` and
`Subspace(...)` constructors, `Matrix.build` and `Subspace.span`.  Results
computed here go through the trusted private constructors `Matrix._from_rows`
and `Subspace._from_rows`, which neither re-reduce nor re-validate; the
library's explicit constructions write their (row, column, value) triples
through `Matrix._sparse`.
Everything here is a value: operations never mutate their inputs and
results are safe to share between threads.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from functools import cache, partial
from operator import attrgetter, mul

_SMALL_PRIMES = frozenset({
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
})

# A row or vector in internal form: entry j in slot j (bit j over F_2, byte j otherwise).
Row = int

_set = object.__setattr__


class _Value:
    """Slotted immutable base: only the constructors set attributes.

    A subclass lists its compared, hashed and shown attributes in `_fields`,
    in its constructor's argument order; equality, hashing and repr follow
    them, and pickling and copying rebuild through the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" in vars(cls):
            cls._key = attrgetter(*cls._fields)

    def _assign(self, *values: object) -> None:
        """Set `_fields` in order (constructors off the hot paths)."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class PrimeField(_Value):
    """The prime field F_p, restricted to 2 <= p <= 97, and its packed row form."""

    __slots__ = ("p", "_bits", "_pack", "_unpack")
    _fields = ("p",)

    def __init__(self, p: int) -> None:
        if type(p) is not int or p not in _SMALL_PRIMES:
            raise ValueError(f"p must be a prime with 2 <= p <= 97, got {p!r}")
        _set(self, "p", p)
        binary = p == 2
        _set(self, "_bits", 1 if binary else 8)
        _set(self, "_pack", _pack_bits if binary else partial(int.from_bytes, byteorder="little"))
        _set(self, "_unpack", _unpack_bits if binary else partial(int.to_bytes, byteorder="little"))

    def __eq__(self, other: object) -> bool:  # every matrix operation compares fields; keep it direct
        if other.__class__ is PrimeField:
            return self.p == other.p
        return NotImplemented

    __hash__ = _Value.__hash__


# `_pack` turns entry bytes into a row and `_unpack` a row of n columns back, in C.  Over
# F_2 they go through the binary digit string: entries 0/1 <-> bytes 0/1 <-> digits
# "0"/"1", most significant first; over odd p the entry bytes are the row's bytes.
_ENTRIES_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_ENTRIES = bytes.maketrans(b"01", b"\x00\x01")


def _pack_bits(entries: bytes) -> int:
    return int(entries.translate(_ENTRIES_TO_DIGITS)[::-1] or b"0", 2)


def _unpack_bits(row: int, n: int) -> bytes:
    return f"{row:0{n}b}".encode()[::-1].translate(_DIGITS_TO_ENTRIES) if n else b""


GF2 = PrimeField(2)


def _rref_gf2(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows (bit j = column j).

    Each row is reduced against the rows kept so far and, if anything is
    left, clears its lowest bit (its pivot) from them.
    """
    kept: list[int] = []
    for row in rows:
        for r in kept:
            if row & r & -r:
                row ^= r
        if row:
            low = row & -row
            kept = [r ^ row if r & low else r for r in kept]
            kept.append(row)
    kept.sort(key=lambda r: r & -r)
    return kept, [(r & -r).bit_length() - 1 for r in kept]


# Odd p sums rows in slots of w = 1, 2, 4 or 8 bytes (memoryview formats below), the
# narrowest that holds the sum's worst case, so no slot carries into the next.
_WIDE_FORMATS = {2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bound: int) -> int:
    """The narrowest slot width, in bytes, that holds every value up to bound."""
    for w in (1, 2, 4, 8):
        if bound < 1 << 8 * w:
            return w
    raise OverflowError("a sum of rows would overflow 64-bit slots")


@cache
def _scale_table(p: int, c: int) -> bytes:
    """The bytes.translate table b -> b * c mod p."""
    return bytes([b * c % p for b in range(256)])


def _widen(row: int, n: int, w: int) -> int:
    """A row's n byte slots as n slots of w bytes."""
    if w == 1:
        return row
    buf = bytearray(n * w)
    buf[::w] = row.to_bytes(n, "little")
    return int.from_bytes(buf, "little")


def _reduce(x: int, n: int, w: int, p: int, c: int = 1) -> int:
    """The row c * x mod p in byte slots, from n slots of w bytes holding any values
    (wide slots are read, and written back, in native byte order)."""
    if w == 1:
        return int.from_bytes(x.to_bytes(n, "little").translate(_scale_table(p, c)), "little")
    slots = memoryview(x.to_bytes(n * w, sys.byteorder)).cast(_WIDE_FORMATS[w])
    return int.from_bytes(bytes([v * c % p for v in slots]), sys.byteorder)


def _rref_modp(rows: Iterable[int], ncols: int, p: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of byte-slot rows over odd p, with delayed reduction.

    The pivot row is reduced and scaled to a leading 1; every other row with
    entry c != 0 mod p in the pivot column becomes row + (p - c) * pivot, one
    big-int step that clears that entry mod p, and is otherwise left
    unreduced.  Headroom: input slots hold at most p - 1, a pivot row is
    reduced when chosen, and each pivot adds at most (p - 1)^2 to a slot of
    any other row.  So after r pivots every slot is at most
    (p - 1)(1 + r(p - 1)), with r <= min(rows, ncols), and slots of the
    narrowest width holding that bound never carry.  Kept rows are reduced
    once at the end.
    """
    work = list(rows)
    w = _slot_bytes((p - 1) * (1 + min(len(work), ncols) * (p - 1)))
    bits, mask = 8 * w, (1 << 8 * w) - 1
    work = [_widen(r, ncols, w) for r in work]
    pivots: list[int] = []
    for col in range(ncols):
        shift, rank = bits * col, len(pivots)
        for i in range(rank, len(work)):
            c = (work[i] >> shift & mask) % p
            if c:
                break
        else:
            continue
        pivot = _widen(_reduce(work[i], ncols, w, p, pow(c, p - 2, p)), ncols, w)
        work[i], work[rank] = work[rank], pivot
        for i, row in enumerate(work):
            c = (row >> shift & mask) % p
            if c and i != rank:
                work[i] = row + (p - c) * pivot
        pivots.append(col)
    return [_reduce(r, ncols, w, p) for r in work[:len(pivots)]], pivots


def _xor_rows(rows: Sequence[int], mask: int) -> int:
    """XOR of rows[k] over the set bits k of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _combine(field: PrimeField, rows: Sequence[Row], n: int, vectors: Iterable[Row]) -> list[Row]:
    """sum_k v_k rows[k] for each v in vectors, for rows of n columns and v of len(rows) columns.

    Over odd p each term adds at most (p - 1)^2 to a slot, so each sum is taken
    in slots that hold len(rows) * (p - 1)^2 and reduced once."""
    if field.p == 2:
        return [_xor_rows(rows, v) for v in vectors]
    p, k = field.p, len(rows)
    w = _slot_bytes(k * (p - 1) ** 2)
    wide = [_widen(r, n, w) for r in rows]
    return [_reduce(sum(map(mul, v.to_bytes(k, "little"), wide)), n, w, p) for v in vectors]


def rref(field: PrimeField, rows: Iterable[Row], ncols: int) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Canonical RREF of rows in internal form; returns (rows, pivot columns).

    Every row reduction in this module goes through here.
    """
    reduced, pivots = _rref_gf2(rows) if field.p == 2 else _rref_modp(rows, ncols, field.p)
    return tuple(reduced), tuple(pivots)


def _null_vectors(field: PrimeField, reduced: Sequence[Row], pivots: Sequence[int],
                  ncols: int) -> list[Row]:
    """One solution of reduced @ v = 0 per free column, for rows already in RREF."""
    bits, mask, neg = field._bits, (1 << field._bits) - 1, _scale_table(field.p, field.p - 1)
    pivot_set = set(pivots)
    return [(1 << bits * f) + sum(neg[e] << bits * pc for r, pc in zip(reduced, pivots)
                                  if (e := r >> bits * f & mask))
            for f in range(ncols) if f not in pivot_set]


def _to_rows(field: PrimeField, entries: Iterable[Sequence[int]]) -> tuple[Row, ...]:
    """Internal form of checked, reduced entry rows."""
    return tuple(map(field._pack, map(bytes, entries)))


def _check_dims(*dims: int) -> None:
    if any(d < 0 for d in dims):
        raise ValueError("negative dimensions")


def _span(field: PrimeField, ambient_dim: int, rows: Iterable[Row]) -> "Subspace":
    return Subspace._from_rows(field, ambient_dim, rref(field, rows, ambient_dim)[0])


class Matrix(_Value):
    """Dense matrix over F_p with the column-action convention."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_cols")
    _fields = ("field", "nrows", "ncols", "entries")  # shown and pickled; compared on _rows

    def __init__(self, field: PrimeField, nrows: int, ncols: int,
                 entries: Iterable[Iterable[int]]) -> None:
        _set(self, "field", field)
        _set(self, "nrows", nrows)
        _set(self, "ncols", ncols)
        self.__post_init__(tuple(map(tuple, entries)))

    def __post_init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        _check_dims(self.nrows, self.ncols)
        if len(entries) != self.nrows:
            raise ValueError("row count does not match entries")
        p = self.field.p
        for row in entries:
            if len(row) != self.ncols:
                raise ValueError("column count does not match entries")
            for e in row:
                if not 0 <= e < p:
                    raise ValueError("entries must be reduced mod p")
        _set(self, "_rows", _to_rows(self.field, entries))
        _set(self, "_cols", None)

    @classmethod
    def _from_rows(cls, field: PrimeField, nrows: int, ncols: int, rows: Iterable[Row]) -> "Matrix":
        """Trusted constructor for rows already in internal form."""
        m = object.__new__(cls)
        _set(m, "field", field)
        _set(m, "nrows", nrows)
        _set(m, "ncols", ncols)
        _set(m, "_rows", tuple(rows))
        _set(m, "_cols", None)
        return m

    @classmethod
    def _sparse(cls, field: PrimeField, n: int, entries: Iterable[tuple[int, int, int]]) -> "Matrix":
        """Trusted constructor for the n x n matrix with the given (row, column, value)
        triples, each position at most once, and zeros elsewhere; values are reduced mod p."""
        p, bits = field.p, field._bits
        rows = [0] * n
        for i, j, e in entries:
            rows[i] |= (e % p) << bits * j
        return cls._from_rows(field, n, n, rows)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.field._unpack(r, self.ncols)) for r in self._rows)

    def _columns(self) -> tuple[Row, ...]:
        """Columns in internal form, computed once."""
        if self._cols is None:
            n, field = self.ncols, self.field
            if field.p == 2:  # visit the set bits: F_2 rows are mostly sparse
                cols = [0] * n
                for i, row in enumerate(self._rows):
                    bit = 1 << i
                    while row:
                        low = row & -row
                        cols[low.bit_length() - 1] |= bit
                        row ^= low
            else:
                flat = b"".join([r.to_bytes(n, "little") for r in self._rows])
                cols = [int.from_bytes(flat[j::n], "little") for j in range(n)]
            _set(self, "_cols", tuple(cols))
        return self._cols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field, self.nrows, self.ncols, self._rows) == \
            (other.field, other.nrows, other.ncols, other._rows)

    def __hash__(self) -> int:
        return hash((self.field, self.nrows, self.ncols, self._rows))

    @classmethod
    def build(cls, field: PrimeField, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "Matrix":
        p = field.p
        tup = tuple(tuple([int(e) % p for e in row]) for row in rows)
        if ncols is None:
            ncols = len(tup[0]) if tup else 0
        _check_dims(ncols)
        for row in tup:
            if len(row) != ncols:
                raise ValueError("column count does not match entries")
        return cls._from_rows(field, len(tup), ncols, _to_rows(field, tup))

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "Matrix":
        _check_dims(nrows, ncols)
        return cls._from_rows(field, nrows, ncols, (0,) * nrows)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        _check_dims(n)
        return cls._from_rows(field, n, n, (1 << field._bits * i for i in range(n)))

    def transpose(self) -> "Matrix":
        t = Matrix._from_rows(self.field, self.ncols, self.nrows, self._columns())
        _set(t, "_cols", self._rows)
        return t

    def neg(self) -> "Matrix":
        p, n = self.field.p, self.ncols
        if p == 2:
            return self
        return Matrix._from_rows(self.field, self.nrows, n, (_reduce(r, n, 1, p, p - 1) for r in self._rows))

    def add(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p, n = self.field.p, self.ncols
        if p == 2:
            rows = (a ^ b for a, b in zip(self._rows, other._rows))
        else:  # byte slots hold sums up to 2(p - 1) < 256
            rows = (_reduce(a + b, n, 1, p) for a, b in zip(self._rows, other._rows))
        return Matrix._from_rows(self.field, self.nrows, n, rows)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return Matrix._from_rows(self.field, self.nrows, other.ncols,
                                 _combine(self.field, other._rows, other.ncols, self._rows))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def rank(self) -> int:
        _, pivots = rref(self.field, self._rows, self.ncols)
        return len(pivots)

    def kernel(self) -> "Subspace":
        """Null space {v : M v = 0} as a subspace of F_p^ncols."""
        reduced, pivots = rref(self.field, self._rows, self.ncols)
        return _span(self.field, self.ncols, _null_vectors(self.field, reduced, pivots, self.ncols))

    def map_subspace(self, s: "Subspace") -> "Subspace":
        """Image of a subspace under this matrix."""
        if s.ambient_dim != self.ncols:
            raise ValueError("ambient dimension does not match ncols")
        return _span(self.field, self.nrows, _combine(self.field, self._columns(), self.nrows, s._rows))

    def _image_sources_kernel(self, basis: Sequence[Row]) -> tuple[tuple[Row, ...], ...]:
        """M(S), sources in S for it, and S meet ker M, from one reduction of the rows (M b | b)
        over rows b that span S and need not be echelon.

        Rows with a nonzero left half give the echelon rows of M(S) and, as right halves, the
        source of each in the same order; the other rows' right halves are the echelon rows of
        S meet ker M.  The RREF of (M b | b) is canonical for its row span, so the halves are
        canonical whatever rows b span S.
        """
        field, m = self.field, self.nrows
        split = field._bits * m
        images = _combine(field, self._columns(), m, basis)
        reduced, pivots = rref(field, [im | b << split for im, b in zip(images, basis)], m + self.ncols)
        rank = sum(pc < m for pc in pivots)
        right = tuple(r >> split for r in reduced)
        return tuple(r & ((1 << split) - 1) for r in reduced[:rank]), right[:rank], right[rank:]

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n, bits = self.nrows, self.field._bits
        augmented = [row | 1 << bits * (n + i) for i, row in enumerate(self._rows)]
        reduced, pivots = rref(self.field, augmented, 2 * n)
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._from_rows(self.field, n, n, [r >> bits * n for r in reduced])


def block_diag(*blocks: Matrix) -> Matrix:
    """Block-diagonal sum of one or more matrices over one field, in the order given."""
    if not blocks:
        raise ValueError("block_diag needs at least one block")
    field = blocks[0].field
    if any(b.field != field for b in blocks):
        raise ValueError("field mismatch")
    rows, left = [], 0
    for b in blocks:
        rows += [r << field._bits * left for r in b._rows]
        left += b.ncols
    return Matrix._from_rows(field, sum(b.nrows for b in blocks), left, rows)


def vstack(*blocks: Matrix) -> Matrix:
    """Matrices over one field and of one width, stacked top to bottom in the order given."""
    if not blocks:
        raise ValueError("vstack needs at least one block")
    field, ncols = blocks[0].field, blocks[0].ncols
    if any(b.field != field or b.ncols != ncols for b in blocks):
        raise ValueError("field or width mismatch")
    return Matrix._from_rows(field, sum(b.nrows for b in blocks), ncols,
                             [r for b in blocks for r in b._rows])


class Subspace(_Value):
    """A subspace of F_p^n held as a canonical reduced row-echelon basis."""

    __slots__ = ("field", "ambient_dim", "_rows")
    _fields = ("field", "ambient_dim", "basis")  # shown and pickled; compared on _rows

    def __init__(self, field: PrimeField, ambient_dim: int,
                 basis: Iterable[Iterable[int]]) -> None:
        _set(self, "field", field)
        _set(self, "ambient_dim", ambient_dim)
        self.__post_init__(tuple(map(tuple, basis)))

    def __post_init__(self, basis: tuple[tuple[int, ...], ...]) -> None:
        n, p = self.ambient_dim, self.field.p
        _check_dims(n)
        if all(len(v) == n and all(0 <= e < p for e in v) for v in basis):
            rows = _to_rows(self.field, basis)
            if rref(self.field, rows, n)[0] == rows:
                _set(self, "_rows", rows)
                return
        raise ValueError("basis is not in canonical reduced row-echelon form")

    @classmethod
    def _from_rows(cls, field: PrimeField, ambient_dim: int, rows: tuple[Row, ...]) -> "Subspace":
        """Trusted constructor for rows already in canonical internal RREF."""
        s = object.__new__(cls)
        _set(s, "field", field)
        _set(s, "ambient_dim", ambient_dim)
        _set(s, "_rows", rows)
        return s

    @classmethod
    def span(cls, field: PrimeField, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return _span(field, ambient_dim, Matrix.build(field, vectors, ambient_dim)._rows)

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        _check_dims(ambient_dim)
        return cls._from_rows(field, ambient_dim, ())

    @classmethod
    def full(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        _check_dims(ambient_dim)
        return cls._from_rows(field, ambient_dim, tuple(1 << field._bits * i for i in range(ambient_dim)))

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.field._unpack(r, self.ambient_dim)) for r in self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field, self.ambient_dim, self._rows) == \
            (other.field, other.ambient_dim, other._rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self._rows))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> tuple[int, ...]:
        bits = self.field._bits
        return tuple(((r & -r).bit_length() - 1) // bits for r in self._rows)

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace: each of its rows must equal the combination
        of this basis with its entries at the pivots as coefficients, since every other
        basis row is 0 at a row's pivot."""
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        bits = self.field._bits
        by_pivot = [0] * self.ambient_dim
        for r in self._rows:  # a pivot entry is 1, so r & -r is the lowest bit of the pivot slot
            by_pivot[((r & -r).bit_length() - 1) // bits] = r
        mask = ((1 << bits) - 1) * sum(r & -r for r in self._rows)
        projected = _combine(self.field, by_pivot, self.ambient_dim, [v & mask for v in other._rows])
        return projected == list(other._rows)
