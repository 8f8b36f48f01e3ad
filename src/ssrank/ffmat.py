"""Exact dense linear algebra over prime fields F_p for small p.

Matrices act on column vectors: column j of a matrix is the image of the
j-th standard basis vector.  Inside the library a subspace is its echelon
rows, and the library builds no `Subspace`: it is what the public
`Matrix.kernel` and `Subspace.span` return, and holds canonical RREF rows,
so equal subspaces compare and hash identically.

Every row, column and vector is one Python int with entry j in slot j, bit j
over F_2 and byte j over odd p (`PrimeField._bits`), always reduced, so equal
rows are equal ints.  Over F_2 the kernels XOR rows; over odd p they add integer
multiples of whole rows with delayed modular reduction (Dumas, Giorgi and
Pernet, TOMS 2008; Dumas, Fousse and Salvy, JSC 2011): sums go into slots just
wide enough for their worst case, and each result is reduced once.  Entries are
unpacked, and not kept, on every read of `Matrix.entries` and `Subspace.basis`;
a matrix's columns, and its node map (`Matrix._node_map`: each column's one
nonzero entry, when no column has two), are read at most once and kept.

Input is checked once, where it enters: the public `Matrix(...)` and
`Subspace(...)` constructors (one shared entry check, stored by `_Value._assign`),
`Matrix.build` and `Subspace.span`.  Results computed here go through the trusted
constructors `Matrix._from_rows` (hand-written, as it runs once per matrix) and
`_Value._trusted`, which neither re-reduce nor re-validate; the library's
constructions write (row, column, value) triples through `Matrix._sparse`.
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
_UNREAD = object()  # a `Matrix._node_map` memo before its one read


class _Value:
    """Slotted immutable base: only the constructors set attributes.

    A subclass lists its shown and pickled attributes in `_fields`, in its
    constructor's argument order: repr shows them, and pickling and copying
    rebuild through the constructor.  Its compared and hashed attributes are
    `_compared`, by default `_fields`; a class whose constructor takes a view
    of an internal form (Matrix entries, Subspace basis) compares the internal one.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" in vars(cls):
            cls._key = attrgetter(*vars(cls).get("_compared", cls._fields))

    @classmethod
    def _trusted(cls, *values: object):
        """Trusted constructor: an instance with `__slots__` set to values, in order, unchecked."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set(obj, name, value)
        return obj

    def _assign(self, *values: object) -> None:
        """Set the leading `__slots__` to values, in order, as `_trusted` does on a new instance.
        Every constructor stores through these two but `Matrix._from_rows`, `DieudonneModule.__init__`
        and `ProfileQuery.__init__`: one per matrix, module or table row, each 0.3-0.5 us faster by hand."""
        for name, value in zip(self.__slots__, values):
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
        if p == 2:
            self._assign(p, 1, _pack_bits, _unpack_bits)
        else:
            self._assign(p, 8, partial(int.from_bytes, byteorder="little"),
                         partial(int.to_bytes, byteorder="little"))

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


def _echelon(field: PrimeField, rows: Iterable[Row], ncols: int,
             base: dict[int, Row] | None = None) -> dict[int, Row]:
    """An echelon basis of the span of rows in internal form, as an echelon state.

    The state maps each pivot bit, the lowest bit of a pivot row's leading slot, to that
    row, reduced; over odd p its leading entry is 1.  The rows of a `Subspace`, in
    canonical RREF, are such a state's rows.

    With `base`, the state of earlier rows (left unchanged), the result is a state of
    base's rows followed by these: only the new rows are reduced.  Every row reduction in
    this module goes through here.  Callers that read a rank, a dimension or some basis
    of the span take the state as it is; `rref` back-substitutes it to the canonical basis.
    """
    pivots = dict(base) if base else {}
    if field.p == 2:
        _echelon_gf2(rows, pivots)
    else:
        _echelon_modp(rows, ncols, field.p, pivots)
    return pivots


def _echelon_gf2(rows: Iterable[int], pivots: dict[int, Row]) -> None:
    """Add bit-packed rows to the state `pivots`, in place.

    A row is reduced only at the pivot bits it holds, lowest first: the pivot row of
    bit b has no bit below b, so clearing b leaves the lower bits alone and the next
    pivot bit it holds is higher.  Whatever is left is a new pivot row.
    """
    held = sum(pivots)  # the OR of the pivot bits, which are distinct powers of two
    for row in rows:
        hit = row & held
        while hit:
            row ^= pivots[hit & -hit]
            hit = row & held
        if row:
            low = row & -row
            pivots[low] = row
            held |= low


def _echelon_modp(rows: Iterable[int], ncols: int, p: int, pivots: dict[int, Row]) -> None:
    """Add byte-slot rows over odd p to the state `pivots`, in place, with delayed reduction.

    Column by column, the pivot row is the state's, or the first remaining row with an
    entry c != 0 mod p there, reduced and scaled to a leading 1 and taken out; every
    remaining row with entry c != 0 mod p becomes row + (p - c) * pivot, one big-int
    step that clears that entry mod p, and is otherwise left unreduced.  Nothing is
    eliminated above a pivot.  Headroom: input slots hold at most p - 1, a pivot row is
    reduced, and each pivot adds at most (p - 1)^2 to a slot of a remaining row.  So
    after r pivots every slot is at most (p - 1)(1 + r(p - 1)), with r at most the
    state's pivots plus the new rows, and at most ncols; slots of the narrowest width
    holding that bound never carry.  Rows left over are dependent and dropped.
    """
    work = list(rows)
    if not work:
        return
    w = _slot_bytes((p - 1) * (1 + min(len(pivots) + len(work), ncols) * (p - 1)))
    bits, mask = 8 * w, (1 << 8 * w) - 1
    work = [_widen(r, ncols, w) for r in work]
    for col in range(ncols):
        if not work:
            break
        shift, key, start = bits * col, 1 << 8 * col, 0
        pivot = pivots.get(key)
        if pivot is None:
            for start, row in enumerate(work):
                c = (row >> shift & mask) % p
                if c:
                    break
            else:
                continue
            pivot = pivots[key] = _reduce(work.pop(start), ncols, w, p, pow(c, p - 2, p))
        pivot = _widen(pivot, ncols, w)
        for i in range(start, len(work)):
            c = (work[i] >> shift & mask) % p
            if c:
                work[i] += (p - c) * pivot


def _back_substitute(field: PrimeField, pivots: dict[int, Row], ncols: int) -> list[Row]:
    """The canonical RREF rows of an echelon state, by pivot.

    From the last pivot up, each pivot row gets the final rows of the later pivots it
    holds an entry at.  Those hold no pivot but their own, so every such entry can be
    read off the echelon row before any is cleared.  Over odd p the entries c give one
    delayed-reduction sum, row + sum (p - c) * later row, of reduced rows: with r
    pivots a slot holds at most (p - 1)(1 + (r - 1)(p - 1)), below the bound that sizes
    the slots of `_echelon_modp`, and the sum is reduced once.
    """
    keys = sorted(pivots)
    if field.p == 2:
        held, final = sum(keys), {}
        for key in reversed(keys):
            row = pivots[key]
            hit = row & held ^ key
            while hit:
                low = hit & -hit
                row ^= final[low]
                hit ^= low
            final[key] = row
        return [final[key] for key in keys]
    p, r = field.p, len(keys)
    w = _slot_bytes((p - 1) * (1 + r * (p - 1)))
    cols = [(key.bit_length() - 1) // 8 for key in keys]
    out, wide = [pivots[key] for key in keys], [0] * r
    for k in reversed(range(r)):
        entries = out[k].to_bytes(ncols, "little")
        later = [(p - entries[cols[i]]) * wide[i] for i in range(k + 1, r) if entries[cols[i]]]
        if later:
            out[k] = _reduce(sum(later, _widen(out[k], ncols, w)), ncols, w, p)
        wide[k] = _widen(out[k], ncols, w)
    return out


def rref(field: PrimeField, rows: Iterable[Row], ncols: int) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Canonical RREF of rows in internal form; returns (rows, pivot columns).

    One `_echelon` pass, then `_back_substitute`.  Subspace construction and equality,
    kernels, inverses and the section of `_image_sources_kernel` read the canonical rows.
    """
    pivots = _echelon(field, rows, ncols)
    bits = field._bits
    return (tuple(_back_substitute(field, pivots, ncols)),
            tuple((key.bit_length() - 1) // bits for key in sorted(pivots)))


def _check_dims(*dims: int) -> None:
    if any(d < 0 for d in dims):
        raise ValueError("negative dimensions")


def _checked_rows(field: PrimeField, entries: tuple[tuple[int, ...], ...], ncols: int) -> tuple[Row, ...]:
    """Internal form of entry rows from outside, checked to hold ncols entries reduced mod p each."""
    if any(len(row) != ncols for row in entries):
        raise ValueError("column count does not match entries")
    if any(not 0 <= e < field.p for row in entries for e in row):
        raise ValueError("entries must be reduced mod p")
    return tuple(map(field._pack, map(bytes, entries)))


def _span(field: PrimeField, ambient_dim: int, rows: Iterable[Row]) -> "Subspace":
    return Subspace._trusted(field, ambient_dim, rref(field, rows, ambient_dim)[0])


class Matrix(_Value):
    """Dense matrix over F_p with the column-action convention."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_cols", "_nodes")
    _fields = ("field", "nrows", "ncols", "entries")
    _compared = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: PrimeField, nrows: int, ncols: int,
                 entries: Iterable[Iterable[int]]) -> None:
        self._assign(field, nrows, ncols)
        self.__post_init__(tuple(map(tuple, entries)))

    def __post_init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        _check_dims(self.nrows, self.ncols)
        if len(entries) != self.nrows:
            raise ValueError("row count does not match entries")
        _set(self, "_rows", _checked_rows(self.field, entries, self.ncols))
        _set(self, "_cols", None)
        _set(self, "_nodes", _UNREAD)

    @classmethod
    def _from_rows(cls, field: PrimeField, nrows: int, ncols: int, rows: Iterable[Row],
                   cols: tuple[Row, ...] | None = None) -> "Matrix":
        """Trusted constructor for rows, and optionally the columns, already in internal form."""
        m = object.__new__(cls)  # hand-written: one per matrix, where `_trusted` costs 0.4 us more
        _set(m, "field", field)
        _set(m, "nrows", nrows)
        _set(m, "ncols", ncols)
        _set(m, "_rows", tuple(rows))
        _set(m, "_cols", cols)
        _set(m, "_nodes", _UNREAD)
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

    def _node_map(self) -> dict[int, tuple[int, int]] | None:
        """{j: (i, c)} with M e_j = c e_i, over the nonzero columns j, when each holds one nonzero entry c;
        else None.  Computed once.  Such a packed column holds nothing above its lowest nonzero slot, i."""
        if self._nodes is _UNREAD:
            bits, nodes = self.field._bits, {}
            for j, col in enumerate(self._columns()):
                if col:
                    i = ((col & -col).bit_length() - 1) // bits
                    if col >> bits * (i + 1):
                        nodes = None
                        break
                    nodes[j] = (i, col >> bits * i)
            _set(self, "_nodes", nodes)
        return self._nodes

    @classmethod
    def build(cls, field: PrimeField, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "Matrix":
        p = field.p
        tup = tuple(tuple([int(e) % p for e in row]) for row in rows)
        if ncols is None:
            ncols = len(tup[0]) if tup else 0
        return cls(field, len(tup), ncols, tup)

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "Matrix":
        _check_dims(nrows, ncols)
        return cls._from_rows(field, nrows, ncols, (0,) * nrows)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        _check_dims(n)
        return cls._from_rows(field, n, n, (1 << field._bits * i for i in range(n)))

    def transpose(self) -> "Matrix":
        return Matrix._from_rows(self.field, self.ncols, self.nrows, self._columns(), self._rows)

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
        return len(_echelon(self.field, self._rows, self.ncols))

    def kernel(self) -> "Subspace":
        """Null space {v : M v = 0} as a subspace of F_p^ncols."""
        return _span(self.field, self.ncols, self._null_rows())

    def _null_rows(self) -> list[Row]:
        """A basis of the null space, not echelon: one solution of M v = 0 per free column
        of M's RREF, 1 there and minus that column's entries at the pivots."""
        field, ncols = self.field, self.ncols
        reduced, pivots = rref(field, self._rows, ncols)
        bits, mask, neg = field._bits, (1 << field._bits) - 1, _scale_table(field.p, field.p - 1)
        pivot_set = set(pivots)
        return [(1 << bits * f) + sum(neg[e] << bits * pc for r, pc in zip(reduced, pivots)
                                      if (e := r >> bits * f & mask))
                for f in range(ncols) if f not in pivot_set]

    def _images(self, basis: Iterable[Row]) -> list[Row]:
        """M b for each row b."""
        return _combine(self.field, self._columns(), self.nrows, basis)

    def _image_echelon(self, basis: Iterable[Row]) -> tuple[Row, ...]:
        """An echelon basis of M(S), for rows b that span S and need not be echelon."""
        return tuple(_echelon(self.field, self._images(basis), self.nrows).values())

    def _stacked_rank(self, below: "Matrix") -> int:
        """The rank of [M; below], below of M's field and width: that of its columns, the rows
        (M e_j | below e_j), with M's column in the low nrows slots."""
        split = self.field._bits * self.nrows
        pairs = [a | b << split for a, b in zip(self._columns(), below._columns())]
        return len(_echelon(self.field, pairs, self.nrows + below.nrows))

    def _pairs(self, basis: Sequence[Row]) -> list[Row]:
        """The rows (M b | b) over rows b, with M b in the low nrows slots."""
        split = self.field._bits * self.nrows
        return [im | b << split for im, b in zip(self._images(basis), basis)]

    def _pair_echelon(self, basis: Sequence[Row], base: dict[int, Row] | None = None) -> dict[int, Row]:
        """The echelon state of `_pairs(basis)`, resumed from `base`, a state of such rows."""
        return _echelon(self.field, self._pairs(basis), self.nrows + self.ncols, base)

    def _halves(self, reduced: Iterable[Row]) -> tuple[tuple[Row, ...], ...]:
        """M(S), sources in S for it, and S meet ker M, from echelon rows of (M b | b).

        Every row of their span is (M x | x) with x in S.  Rows with a nonzero left half
        give echelon rows of M(S) and, as right halves, the source of each in the same
        order; the other rows have their pivot in the right half, and those right halves
        are echelon rows of S meet ker M, which they span.
        """
        split = self.field._bits * self.nrows
        low = (1 << split) - 1
        images, sources, kernel = [], [], []
        for r in reduced:
            if r & low:
                images.append(r & low)
                sources.append(r >> split)
            else:
                kernel.append(r >> split)
        return tuple(images), tuple(sources), tuple(kernel)

    def _image_sources_kernel(self, basis: Sequence[Row]) -> tuple[tuple[Row, ...], ...]:
        """`_halves` of the canonical RREF of (M b | b), over rows b that span S and need not be
        echelon: the halves are then canonical whatever rows b span S, and as the image rows
        are in RREF, x in M(S) has the source sum_k x[pivot_k] source_k.
        """
        return self._halves(rref(self.field, self._pairs(basis), self.nrows + self.ncols)[0])

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


class Subspace(_Value):
    """A subspace of F_p^n held as a canonical reduced row-echelon basis: what `kernel` and `span` return."""

    __slots__ = ("field", "ambient_dim", "_rows")
    _fields = ("field", "ambient_dim", "basis")
    _compared = ("field", "ambient_dim", "_rows")

    def __init__(self, field: PrimeField, ambient_dim: int,
                 basis: Iterable[Iterable[int]]) -> None:
        self._assign(field, ambient_dim)
        self.__post_init__(tuple(map(tuple, basis)))

    def __post_init__(self, basis: tuple[tuple[int, ...], ...]) -> None:
        n = self.ambient_dim
        _check_dims(n)
        rows = _checked_rows(self.field, basis, n)
        if rref(self.field, rows, n)[0] != rows:
            raise ValueError("basis is not in canonical reduced row-echelon form")
        _set(self, "_rows", rows)

    @classmethod
    def span(cls, field: PrimeField, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return _span(field, ambient_dim, Matrix.build(field, vectors, ambient_dim)._rows)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.field._unpack(r, self.ambient_dim)) for r in self._rows)

    @property
    def dim(self) -> int:
        return len(self._rows)
