"""Exact dense linear algebra over prime fields F_p for small p.

Matrices act on column vectors: column j of a matrix is the image of the
j-th standard basis vector.  Subspaces are stored in reduced row-echelon
form, so two equal subspaces compare and hash identically.

Rows have one internal form per field, chosen by p.  Over F_2 a row or a
vector is a Python int with bit j for column j, and products, row
reduction, kernels, images, preimages and the subspace lattice all run on
those ints; entry tuples are unpacked only when a caller reads
`Matrix.entries`, `Matrix.column()` or `Subspace.basis`.  Other primes keep
tuples of reduced entries and a plain dense sweep.

Input is checked once, where it enters: the public `Matrix(...)` and
`Subspace(...)` constructors, `Matrix.build`, `Matrix.from_columns` and
`Subspace.span`.  Results computed here go through the trusted private
constructors `Matrix._from_rows` and `Subspace._from_rows`, which neither
re-reduce nor re-validate.
Everything here is a value: operations never mutate their inputs and
results are safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import attrgetter, mul

_SMALL_PRIMES = frozenset({
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
})

# A row or vector in internal form: a bit-packed int over F_2, else a tuple.
Row = int | tuple[int, ...]

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
    """The prime field F_p, restricted to 2 <= p <= 97."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int) -> None:
        if type(p) is not int or p not in _SMALL_PRIMES:
            raise ValueError(f"p must be a prime with 2 <= p <= 97, got {p!r}")
        _set(self, "p", p)

    def __eq__(self, other: object) -> bool:  # every matrix operation compares fields; keep it direct
        if other.__class__ is PrimeField:
            return self.p == other.p
        return NotImplemented

    __hash__ = _Value.__hash__


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


def _rref_modp(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Dense sweep over reduced entries.  Rows below the pivot are zero left of
    its column, so scaling and elimination touch only the columns from it on."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        tail = [(e * inv) % p for e in work[rank][col:]]
        work[rank][col:] = tail
        for i, row in enumerate(work):
            c = row[col]
            if c and i != rank:
                row[col:] = [(a - c * b) % p for a, b in zip(row[col:], tail)]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


# Packing goes through the binary digit string, so the per-entry work runs
# in C: entries 0/1 <-> bytes 0/1 <-> digits "0"/"1", most significant first.
_ENTRIES_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_ENTRIES = bytes.maketrans(b"01", b"\x00\x01")


def _pack(row: Sequence[int]) -> int:
    """Bit-packed form of a row of reduced F_2 entries (0 or 1)."""
    return int(bytes(row).translate(_ENTRIES_TO_DIGITS)[::-1] or b"0", 2)


def _unpack(bits: int, ncols: int) -> tuple[int, ...]:
    if not ncols:
        return ()
    return tuple(f"{bits:0{ncols}b}".encode()[::-1].translate(_DIGITS_TO_ENTRIES))


def _xor_rows(rows: Sequence[int], mask: int) -> int:
    """XOR of rows[k] over the set bits k of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _to_rows(field: PrimeField, entries: tuple[tuple[int, ...], ...]) -> tuple[Row, ...]:
    """Internal form of checked, reduced entry rows."""
    return tuple(map(_pack, entries)) if field.p == 2 else entries


def _unit(field: PrimeField, i: int, n: int) -> Row:
    return 1 << i if field.p == 2 else tuple(1 if j == i else 0 for j in range(n))


def rref(field: PrimeField, rows: Iterable[Row], ncols: int) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Canonical RREF of rows in internal form; returns (rows, pivot columns).

    Every row reduction in this module goes through here.
    """
    if field.p == 2:
        reduced, pivots = _rref_gf2(rows)
        return tuple(reduced), tuple(pivots)
    dense, pivots = _rref_modp(rows, ncols, field.p)
    return tuple(map(tuple, dense)), tuple(pivots)


def _null_vectors(field: PrimeField, reduced: Sequence[Row], pivots: Sequence[int],
                  ncols: int) -> list[Row]:
    """One solution of reduced @ v = 0 per free column, for rows already in RREF."""
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    if field.p == 2:
        return [(1 << f) | sum(1 << pc for row, pc in zip(reduced, pivots) if row >> f & 1)
                for f in free]
    p = field.p
    out: list[Row] = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = (-row[f]) % p
        out.append(tuple(v))
    return out


def _check_dims(*dims: int) -> None:
    if any(d < 0 for d in dims):
        raise ValueError("negative dimensions")


def _span(field: PrimeField, ambient_dim: int, rows: Iterable[Row]) -> "Subspace":
    return Subspace._from_rows(field, ambient_dim, rref(field, rows, ambient_dim)[0])


class Matrix(_Value):
    """Dense matrix over F_p with the column-action convention."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_cols", "_entries")
    _fields = ("field", "nrows", "ncols", "entries")  # shown and pickled; compared on _rows

    def __init__(self, field: PrimeField, nrows: int, ncols: int,
                 entries: Iterable[Iterable[int]]) -> None:
        _set(self, "field", field)
        _set(self, "nrows", nrows)
        _set(self, "ncols", ncols)
        _set(self, "_entries", tuple(map(tuple, entries)))
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_dims(self.nrows, self.ncols)
        if len(self._entries) != self.nrows:
            raise ValueError("row count does not match entries")
        p = self.field.p
        for row in self._entries:
            if len(row) != self.ncols:
                raise ValueError("column count does not match entries")
            for e in row:
                if not 0 <= e < p:
                    raise ValueError("entries must be reduced mod p")
        _set(self, "_rows", _to_rows(self.field, self._entries))
        _set(self, "_cols", None)

    @classmethod
    def _from_rows(cls, field: PrimeField, nrows: int, ncols: int, rows: Iterable[Row],
                   entries: tuple[tuple[int, ...], ...] | None = None) -> "Matrix":
        """Trusted constructor for rows already in internal form (and their entries, if known)."""
        m = object.__new__(cls)
        _set(m, "field", field)
        _set(m, "nrows", nrows)
        _set(m, "ncols", ncols)
        _set(m, "_rows", tuple(rows))
        _set(m, "_cols", None)
        _set(m, "_entries", m._rows if field.p != 2 else entries)
        return m

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._entries is None:
            _set(self, "_entries", tuple(_unpack(r, self.ncols) for r in self._rows))
        return self._entries

    def _columns(self) -> tuple[Row, ...]:
        """Columns in internal form, computed once."""
        if self._cols is None:
            if self.field.p == 2:
                cols = [0] * self.ncols
                for i, row in enumerate(self._rows):
                    bit = 1 << i
                    while row:
                        low = row & -row
                        cols[low.bit_length() - 1] |= bit
                        row ^= low
                _set(self, "_cols", tuple(cols))
            else:
                _set(self, "_cols", tuple(zip(*self._rows)) if self.nrows else ((),) * self.ncols)
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
        return cls._from_rows(field, len(tup), ncols, _to_rows(field, tup), tup)

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "Matrix":
        _check_dims(nrows, ncols)
        entries = ((0,) * ncols,) * nrows
        return cls._from_rows(field, nrows, ncols, _to_rows(field, entries), entries)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        _check_dims(n)
        return cls._from_rows(field, n, n, (_unit(field, i, n) for i in range(n)))

    @classmethod
    def from_columns(cls, field: PrimeField, nrows: int, columns: Sequence[Sequence[int]]) -> "Matrix":
        cols = [tuple(int(e) % field.p for e in c) for c in columns]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length does not match nrows")
        rows = tuple(tuple(c[i] for c in cols) for i in range(nrows))
        return cls._from_rows(field, nrows, len(cols), _to_rows(field, rows), rows)

    def column(self, j: int) -> tuple[int, ...]:
        col = self._columns()[j]
        return _unpack(col, self.nrows) if self.field.p == 2 else col

    def transpose(self) -> "Matrix":
        t = Matrix._from_rows(self.field, self.ncols, self.nrows, self._columns())
        _set(t, "_cols", self._rows)
        return t

    def neg(self) -> "Matrix":
        p = self.field.p
        if p == 2:
            return self
        return Matrix._from_rows(self.field, self.nrows, self.ncols,
                                 (tuple((-e) % p for e in row) for row in self._rows))

    def add(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        if p == 2:
            rows = (a ^ b for a, b in zip(self._rows, other._rows))
        else:
            rows = (tuple((a + b) % p for a, b in zip(r1, r2))
                    for r1, r2 in zip(self._rows, other._rows))
        return Matrix._from_rows(self.field, self.nrows, self.ncols, rows)

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
        p = self.field.p
        if p == 2:
            rhs = other._rows
            out = [_xor_rows(rhs, row) for row in self._rows]
        else:
            cols = other._columns()
            out = [tuple(sum(map(mul, row, col)) % p for col in cols) for row in self._rows]
        return Matrix._from_rows(self.field, self.nrows, other.ncols, out)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Image of a column vector under this matrix."""
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match ncols")
        p = self.field.p
        if p == 2:
            return _unpack(_xor_rows(self._columns(), _pack([e % 2 for e in vec])), self.nrows)
        return tuple(sum(map(mul, row, vec)) % p for row in self._rows)

    def power(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        if self.field.p == 2:
            return not any(self._rows)
        return not any(map(any, self._rows))

    def rank(self) -> int:
        _, pivots = rref(self.field, self._rows, self.ncols)
        return len(pivots)

    def kernel(self) -> "Subspace":
        """Null space {v : M v = 0} as a subspace of F_p^ncols."""
        reduced, pivots = rref(self.field, self._rows, self.ncols)
        return _span(self.field, self.ncols, _null_vectors(self.field, reduced, pivots, self.ncols))

    def image(self) -> "Subspace":
        """Column space as a subspace of F_p^nrows."""
        return _span(self.field, self.nrows, self._columns())

    def map_subspace(self, s: "Subspace") -> "Subspace":
        """Image of a subspace under this matrix."""
        return _span(self.field, self.nrows, self._images(s))

    def _images(self, s: "Subspace") -> list[Row]:
        """Images of the echelon basis of s, in internal form and unreduced."""
        if s.ambient_dim != self.ncols:
            raise ValueError("ambient dimension does not match ncols")
        if self.field.p == 2:
            cols = self._columns()
            return [_xor_rows(cols, v) for v in s._rows]
        return [self.apply(v) for v in s._rows]

    def preimage(self, s: "Subspace") -> "Subspace":
        """Full preimage {v : M v in S}; always contains the kernel."""
        if s.ambient_dim != self.nrows:
            raise ValueError("ambient dimension does not match nrows")
        ann = s.annihilator()
        constraints = Matrix._from_rows(self.field, ann.dim, self.nrows, ann._rows) @ self
        return constraints.kernel()

    def image_sources_kernel(self, s: "Subspace") -> tuple["Subspace", "Matrix", "Subspace"]:
        """M(S), sources in S for it, and S meet ker M, from one reduction of the rows (M b | b).

        Over the echelon basis b of S, rows with a nonzero left half give the echelon basis of
        M(S) and, as right halves, its sources; the other rows' right halves are the echelon
        basis of S meet ker M.  Row i of the nrows x ncols sources matrix is the source of the
        image row with pivot column i (0 elsewhere), so M @ sources.T fixes all of M(S).
        """
        if s.ambient_dim != self.ncols:
            raise ValueError("ambient dimension does not match ncols")
        field, m, n = self.field, self.nrows, self.ncols
        if field.p == 2:
            cols = self._columns()
            reduced, pivots = rref(field, (_xor_rows(cols, b) | b << m for b in s._rows), m + n)
            left, right, zero = [r & ((1 << m) - 1) for r in reduced], [r >> m for r in reduced], 0
        else:
            reduced, pivots = rref(field, (self.apply(b) + b for b in s._rows), m + n)
            left, right, zero = [r[:m] for r in reduced], [r[m:] for r in reduced], (0,) * n
        rank = sum(pc < m for pc in pivots)
        by_pivot = dict(zip(pivots[:rank], right))
        return (Subspace._from_rows(field, m, tuple(left[:rank])),
                Matrix._from_rows(field, m, n, (by_pivot.get(i, zero) for i in range(m))),
                Subspace._from_rows(field, n, tuple(right[rank:])))

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        if self.field.p == 2:
            augmented = [row | (1 << (n + i)) for i, row in enumerate(self._rows)]
        else:
            augmented = [row + _unit(self.field, i, n) for i, row in enumerate(self._rows)]
        reduced, pivots = rref(self.field, augmented, 2 * n)
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        rows = [r >> n for r in reduced] if self.field.p == 2 else [r[n:] for r in reduced]
        return Matrix._from_rows(self.field, n, n, rows)


def block_diag(*blocks: Matrix) -> Matrix:
    """Block-diagonal sum of matrices over one field, in the order given."""
    field = blocks[0].field
    if any(b.field != field for b in blocks):
        raise ValueError("field mismatch")
    ncols = sum(b.ncols for b in blocks)
    rows: list[Row] = []
    left = 0
    for b in blocks:
        if field.p == 2:
            rows += [r << left for r in b._rows]
        else:
            rows += [(0,) * left + r + (0,) * (ncols - left - b.ncols) for r in b._rows]
        left += b.ncols
    return Matrix._from_rows(field, sum(b.nrows for b in blocks), ncols, rows)


def vstack(*blocks: Matrix) -> Matrix:
    """Matrices over one field and of one width, stacked top to bottom in the order given."""
    field, ncols = blocks[0].field, blocks[0].ncols
    if any(b.field != field or b.ncols != ncols for b in blocks):
        raise ValueError("field or width mismatch")
    return Matrix._from_rows(field, sum(b.nrows for b in blocks), ncols,
                             [r for b in blocks for r in b._rows])


class Subspace(_Value):
    """A subspace of F_p^n held as a canonical reduced row-echelon basis."""

    __slots__ = ("field", "ambient_dim", "_rows", "_basis")
    _fields = ("field", "ambient_dim", "basis")  # shown and pickled; compared on _rows

    def __init__(self, field: PrimeField, ambient_dim: int,
                 basis: Iterable[Iterable[int]]) -> None:
        _set(self, "field", field)
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "_basis", tuple(map(tuple, basis)))
        self.__post_init__()

    def __post_init__(self) -> None:
        n, p = self.ambient_dim, self.field.p
        _check_dims(n)
        if all(len(v) == n and all(0 <= e < p for e in v) for v in self._basis):
            rows = _to_rows(self.field, self._basis)
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
        _set(s, "_basis", rows if field.p != 2 else None)
        return s

    @classmethod
    def span(cls, field: PrimeField, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        _check_dims(ambient_dim)
        vecs = tuple(tuple(int(e) % field.p for e in v) for v in vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return _span(field, ambient_dim, _to_rows(field, vecs))

    @classmethod
    def zero(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        _check_dims(ambient_dim)
        return cls._from_rows(field, ambient_dim, ())

    @classmethod
    def full(cls, field: PrimeField, ambient_dim: int) -> "Subspace":
        _check_dims(ambient_dim)
        return cls._from_rows(field, ambient_dim,
                              tuple(_unit(field, i, ambient_dim) for i in range(ambient_dim)))

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        if self._basis is None:
            _set(self, "_basis", tuple(_unpack(r, self.ambient_dim) for r in self._rows))
        return self._basis

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
        if self.field.p == 2:
            return tuple((r & -r).bit_length() - 1 for r in self._rows)
        return tuple(next(j for j, e in enumerate(r) if e) for r in self._rows)

    def _holds(self, v: tuple[int, ...], pivots: Sequence[int]) -> bool:
        """Whether a vector over an odd field lies in this subspace, given its pivots."""
        p = self.field.p
        for row, pc in zip(self._rows, pivots):
            c = v[pc]
            if c:
                v = tuple((a - c * b) % p for a, b in zip(v, row))
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if self.field.p == 2:
            # Every other row is 0 at a row's pivot, so v is in the span iff it is the XOR
            # of the rows whose pivots v has set.
            by_pivot = [0] * self.ambient_dim
            for r in self._rows:
                by_pivot[(r & -r).bit_length() - 1] = r
            mask = sum(r & -r for r in self._rows)
            return all(_xor_rows(by_pivot, v & mask) == v for v in other._rows)
        pivots = self.pivots()
        return all(self._holds(v, pivots) for v in other._rows)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return _span(self.field, self.ambient_dim, self._rows + other._rows)

    def sum_with_image(self, m: Matrix, s: "Subspace") -> "Subspace":
        """This subspace plus M(S), from one reduction."""
        if m.field != self.field or m.nrows != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return _span(self.field, self.ambient_dim, [*self._rows, *m._images(s)])

    def annihilator(self) -> "Subspace":
        """All v with b . v = 0 for every basis vector b (dot-product dual)."""
        return _span(self.field, self.ambient_dim,
                     _null_vectors(self.field, self._rows, self.pivots(), self.ambient_dim))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return self.annihilator().sum_with(other.annihilator()).annihilator()

    def coordinates(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a member vector in the echelon basis; raises if absent."""
        p = self.field.p
        coords = tuple(vec[pc] % p for pc in self.pivots())
        recon = [0] * self.ambient_dim
        for c, row in zip(coords, self.basis):
            if c:
                for j in range(self.ambient_dim):
                    recon[j] = (recon[j] + c * row[j]) % p
        if tuple(recon) != tuple(e % p for e in vec):
            raise ValueError("vector is not in the subspace")
        return coords


def solve_linear_system(field: PrimeField, n_unknowns: int, constraint_rows: Iterable[Sequence[int]]) -> Subspace:
    """Solution space of a homogeneous linear system over F_p."""
    rows = list(constraint_rows)
    return Matrix.build(field, rows, n_unknowns).kernel()
