"""Mod-p Dieudonne modules: BT1 axioms, invariants, duality, polarizations.

A module is a 2g-dimensional F_p-space with commuting-to-zero operators F
(Frobenius) and V (Verschiebung) satisfying the BT1 exchange axioms
ker F = im V and ker V = im F, optionally equipped with a nondegenerate
alternating form compatible with the operators: <Fx, y> = <x, Vy>.

Structure constants live in F_p.  The p-rank and a-number agree with their
values over an algebraic closure; u = dim F(ker(F + V)) is the F_p-rational
count of supersingular blocks, and it can fall below the superspecial rank s.
All three are read off ranks, with F + V the one derived operator: the p-rank
from one walk of the images of (F + V)^2, a = n - rank [F; V] and
u = rank [F; V] - rank (F + V).
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Iterator

from .ffmat import (_ENTRIES_TO_DIGITS, Matrix, PrimeField, Row, _combine, _echelon, _scale_table, _set,
                    _Value, block_diag)


class Bt1ValidationError(ValueError):
    """Raised when an operation requires a valid BT1 module but axioms fail."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class PolarizationSearchError(RuntimeError):
    """Raised when a compatible nondegenerate form was required but not found."""


# Candidates the polarization sweep tries before it gives up undecided.
_SWEEP_BUDGET = 20000


class DieudonneModule(_Value):
    """F_p-space with Frobenius and Verschiebung actions and optional form.

    Immutable, so once `require_valid` passes it stays valid; the success is
    recorded on the instance, outside the compared fields.  Every new
    instance (`with_form`, `direct_sum`, `from_json`, ...) starts unvalidated.
    """

    _fields = ("frobenius", "verschiebung", "form")
    __slots__ = (*_fields, "_validated")

    def __init__(self, frobenius: Matrix, verschiebung: Matrix, form: Matrix | None = None) -> None:
        if frobenius.field != verschiebung.field:
            raise ValueError("operator field mismatch")
        n = frobenius.nrows
        if frobenius.ncols != n or verschiebung.nrows != n or verschiebung.ncols != n:
            raise ValueError("operators must be square matrices of equal size")
        if form is not None:
            if form.field != frobenius.field or form.nrows != n or form.ncols != n:
                raise ValueError("form shape does not match the module")
        _set(self, "frobenius", frobenius)
        _set(self, "verschiebung", verschiebung)
        _set(self, "form", form)
        _set(self, "_validated", False)

    @property
    def field(self) -> PrimeField:
        return self.frobenius.field

    @property
    def dim(self) -> int:
        return self.frobenius.nrows

    @property
    def g(self) -> int:
        """Half-dimension; meaningful for even-dimensional modules."""
        return self.dim // 2

    def with_form(self, form: Matrix | None) -> "DieudonneModule":
        return type(self)(self.frobenius, self.verschiebung, form)


class InvariantBundle(_Value):
    """p-rank f, a-number a, and the superspecial ranks of one module."""

    __slots__ = _fields = ("g", "f", "a", "s", "u")

    def __init__(self, g: int | None, f: int, a: int, s: int | None = None,
                 u: int | None = None) -> None:
        _set(self, "g", g)
        _set(self, "f", f)
        _set(self, "a", a)
        _set(self, "s", s)
        _set(self, "u", u)


def zero_module(field: PrimeField) -> DieudonneModule:
    m = Matrix.zeros(field, 0, 0)
    return DieudonneModule(m, m, m)


def validate_bt1(m: DieudonneModule) -> list[str]:
    """All violated axioms, as strings; empty means the module is valid BT1."""
    f, v = m.frobenius, m.verschiebung
    im_f, im_v = (_echelon(m.field, op._columns(), m.dim).values() for op in (f, v))
    fv_zero, vf_zero = not any(f._images(im_v)), not any(v._images(im_f))
    # FV = 0 iff F kills a basis of im V, and then ker F = im V iff rank V = n - rank F;
    # if FV != 0 they differ anyway.  Likewise VF = 0 for ker V and im F.
    ranks_fill = len(im_f) + len(im_v) == m.dim
    violations = []
    if not fv_zero:
        violations.append("F*V != 0")
    if not vf_zero:
        violations.append("V*F != 0")
    if not (fv_zero and ranks_fill):
        violations.append("ker(F) != im(V)")
    if not (vf_zero and ranks_fill):
        violations.append("ker(V) != im(F)")
    if m.form is not None:
        violations.extend(_form_violations(m))
    return violations


def _form_violations(m: DieudonneModule) -> list[str]:
    gram = m.form
    assert gram is not None
    out = []
    if gram.transpose() != gram.neg():
        out.append("form is not antisymmetric")
    bits = gram.field._bits  # entry (i, i) is slot i of packed row i
    if any(row >> bits * i & (1 << bits) - 1 for i, row in enumerate(gram._rows)):
        out.append("form has a nonzero diagonal entry")
    if gram.rank() != m.dim:
        out.append("form is degenerate")
    if m.frobenius.transpose() @ gram != gram @ m.verschiebung:
        out.append("form does not satisfy <Fx,y> = <x,Vy>")
    return out


def require_valid(m: DieudonneModule) -> None:
    """Raise Bt1ValidationError unless m is valid; checks each instance once."""
    if m._validated:
        return
    violations = validate_bt1(m)
    if violations:
        raise Bt1ValidationError(violations)
    _set(m, "_validated", True)


def p_rank(m: DieudonneModule) -> int:
    """Dimension of the stable V-image; asserted equal to the stable F-image.

    Both are read off one walk.  FV = VF = 0 gives (F + V)^k = F^k + V^k, so for large k
    the stable image S of F + V lies in F^k(M) + V^k(M) = E + T, E the stable image of F and
    T that of V.  The sum is direct: E lies in im F = ker V and T in im V = ker F, and V is
    injective on T.  F + V acts as F on E and as V on T, onto each, so E + T lies in every
    image of F + V: S = E + T, and F(S) = E.  The walk takes the images of (F + V)^2, whose
    stable image is S too, in half the steps, from its column span; each lies in the last,
    so they are S once their dimensions are equal.  The etale part is then dim F(S) and the
    multiplicative part dim S minus that.
    """
    require_valid(m)
    f_plus_v = m.frobenius.add(m.verschiebung)
    op = f_plus_v @ f_plus_v
    rows = tuple(_echelon(m.field, op._columns(), m.dim).values())
    while len(nxt := op._image_echelon(rows)) < len(rows):
        rows = nxt
    etale_part = len(m.frobenius._image_echelon(rows))
    mult_part = len(rows) - etale_part
    if mult_part != etale_part:
        raise Bt1ValidationError(
            [f"multiplicative rank {mult_part} != etale rank {etale_part}"])
    return mult_part


def a_number(m: DieudonneModule) -> int:
    """dim(ker F intersect ker V), the nullity of the stacked 2n x n matrix [F; V]."""
    require_valid(m)
    return m.dim - m.frobenius._stacked_rank(m.verschiebung)


def unpolarized_ss_rank(m: DieudonneModule) -> int:
    """Largest u admitting an inclusion of u independent rank-p^2 supersingular blocks.

    Equals dim F(W) for W = ker(F + V): generators of any such inclusion land
    in W with independent F-images, and conversely preimages of a basis of
    F(W) inside W define an injective module map (F^2 and V^2 vanish on W
    because FV = VF = 0).

    F takes W onto F(W) with kernel W meet ker F, which is ker F meet ker V: Fx = 0 and
    (F + V)x = 0 give Vx = 0.  So u = dim W - a = rank [F; V] - rank (F + V).
    """
    require_valid(m)
    return m.frobenius._stacked_rank(m.verschiebung) - m.frobenius.add(m.verschiebung).rank()


def dual(m: DieudonneModule) -> DieudonneModule:
    """Cartier-dual module: F and V swap through transposition."""
    new_form = m.form.inverse() if m.form is not None else None
    return DieudonneModule(m.verschiebung.transpose(), m.frobenius.transpose(), new_form)


def direct_sum(*parts: DieudonneModule) -> DieudonneModule:
    """Block-diagonal sum in the order given; the form is kept when every part has one."""
    if not parts:
        raise ValueError("direct_sum needs at least one module")
    form = None
    if all(m.form is not None for m in parts):
        form = block_diag(*[m.form for m in parts])
    return DieudonneModule(block_diag(*[m.frobenius for m in parts]),
                           block_diag(*[m.verschiebung for m in parts]), form)


def check_polarization(m: DieudonneModule) -> bool:
    """True when the attached form is alternating, nondegenerate and compatible."""
    if m.form is None:
        return False
    return not _form_violations(m)


def _compatible_forms(m: DieudonneModule) -> list[Row]:
    """Echelon basis of the compatible alternating Gram matrices, packed row-major (entry (a, b)
    in slot a * n + b): G -> F^T G - G V sends E_ij = e_i e_j^T - e_j e_i^T, i < j in combinations
    order, to f_i e_j^T - f_j e_i^T - e_i v_j^T + e_j v_i^T (f_i, v_i the rows of F and V).  A
    kernel vector c on the pairs is the Gram matrix's upper triangle: the pairs (i, j > i) are
    the contiguous slots from i * n - i(i + 1) / 2, placed in row i and, negated, in column i."""
    field, n = m.field, m.dim
    p, bits, n2 = field.p, field._bits, n * n
    pairs = list(itertools.combinations(range(n), 2))
    f_col = _combine(field, [1 << bits * n * a for a in range(n)], n2, m.frobenius._rows)  # f_i e_0^T
    v, signs = m.verschiebung._rows, 1 | (p - 1) << bits | (p - 1) << 2 * bits | 1 << 3 * bits
    images = [_combine(field, [f_col[i] << bits * j, f_col[j] << bits * i, v[j] << bits * n * i,
                               v[i] << bits * n * j], n2, [signs])[0] for i, j in pairs]
    system = [r for r in Matrix._from_rows(field, len(pairs), n2, images).transpose()._rows if r]
    solutions = Matrix._from_rows(field, len(system), len(pairs), system).kernel()
    if p == 2:  # cheaper: the XOR of the units E_ij at each kernel vector's set bits
        return _combine(field, [1 << i * n + j | 1 << j * n + i for i, j in pairs], n2, solutions._rows)
    neg, forms = _scale_table(p, p - 1), []
    for c in solutions._rows:
        upper, gram = field._unpack(c, len(pairs)), bytearray(n2)
        for i in range(n):
            start = i * n - i * (i + 1) // 2
            row = upper[start:start + n - 1 - i]
            gram[i * n + i + 1:(i + 1) * n], gram[(i + 1) * n + i::n] = row, row.translate(neg)
        forms.append(field._pack(gram))
    return forms


def _sweep_candidates(d: int, g: int, p: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each nonzero c in {0, ..., p - 1}^d with sum(c) <= g once, sparsest first, as (support, values)."""
    for weight in range(1, min(d, g) + 1):
        parts = [v for v in itertools.product(range(1, min(p, g - weight + 2)), repeat=weight) if sum(v) <= g]
        for support in itertools.combinations(range(d), weight):
            for values in parts:
                yield support, values


def find_polarization(m: DieudonneModule) -> Matrix | None:
    """Search for a compatible principal quasipolarization.

    Solves the homogeneous system {alternating, <Fx,y> = <x,Vy>} for the Gram
    matrix, with echelon basis B_1, ..., B_d, and looks for a nondegenerate
    G(c) = sum c_k B_k.  A greedy pass grows the rank one basis form at a
    time (c_k is the first value in 1..min(p - 1, g) that raises the rank of
    G(c), else 0); then a sweep tries every nonzero c with 0 <= c_k < p and
    sum(c) <= g, g = dim / 2, sparsest first.

    That grid is large enough.  G(c) is nondegenerate exactly when its
    Pfaffian P(c) is nonzero, and P is homogeneous of degree g.  On F_p^d, P
    agrees with its reduction Q by c_k^p = c_k, of degree at most g and
    below p in each c_k.  If Q != 0, take a monomial prod c_k^t_k of Q of
    top degree: Alon's Combinatorial Nullstellensatz gives a point with
    0 <= c_k <= t_k, so sum(c) <= g, where Q, hence P, is nonzero.  So an
    exhausted sweep proves that no compatible nondegenerate form exists over
    F_p, and for p > g (then Q = P) over no extension of F_p either.

    Returns None only with a proof: that one, an odd dimension (alternating
    forms have even rank), no nonzero solution, or a row on which every
    solution vanishes.  Reaching _SWEEP_BUDGET candidates, greedy ones
    included, proves nothing and raises PolarizationSearchError.
    """
    require_valid(m)
    n, p = m.dim, m.field.p
    if n == 0:
        return Matrix.zeros(m.field, 0, 0)
    if n % 2:
        return None
    forms, bits, row_mask = _compatible_forms(m), m.field._bits, (1 << m.field._bits * n) - 1
    # a row on which every solution vanishes makes the whole family degenerate
    union = functools.reduce(int.__or__, forms, 0)
    if not forms or not all(union >> bits * n * i & row_mask for i in range(n)):
        return None
    g, d = n // 2, len(forms)
    tries = itertools.count(1)

    def gram_and_rank(terms: list[tuple[int, int]]) -> tuple[Matrix, int]:
        if next(tries) > _SWEEP_BUDGET:
            raise PolarizationSearchError(f"no compatible nondegenerate form found; the search "
                                          f"stopped after {_SWEEP_BUDGET} candidates, short of its grid")
        coeffs = sum(c << bits * t for t, (_, c) in enumerate(terms))
        packed = _combine(m.field, [forms[k] for k, _ in terms], n * n, [coeffs])[0]
        gram = Matrix._from_rows(m.field, n, n, [packed >> bits * n * i & row_mask for i in range(n)])
        return gram, gram.rank()

    chosen, rank = [], 0
    for k in range(d):
        for t in range(1, min(p, g + 1)):
            gram, r = gram_and_rank(chosen + [(k, t)])
            if r == n:
                return gram
            if r > rank:
                chosen, rank = chosen + [(k, t)], r
                break
    for support, values in _sweep_candidates(d, g, p):
        gram, r = gram_and_rank(list(zip(support, values)))
        if r == n:
            return gram
    return None


def invariants(m: DieudonneModule) -> InvariantBundle:
    g = m.g if m.dim % 2 == 0 else None
    return InvariantBundle(g=g, f=p_rank(m), a=a_number(m), u=unpolarized_ss_rank(m))


def _json_rows(m: Matrix) -> str:
    """A square matrix's entries as nested JSON lists without spaces, read off its packed rows."""
    n = m.ncols
    if m.field.p == 2:  # bit j is entry j, so a row's entries are its binary digits reversed
        spec = f"0{n}b"
        return "[" + ",".join(["[" + ",".join(format(r, spec)[::-1]) + "]" for r in m._rows]) + "]"
    return repr([list(r.to_bytes(n, "little")) for r in m._rows]).replace(" ", "")


def to_json(m: DieudonneModule) -> str:
    """Canonical one-line JSON serialization of a module.

    Byte for byte json.dumps({"p", "dim", "F", "V", "form"}, separators=(",", ":")) of the
    entry lists, with form null when the module carries none.
    """
    form = _json_rows(m.form) if m.form is not None else "null"
    return (f'{{"p":{m.field.p},"dim":{m.dim},"F":{_json_rows(m.frobenius)},'
            f'"V":{_json_rows(m.verschiebung)},"form":{form}}}')


def _read_matrix(field: PrimeField, raw, dim: int) -> Matrix:
    """A JSON dim x dim array of integers as a matrix, entries reduced mod p, checked and read whole:
    its rows are slices and its columns strides of one entry string (over F_2, of its binary digits,
    reversed once so that entry j is bit j).  On a fault the rows are gone through in order, and the
    first bad one decides the message, its shape before its entries."""
    shaped = (isinstance(raw, list) and len(raw) == dim and set(map(type, raw)) <= {list}
              and set(map(len, raw)) <= {dim})
    flat = list(itertools.chain.from_iterable(raw)) if shaped else []
    if not shaped or not set(map(type, flat)) <= {int}:
        if not isinstance(raw, list) or len(raw) != dim:
            raise ValueError("matrix must be a dim x dim array")
        for row in raw:
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError("matrix must be a dim x dim array")
            if not set(map(type, row)) <= {int}:
                raise ValueError("matrix entries must be integers")
    p = field.p
    try:  # entries that are bytes are reduced by one table lookup each
        entries = bytes(flat).translate(_scale_table(p, 1))
    except ValueError:
        entries = bytes(map(p.__rmod__, flat))
    if p == 2:
        digits = entries.translate(_ENTRIES_TO_DIGITS)[::-1]
        rows = [int(digits[(dim - 1 - i) * dim:(dim - i) * dim], 2) for i in range(dim)]
        cols = [int(digits[dim - 1 - j::dim], 2) for j in range(dim)]
    else:
        rows = [int.from_bytes(entries[i * dim:(i + 1) * dim], "little") for i in range(dim)]
        cols = [int.from_bytes(entries[j::dim], "little") for j in range(dim)]
    return Matrix._from_rows(field, dim, dim, rows, tuple(cols))


def from_json(text: str, max_dim: int | None = None) -> DieudonneModule:
    """Parse the canonical module serialization; integer entries are reduced mod p."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("module JSON must be an object")
    try:
        p, dim, raw_f, raw_v = obj["p"], obj["dim"], obj["F"], obj["V"]
    except KeyError as missing:
        raise ValueError(f"module JSON is missing key {missing}") from None
    if type(p) is not int or type(dim) is not int:
        raise ValueError("module JSON p and dim must be integers")
    field = PrimeField(p)
    if max_dim is not None and dim > max_dim:
        raise ValueError(f"module dim is capped at {max_dim}")
    raw_form = obj.get("form")
    form = _read_matrix(field, raw_form, dim) if raw_form is not None else None
    return DieudonneModule(_read_matrix(field, raw_f, dim), _read_matrix(field, raw_v, dim), form)
