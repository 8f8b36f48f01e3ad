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

from .ffmat import (_ENTRIES_TO_DIGITS, _SMALL_PRIMES, Matrix, PrimeField, Row, _combine, _echelon,
                    _scale_table, _set, _Value, block_diag)


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
        _set(self, "frobenius", frobenius)  # hand-written: one per module, where `_assign` costs 0.4 us more
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
        self._assign(g, f, a, s, u)


def zero_module(field: PrimeField) -> DieudonneModule:
    m = Matrix.zeros(field, 0, 0)
    return DieudonneModule(m, m, m)


def validate_bt1(m: DieudonneModule) -> list[str]:
    """All violated axioms, as strings; empty means the module is valid BT1.

    A module in word form, each column of F and V with one nonzero entry or none, is
    decided off their node maps (`Matrix._node_map`).  A matrix whose nonzero columns are
    c_j e_(i_j), any c_j != 0, has the span of the distinct e_(i_j) as its image, so its
    rank is the number of distinct rows hit; and F kills im V, spanned by the nodes V hits,
    iff no node V hits has an F-image.  Any other module has its columns of F and of V
    reduced to echelon bases of im F and im V.
    """
    f, v = m.frobenius, m.verschiebung
    f_map, v_map = f._node_map(), v._node_map()
    if f_map is not None and v_map is not None:
        im_f, im_v = {i for i, _ in f_map.values()}, {i for i, _ in v_map.values()}
        fv_zero, vf_zero = im_v.isdisjoint(f_map), im_f.isdisjoint(v_map)
    else:
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
    """The violated form axioms of a module that carries a form, as strings.

    When F, V and the Gram matrix G all have node maps (`Matrix._node_map`), each check
    reads the maps' entries (i, j, c), G e_j = c e_i, any c != 0, with no row reduction.  G is
    antisymmetric iff every entry (i, j, c) has a partner (j, i, -c): an entry without
    one is a pair where G^T != -G, and a nonzero (j, i) has its own partner at (i, j).
    The partners, keyed by their column i, are G's map exactly then: each entry's
    partner is G's entry in column i, and two entries in one row i, whose partners
    would share column i, leave fewer keys than G has entries.  The keys are the
    distinct rows G hits, and their number is its rank (see `validate_bt1`).  Every entry
    of a product A B of two such matrices has at most one term, as column j of B has
    one nonzero entry: (F^T G)_ij = a c where F e_i = a e_k and G e_j = c e_k, and
    (G V)_ij = c b where V e_j = b e_k and G e_k = c e_i.  Any other module goes
    through dense transposes, products and the rank of G.
    """
    gram = m.form
    assert gram is not None
    g_map, f_map, v_map = gram._node_map(), m.frobenius._node_map(), m.verschiebung._node_map()
    out = []
    if g_map is None or f_map is None or v_map is None:
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
    p = m.field.p
    partners = {i: (j, p - c) for j, (i, c) in g_map.items()}  # one per row G hits
    if partners != g_map:
        out.append("form is not antisymmetric")
    if any(i == j for j, (i, _) in g_map.items()):
        out.append("form has a nonzero diagonal entry")
    if len(partners) < m.dim:
        out.append("form is degenerate")
    hit_by = {}  # row k -> the (j, c) with G e_j = c e_k
    for j, (k, c) in g_map.items():
        hit_by.setdefault(k, []).append((j, c))
    ftg = {(i, j): a * c % p for i, (k, a) in f_map.items() for j, c in hit_by.get(k, ())}
    gv = {(g_map[k][0], j): g_map[k][1] * b % p for j, (k, b) in v_map.items() if k in g_map}
    if ftg != gv:
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
    """Canonical RREF basis of the compatible alternating Gram matrices, on the pairs i < j in
    combinations order, each packed row-major (entry (a, b) in slot a * n + b).

    G -> F^T G - G V sends E_ij = e_i e_j^T - e_j e_i^T to f_i e_j^T - f_j e_i^T - e_i v_j^T +
    e_j v_i^T (f_i, v_i the rows of F and V).  The system takes the pairs in reverse order, and
    one reduction gives its null vectors: in the RREF of the reversed columns, the vector of
    free column f' has 1 at f' and its other entries at pivot columns before f'.  Read in
    combinations order, its lowest slot is its own free column, with entry 1, and it is zero
    at every other free column; so these vectors, by free column, are the kernel's canonical
    RREF, whose order `find_polarization`'s greedy picks follow.  `_null_rows` yields them by
    increasing reversed column, hence the reversal.  A vector c on the pairs is the Gram
    matrix's upper triangle: the pairs (i, j > i) are the contiguous slots from
    i * n - i(i + 1) / 2, placed in row i and, negated, in column i."""
    field, n = m.field, m.dim
    p, bits, n2 = field.p, field._bits, n * n
    pairs = list(itertools.combinations(range(n), 2))[::-1]
    f_col = _combine(field, [1 << bits * n * a for a in range(n)], n2, m.frobenius._rows)  # f_i e_0^T
    v, signs = m.verschiebung._rows, 1 | (p - 1) << bits | (p - 1) << 2 * bits | 1 << 3 * bits
    images = [_combine(field, [f_col[i] << bits * j, f_col[j] << bits * i, v[j] << bits * n * i,
                               v[i] << bits * n * j], n2, [signs])[0] for i, j in pairs]
    system = [r for r in Matrix._from_rows(field, len(pairs), n2, images).transpose()._rows if r]
    solutions = Matrix._from_rows(field, len(system), len(pairs), system)._null_rows()[::-1]
    if p == 2:  # cheaper: the XOR of the units E_ij at each null vector's set bits
        return _combine(field, [1 << i * n + j | 1 << j * n + i for i, j in pairs], n2, solutions)
    neg, forms = _scale_table(p, p - 1), []
    for c in solutions:
        upper, gram = field._unpack(c, len(pairs))[::-1], bytearray(n2)
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
    matrix, with its canonical RREF basis B_1, ..., B_d (a subspace has one, and
    the greedy picks follow its order), and looks for a nondegenerate
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

    Before the sweep, a module that `eo.eo_type_of` refuses is formless too.
    A compatible nondegenerate form makes x -> <x, .> an isomorphism of M onto
    its Cartier dual (F goes to V^T and V to F^T).  The dual's canonical
    filtration is the annihilators of M's, so its final profile is
    psi*(n - d) = psi(d) + rank F - d, and psi* = psi forces rank V = rank F = g
    and psi(i) = psi(n - i) + i - g: an odd dimension, rank V != g and an
    asymmetric profile, the three FiltrationErrors, each rule a form out over
    F_p and every extension.

    Returns None only with a proof: those, no nonzero solution, a row on which
    every solution vanishes, or the exhausted sweep.  Reaching _SWEEP_BUDGET
    candidates, greedy ones included, proves nothing and raises
    PolarizationSearchError.
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
    # imported here, as eo imports bt1; perfbench traces this function under ssrank.bt1
    from .eo import FiltrationError, eo_type_of
    try:
        eo_type_of(m)
    except FiltrationError:
        return None
    for support, values in _sweep_candidates(d, g, p):
        gram, r = gram_and_rank(list(zip(support, values)))
        if r == n:
            return gram
    return None


def invariants(m: DieudonneModule) -> InvariantBundle:
    """f, a and u, the last two off one rank of [F; V]: a = n - rank [F; V] (`a_number`) and
    u = rank [F; V] - rank (F + V) (`unpolarized_ss_rank`)."""
    g = m.g if m.dim % 2 == 0 else None
    f, stacked = p_rank(m), m.frobenius._stacked_rank(m.verschiebung)
    u = stacked - m.frobenius.add(m.verschiebung).rank()
    return InvariantBundle(g=g, f=f, a=m.dim - stacked, u=u)


# the str.translate table of `_json_rows` over odd p
_JSON_ENTRIES = [f"{b}," for b in range(255)] + ["],["]


def _json_rows(m: Matrix) -> str:
    """A square matrix's entries as nested JSON lists without spaces, read off its packed rows."""
    n = m.ncols
    if not n:
        return "[]"
    if m.field.p == 2:
        # row i shifted by n*i, so that entry (i, j) is bit n*i + j: the binary digits reversed
        # are the entries row after row, and each row is a 2n - 1 slice of them comma-joined
        stacked = 0
        for r in reversed(m._rows):
            stacked = stacked << n | r
        entries = ",".join(format(stacked, f"0{n * n}b")[::-1])
        return "[[" + "],[".join([entries[i:i + 2 * n - 1] for i in range(0, 2 * n * n, 2 * n)]) + "]]"
    # entries are below p <= 97, so byte 0xFF can split the rows: each entry b reads "b,"
    # and each split "],[", and then the comma that ends each row is dropped
    text = b"\xff".join([r.to_bytes(n, "little") for r in m._rows]).decode("latin-1")
    return "[[" + text.translate(_JSON_ENTRIES).replace(",]", "]")[:-1] + "]]"


def to_json(m: DieudonneModule) -> str:
    """Canonical one-line JSON serialization of a module.

    Byte for byte json.dumps({"p", "dim", "F", "V", "form"}, separators=(",", ":")) of the
    entry lists, with form null when the module carries none.
    """
    form = _json_rows(m.form) if m.form is not None else "null"
    return (f'{{"p":{m.field.p},"dim":{m.dim},"F":{_json_rows(m.frobenius)},'
            f'"V":{_json_rows(m.verschiebung)},"form":{form}}}')


def _entries_matrix(field: PrimeField, entries: bytes, dim: int) -> Matrix:
    """The dim x dim matrix of `entries`, one reduced entry byte each, row after row: its columns are
    strides of the entries and its rows slices (over F_2, dim-bit fields of their binary digits, reversed
    once and read as one integer, so entry (i, j) is bit i dim + j).  Both module readers end here."""
    if field.p == 2:
        digits = entries.translate(_ENTRIES_TO_DIGITS)[::-1]
        whole, mask = int(digits or b"0", 2), (1 << dim) - 1
        rows = [whole >> i * dim & mask for i in range(dim)]
        cols = [int(digits[dim - 1 - j::dim], 2) for j in range(dim)]
    else:
        rows = [int.from_bytes(entries[i * dim:(i + 1) * dim], "little") for i in range(dim)]
        cols = [int.from_bytes(entries[j::dim], "little") for j in range(dim)]
    return Matrix._from_rows(field, dim, dim, rows, tuple(cols))


def _read_matrix(field: PrimeField, raw, dim: int) -> Matrix:
    """A JSON dim x dim array of integers as a matrix, entries reduced mod p, checked and read whole into
    one string of entry bytes (`_entries_matrix`).  On a fault the rows are gone through in order, and
    the first bad one decides the message, its shape before its entries."""
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
    return _entries_matrix(field, entries, dim)


# the bytes.translate table of `_read_compact` that writes every digit as 0
_ZEROED_DIGITS = bytes.maketrans(b"123456789", b"000000000")


def _json_natural(text: str, width: int) -> int | None:
    """The value of an ASCII text of at most `width` digits that JSON reads as an integer, with no
    sign and no leading zero; else None."""
    if text.isdigit() and len(text) <= width and (text[0] != "0" or text == "0"):
        return int(text)
    return None


def _read_compact(text: str, max_dim: int | None) -> DieudonneModule | None:
    """The module of a text in `to_json`'s layout, read without a JSON parser, or None for any other text.

    The layout is {"p":P,"dim":D,"F":M,"V":M,"form":null|M} with at most one newline after it, P and D
    written as JSON writes them, D below 1000, and each M a D x D array of single ASCII digits.  Such a
    text is the JSON of a module that the json route reads with no fault once p is a supported prime
    and D within max_dim, so those two are checked first, and this route raises nothing: any other text
    is None, and json gives its answer.  A single-digit M is exactly 2D^2 + 2D + 1 characters ("[]" at
    D = 0), so the text's length tells a form from null, and declines wider entries, before a character
    is read.  Then the text with each digit written as 0 must be the layout's own, character for
    character, and each M with its brackets and commas deleted is its entry bytes, digit k read as
    k mod p.
    """
    head, _, body = text.partition(',"F":')
    p_text, _, d_text = head.partition(',"dim":')
    if not text.isascii() or p_text[:5] != '{"p":':
        return None
    p, dim = _json_natural(p_text[5:], 2), _json_natural(d_text, 3)
    if p not in _SMALL_PRIMES or dim is None or max_dim is not None and dim > max_dim:
        return None
    n, body = max(2 * dim * (dim + 1) + 1, 2), body.removesuffix("\n")
    has_form = len(body) == 3 * n + 14
    if not has_form and len(body) != 2 * n + 18:
        return None
    shape = "[" + ",".join(["[" + ",".join("0" * dim) + "]"] * dim) + "]"
    layout, data = f'{shape},"V":{shape},"form":{shape if has_form else "null"}}}', body.encode()
    if data.translate(_ZEROED_DIGITS) != layout.encode():
        return None
    field = PrimeField(p)
    values = bytes.maketrans(b"0123456789", bytes(range(10)).translate(_scale_table(p, 1)))
    frob, ver, *form = [_entries_matrix(field, data[start:start + n].translate(values, b"[],"), dim)
                        for start in (0, n + 5, 2 * n + 13)[:2 + has_form]]
    return DieudonneModule(frob, ver, *form)


def from_json(text: str, max_dim: int | None = None) -> DieudonneModule:
    """Parse the canonical module serialization; integer entries are reduced mod p.

    `to_json`'s own text with single-digit entries is read directly (`_read_compact`); every other
    layout goes through `json`, with the same answers and the same messages."""
    compact = _read_compact(text, max_dim)
    if compact is not None:
        return compact
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
