"""The value types: one slotted immutable base, behaving like frozen records.

Golden reprs are in the `Name(field=value, ...)` format that callers and
error messages (for example `infeasible: profile ProfileQuery(...)`) show.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ssrank.bt1 import DieudonneModule, InvariantBundle, require_valid
from ssrank.build import ProfileQuery, i11
from ssrank.curves import HermitianReport, HyperellipticReport, PoleDivisor, hermitian_analyze, hyp2_analyze
from ssrank.eo import EOType, FinalType
from ssrank.ffmat import GF2, Matrix, PrimeField
from ssrank.words import FV, CyclicWord, WordCensus

SRC = Path(__file__).resolve().parents[1] / "src"

I11_REPR = (
    "DieudonneModule(frobenius=Matrix(field=PrimeField(p=2), nrows=2, ncols=2, entries=((0, 0), (1, 0))), "
    "verschiebung=Matrix(field=PrimeField(p=2), nrows=2, ncols=2, entries=((0, 0), (1, 0))), "
    "form=Matrix(field=PrimeField(p=2), nrows=2, ncols=2, entries=((0, 1), (1, 0))))")

# class: (fresh instance, a different instance, field names in order, golden repr)
CASES = {
    PrimeField: (lambda: PrimeField(3), lambda: PrimeField(5), ("p",), "PrimeField(p=3)"),
    EOType: (lambda: EOType((0, 1)), lambda: EOType((1, 1)), ("nu",), "EOType(nu=(0, 1))"),
    FinalType: (lambda: FinalType((0, 0, 1, 1, 2)), lambda: FinalType((0, 1, 2, 2, 2)), ("psi",),
                "FinalType(psi=(0, 0, 1, 1, 2))"),
    CyclicWord: (lambda: CyclicWord("FVV"), lambda: CyclicWord("FFV"), ("letters",),
                 "CyclicWord(letters='FVV')"),
    WordCensus: (lambda: WordCensus(((CyclicWord("FV"), 2),)), lambda: WordCensus(((FV, 1),)),
                 ("counts",), "WordCensus(counts=((CyclicWord(letters='FV'), 2),))"),
    DieudonneModule: (lambda: i11(GF2), lambda: i11(PrimeField(3)),
                      ("frobenius", "verschiebung", "form"), I11_REPR),
    InvariantBundle: (lambda: InvariantBundle(3, 0, 2, 1), lambda: InvariantBundle(3, 0, 2, 1, 1),
                      ("g", "f", "a", "s", "u"), "InvariantBundle(g=3, f=0, a=2, s=1, u=None)"),
    ProfileQuery: (lambda: ProfileQuery(3, 0, 3, 1), lambda: ProfileQuery(3, 0, 3, 2),
                   ("g", "f", "a", "s"), "ProfileQuery(g=3, f=0, a=3, s=1)"),
    PoleDivisor: (lambda: PoleDivisor((3, 9)), lambda: PoleDivisor((9, 3)), ("orders",),
                  "PoleDivisor(orders=(3, 9))"),
    HyperellipticReport: (lambda: hyp2_analyze(PoleDivisor((3, 9))),
                          lambda: hyp2_analyze(PoleDivisor((3,))),
                          ("poles", "g", "f", "c", "s", "s_bound", "e_bound", "summands"),
                          "HyperellipticReport(poles=(3, 9), g=6, f=1, c=(1, 4), s=2, s_bound=2, "
                          "e_bound=3, summands=((1,), (0,), (0, 1, 1, 2)))"),
    HermitianReport: (lambda: hermitian_analyze(2, 2), lambda: hermitian_analyze(3, 1),
                      ("p", "n", "q", "g", "a", "s", "e_bound", "orbits", "zeta_numerator_exponent",
                       "points_q2"),
                      "HermitianReport(p=2, n=2, q=4, g=6, a=3, s=0, e_bound=0, orbits=((1, 2, 3, 4),), "
                      "zeta_numerator_exponent=6, points_q2=65)"),
}
PARAMETRIZE = pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)


@PARAMETRIZE
def test_value_equality_hash_and_repr(cls):
    make, make_other, names, golden = CASES[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and other != a
    assert a != tuple(getattr(a, name) for name in names)
    assert repr(a) == golden and repr(other) != golden
    assert len({a, b, other}) == 2


@PARAMETRIZE
def test_value_is_immutable(cls):
    a = CASES[cls][0]()
    first = CASES[cls][2][0]
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(a, first))
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")


@PARAMETRIZE
def test_value_pickle_and_copy_round_trip(cls):
    a = CASES[cls][0]()
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(clone) is cls and clone == a and hash(clone) == hash(a) and repr(clone) == repr(a)


@PARAMETRIZE
def test_value_keyword_and_positional_construction(cls):
    make, _, names, _ = CASES[cls]
    a = make()
    values = {name: getattr(a, name) for name in names}
    assert cls(**values) == a
    assert cls(*values.values()) == a


def test_constructor_defaults():
    f = i11(GF2).frobenius
    assert DieudonneModule(f, f) == DieudonneModule(frobenius=f, verschiebung=f, form=None)
    assert DieudonneModule(f, f).form is None
    bundle = InvariantBundle(3, 0, 2)
    assert (bundle.s, bundle.u) == (None, None)
    assert bundle == InvariantBundle(g=3, f=0, a=2, s=None, u=None)
    assert InvariantBundle(g=None, f=0, a=1, u=1) == InvariantBundle(None, 0, 1, None, 1)


def test_constructor_checks_keep_their_messages():
    f2, f3 = Matrix.zeros(GF2, 2, 2), Matrix.zeros(PrimeField(3), 2, 2)
    with pytest.raises(ValueError, match="^operator field mismatch$"):
        DieudonneModule(f2, f3)
    with pytest.raises(ValueError, match="^operators must be square matrices of equal size$"):
        DieudonneModule(f2, Matrix.zeros(GF2, 2, 3))
    with pytest.raises(ValueError, match="^form shape does not match the module$"):
        DieudonneModule(f2, f2, Matrix.zeros(GF2, 3, 3))
    with pytest.raises(ValueError, match=r"^not a valid EO type: \[0, 2\]$"):
        EOType((0, 2))
    with pytest.raises(ValueError, match="^psi is not symmetric$"):
        FinalType((0, 0, 1, 2, 2))
    with pytest.raises(ValueError, match="canonical rotation"):
        CyclicWord("VF")
    with pytest.raises(ValueError, match="positive multiplicities"):
        WordCensus(((FV, 0),))
    with pytest.raises(ValueError, match="got 4"):
        PoleDivisor((3, 4))


def test_validated_flag_stays_out_of_eq_hash_and_repr():
    m, fresh = i11(GF2), i11(GF2)
    require_valid(m)
    assert m._validated and not fresh._validated
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert "_validated" not in repr(m)
    assert not pickle.loads(pickle.dumps(m))._validated
    assert not copy.deepcopy(m)._validated


def test_with_form_goes_through_the_constructor():
    m = i11(GF2)
    require_valid(m)
    bare = m.with_form(None)
    assert type(bare) is DieudonneModule and bare.form is None and not bare._validated
    assert bare.with_form(m.form) == m and not bare.with_form(m.form)._validated
    with pytest.raises(ValueError, match="^form shape does not match the module$"):
        m.with_form(Matrix.zeros(GF2, 3, 3))


def test_prime_field_takes_exact_ints_only():
    for bad in (3.0, True, "3", None):
        with pytest.raises(ValueError, match="p must be a prime with 2 <= p <= 97"):
            PrimeField(bad)
    assert PrimeField(3) == PrimeField(3) and PrimeField(3) != PrimeField(2)
    assert Matrix.build(PrimeField(3), [[1, 2], [2, 1]]).rank() == 1


def test_sequence_fields_are_stored_as_tuples():
    t = EOType([0, 1])
    assert t.nu == (0, 1) and t == EOType((0, 1)) and hash(t) == hash(EOType((0, 1)))
    census = WordCensus([(FV, 1)])
    assert census.counts == ((FV, 1),) and census == WordCensus(((FV, 1),))
    assert hash(census) == hash(WordCensus(((FV, 1),)))
    assert FinalType([0, 0, 1]).psi == (0, 0, 1)
    assert PoleDivisor([3, 9]) == PoleDivisor((3, 9)) and PoleDivisor([3, 9]).orders == (3, 9)


def test_cli_import_loads_no_heavy_stdlib_modules():
    """`import ssrank.cli` under -S (no site hooks) stays off dataclasses, inspect, typing, random."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ssrank.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
