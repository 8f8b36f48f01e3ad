"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (tolerance zero); the time limits are generous
single-core budgets.  Run with `pytest tests/test_acceptance.py -v` (add -s
to watch the per-criterion lines stream).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from helpers import all_cyclic_words, brute_force_embedding_count
from ssrank import bt1, cli
from ssrank.bt1 import (
    a_number,
    check_polarization,
    direct_sum,
    p_rank,
    unpolarized_ss_rank,
    zero_module,
)
from ssrank.build import h_rs, i11
from ssrank.curves import (
    PoleDivisor,
    doubling_orbits,
    ekedahl_bound,
    hermitian_analyze,
    hyp2_analyze,
    hyp2_module_oracle,
    hyp2_rank0_type,
)
from ssrank.eo import EOType, canonical_module, enumerate_types, eo_type_of
from ssrank.ffmat import GF2
from ssrank.words import (
    CyclicWord,
    census_invariants,
    census_of_type,
    superspecial_rank,
    word_module,
)

FV = CyclicWord("FV")

_ACTIVE_CAPSYS = None


@pytest.fixture(autouse=True)
def _criterion_printer(capsys):
    global _ACTIVE_CAPSYS
    _ACTIVE_CAPSYS = capsys
    yield
    _ACTIVE_CAPSYS = None


def _announce(line: str) -> None:
    if _ACTIVE_CAPSYS is not None:
        with _ACTIVE_CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(name: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _announce(f"{name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    _announce(f"{name}: PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s"


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_a1_eo_enumeration_counts(capsys):
    with criterion("A1 EO enumeration 2^g for g=1..12", budget_seconds=5.0):
        for g in range(1, 13):
            code, out = run_cli(capsys, "eo", "list", "--g", str(g), "--format", "csv")
            assert code == 0
            assert len(out.splitlines()) == 2 ** g


def test_a2_round_trip_and_formulas(capsys):
    with criterion("A2 type round trip and nu formulas, g<=6", budget_seconds=10.0):
        seen = 0
        for g in range(1, 7):
            for t in enumerate_types(g):
                m = canonical_module(t, GF2)
                assert eo_type_of(m) == t
                assert t.p_rank() == p_rank(m)
                assert t.a_number() == a_number(m)
                seen += 1
        assert seen == 126


def test_a3_superspecial_fixtures():
    with criterion("A3 superspecial rank fixtures"):
        tower = zero_module(GF2)
        for g in range(1, 11):
            tower = direct_sum(tower, i11(GF2))
            assert superspecial_rank(tower) == g
        for g in range(2, 11):
            assert census_of_type(EOType.of(range(g))).multiplicity(FV) == 0
        for r in range(2, 6):
            for s in range(2, 6):
                assert superspecial_rank(h_rs(r, s, GF2)) == 0


def test_a4_profile_realization_and_necessity(capsys):
    with criterion("A4 (f,a,s) realization g<=7 and exhaustive necessity", budget_seconds=60.0):
        realized = 0
        for g in range(0, 8):
            for f in range(g + 1):
                for a in range(g - f + 1):
                    for s in range(a):
                        if not (0 <= s < a < g - f):
                            continue
                        code, out = run_cli(capsys, "build", "profile", "--g", str(g),
                                            "--f", str(f), "--a", str(a), "--s", str(s),
                                            "--p", "2")
                        assert code == 0
                        m = bt1.from_json(out.strip())
                        assert (p_rank(m), a_number(m), superspecial_rank(m)) == (f, a, s)
                        assert check_polarization(m)
                        realized += 1
        assert realized == 126

        from ssrank.build import ProfileQuery, feasible

        for g in range(0, 8):
            for t in enumerate_types(g):
                census = census_of_type(t)
                bundle = census_invariants(census)
                f, a, s = bundle.f, bundle.a, bundle.s
                assert 0 <= s <= a <= g - f
                if a == g - f:
                    assert s == a
                    expected = {}
                    if f:
                        expected.update({"F": f, "V": f})
                    if g - f:
                        expected["FV"] = g - f
                    assert census.as_dict() == expected
                else:
                    assert s < a
                assert feasible(ProfileQuery(g, f, a, s))


def test_a5_supersingular_profile_cli(capsys):
    with criterion("A5 supersingular profile succeeds iff s in [0, g-2] or s = g"):
        for g in range(1, 11):
            for s in range(0, g + 2):
                code, out = run_cli(capsys, "build", "ss", "--g", str(g), "--s", str(s),
                                    "--p", "2")
                expected_ok = s <= g - 2 or s == g
                assert code == (0 if expected_ok else 3), (g, s, code)
                if expected_ok:
                    m = bt1.from_json(out.strip())
                    assert superspecial_rank(m) == s


def test_a6_hyperelliptic_char2():
    with criterion("A6 hyperelliptic char 2: closed form vs decomposition oracle",
                   budget_seconds=30.0):
        for g in range(1, 31):
            divisor = PoleDivisor.of([2 * g + 1])
            closed = hyp2_analyze(divisor).s
            assert closed == (1 if g % 3 == 1 else 0)
            oracle = superspecial_rank(hyp2_module_oracle(divisor))
            assert oracle == closed
            # same answer through the type-level pipeline
            assert census_of_type(hyp2_rank0_type(g)).multiplicity(FV) == closed

        rng = random.Random(170801)
        for _ in range(100):
            r = rng.randrange(0, 5)
            orders = [2 * rng.randrange(0, 8) + 1 for _ in range(r + 1)]
            divisor = PoleDivisor.of(orders)
            report = hyp2_analyze(divisor)
            assert report.g <= 40
            assert report.s == sum(1 for c in report.c if c % 3 == 1)
            assert report.s <= 1 + r
            assert report.s == superspecial_rank(hyp2_module_oracle(divisor))


def _word_multisets(max_total: int):
    pool = []
    for length in range(1, max_total + 1):
        pool.extend(all_cyclic_words(length))
    pool.sort(key=lambda w: (len(w), w.letters))

    def rec(start: int, remaining: int, chosen: list):
        if chosen:
            yield list(chosen)
        for i in range(start, len(pool)):
            w = pool[i]
            if len(w) > remaining:
                break
            chosen.append(w)
            yield from rec(i, remaining - len(w), chosen)
            chosen.pop()

    yield from rec(0, max_total, [])


def test_a7_unpolarized_rank_oracle():
    with criterion("A7 unpolarized rank closed form vs exhaustive embedding search"):
        checked = 0
        for multiset in _word_multisets(6):
            m = zero_module(GF2)
            for w in multiset:
                m = direct_sum(m, word_module(w, GF2))
            assert unpolarized_ss_rank(m) == brute_force_embedding_count(m)
            checked += 1
        assert checked > 100


def test_a8_hermitian_table():
    with criterion("A8 Hermitian invariants for p in {2,3,5}, n in 1..4", budget_seconds=5.0):
        for p in (2, 3, 5):
            for n in range(1, 5):
                r = hermitian_analyze(p, n)
                q = p ** n
                assert r.q == q
                assert r.g == q * (q - 1) // 2
                assert r.a == q * (p ** (n - 1) + 1) * (p - 1) // 4
                assert (r.a == r.g) == (n == 1)
                if n == 2:
                    assert 2 * r.a == r.g
                if n % 2 == 0:
                    assert r.s == 0
                else:
                    assert r.s == (p * (p - 1) // 2) ** n
                assert r.e_bound == r.s
                assert sum(len(o) for o in r.orbits) == 2 ** n
                assert r.points_q2 == q ** 3 + 1
                assert r.zeta_numerator_exponent == r.g
                assert ekedahl_bound(p, r.g) == (n == 1)
        assert doubling_orbits(1) == ((1, 2),)


def test_a9_additivity_of_all_ranks():
    with criterion("A9 f, a, s, u additive over 500 random direct sums"):
        rng = random.Random(990131)
        mixed = [w for length in range(2, 7) for w in all_cyclic_words(length) if w.is_mixed()]
        pure_pairs = [(CyclicWord("F"), CyclicWord("V")),
                      (CyclicWord("FF"), CyclicWord("VV"))]

        def measure(m):
            return (p_rank(m), a_number(m), superspecial_rank(m), unpolarized_ss_rank(m))

        part_cache = {}

        def part_for(words_key):
            if words_key not in part_cache:
                m = zero_module(GF2)
                for w in words_key:
                    m = direct_sum(m, word_module(w, GF2))
                part_cache[words_key] = (m, measure(m))
            return part_cache[words_key]

        for _ in range(500):
            keys = []
            for _ in range(rng.randrange(2, 5)):
                if rng.random() < 0.25:
                    keys.append(pure_pairs[rng.randrange(2)])
                else:
                    keys.append((rng.choice(mixed),))
            total = zero_module(GF2)
            expected = (0, 0, 0, 0)
            for key in keys:
                part, stats = part_for(key)
                total = direct_sum(total, part)
                expected = tuple(x + y for x, y in zip(expected, stats))
            assert measure(total) == expected


def test_a10_polarizations_on_canonical_modules():
    with criterion("A10 every canonical module g<=6 carries a verified form"):
        for g in range(0, 7):
            for t in enumerate_types(g):
                m = canonical_module(t, GF2)
                assert m.form is not None
                assert check_polarization(m)
