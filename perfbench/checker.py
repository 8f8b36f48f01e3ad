"""Checks every CLI response against values derived from the request itself.

A response gets one of three verdicts:

- "ok": exit 0 and the output matches what the request implies;
- "failed": the request did not deliver. It exited non-zero where success
  was expected, or a `build profile`, `eo module` or `module polarize`
  response carries no form;
- "wrong": the output contradicts the expected values, for example wrong
  invariants, a module that violates the BT1 axioms, or a form that is
  degenerate or incompatible.

Failed and wrong responses both count as failed requests.  Only a wrong
response makes a run incorrect.
"""

from __future__ import annotations

import json
from collections import Counter

import modp

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Mismatch(Exception):
    """A response contradicts the expected values."""


class _NoForm(Exception):
    """A response that must carry a form has none."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Checker:
    """Verdicts for responses; caches expected listings per g."""

    def __init__(self) -> None:
        self._rows: dict[int, list[dict]] = {}

    def verdict(self, request: dict, code, out: str, read_file) -> tuple[str, str]:
        """(verdict, reason) for one response; read_file(path) reads a written file."""
        expect = request["expect"]
        check = expect["check"]
        if code != 0:
            return FAILED, f"exit {code}"
        try:
            getattr(self, "_" + check)(expect, out, read_file)
        except _NoForm:
            return FAILED, "no form"
        except Mismatch as exc:
            return WRONG, str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return WRONG, f"malformed output: {exc!r}"
        return OK, ""

    # --- expected catalogues -----------------------------------------------

    def rows(self, g: int) -> list[dict]:
        """Expected `eo list` rows at g, in lexicographic nu order."""
        if g not in self._rows:
            rows = []
            for nu in modp.all_types(g):
                census = modp.census_of_type(nu)
                words = {w: census[w] for w in sorted(census, key=lambda w: (len(w), w))}
                rows.append({"g": g, "nu": list(nu), "f": modp.type_f(nu), "a": modp.type_a(nu),
                             "s": census["FV"], "words": words})
            self._rows[g] = rows
        return self._rows[g]

    @staticmethod
    def csv_line(row: dict) -> str:
        nu = ";".join(map(str, row["nu"]))
        words = ";".join(w for w, m in row["words"].items() for _ in range(m))
        return f"{row['g']},{nu},{row['f']},{row['a']},{row['s']},{words}"

    # --- per-command checks ------------------------------------------------

    def _eo_list(self, e, out, _read):
        g = e["g"]
        wanted = e["filter"]
        rows = [r for r in self.rows(g) if all(r[k] == v for k, v in wanted.items())]
        if e["format"] == "csv":
            got = out.splitlines()
            _expect(len(got) == len(rows), f"listing has {len(got)} rows, expected {len(rows)}")
            _expect(got == [self.csv_line(r) for r in rows], "csv rows differ")
        else:
            got = json.loads(out)
            _expect(len(got) == len(rows), f"listing has {len(got)} rows, expected {len(rows)}")
            _expect(got == rows, "json rows differ")

    def _atlas(self, e, out, read_file):
        _expect(out == "", "atlas wrote to stdout")
        expected = [self.csv_line(r) for g in range(1, e["g_max"] + 1) for r in self.rows(g)]
        got = read_file(e["out"]).splitlines()
        _expect(len(got) == len(expected), f"atlas has {len(got)} rows, expected {len(expected)}")
        _expect(got == expected, "atlas rows differ")

    def _table_feasibility(self, e, out, _read):
        g = e["g"]
        feas = {(r["f"], r["a"], r["s"]) for r in self.rows(g)}
        rows = [{"f": f, "a": a, "s": s, "feasible": (f, a, s) in feas}
                for f in range(g + 1) for a in range(g - f + 1) for s in range(a + 1)]
        _expect(json.loads(out) == {"g": g, "rows": rows}, "feasibility table differs")

    def _module_invariants(self, e, out, _read):
        p, nu = e["p"], e["nu"]
        g = len(nu)
        frob, ver = modp.canonical_module(nu, p)
        want = {"p": p, "dim": 2 * g, "g": g, "f": modp.type_f(nu), "a": modp.type_a(nu),
                "u": modp.unpolarized_rank(frob, ver, p)}
        _expect(json.loads(out) == want, f"invariants differ from {want}")

    def _module_decompose(self, e, out, _read):
        nu = e["nu"]
        census = modp.census_of_type(nu)
        want = {"census": dict(census), "g": len(nu), "f": modp.type_f(nu),
                "a": modp.type_a(nu), "s": census["FV"]}
        _expect(json.loads(out) == want, f"decomposition differs from {want}")

    def _module_check(self, e, out, _read):
        _expect(json.loads(out) == {"valid": True, "violations": []}, "valid module reported invalid")

    def _curve_hyp2(self, e, out, _read):
        poles = e["poles"]
        c = [(d - 1) // 2 for d in poles]
        r = len(poles) - 1
        s = sum(1 for cj in c if cj % 3 == 1)
        census = Counter({"F": r, "V": r}) if r else Counter()
        for cj in c:
            if cj >= 1:
                census += modp.census_of_type([i // 2 for i in range(1, cj + 1)])
        _expect(census["FV"] == s, "closed-form s disagrees with the node-map census")
        want = {"poles": poles, "g": r + sum(c), "f": r, "c": c, "s": s, "s_bound": 1 + r,
                "e_bound": min(1 + 2 * r, r + s),
                "summands": [[1]] * r + [[i // 2 for i in range(1, cj + 1)] for cj in c if cj >= 1],
                "oracle_s": s, "oracle_census": dict(census)}
        _expect(json.loads(out) == want, "hyperelliptic report differs")

    def _module_polarize(self, e, out, _read):
        m = _module(out, e["p"])
        _expect(m["F"] == e["F"] and m["V"] == e["V"], "polarize changed the operators")
        _verified_form(m, e["p"])

    def _build_profile(self, e, out, _read):
        m = _module(out, e["p"])
        _invariants(m, e["p"], e["g"], f=e["f"], a=e["a"], s=e["s"])
        _verified_form(m, e["p"])

    def _build_ss(self, e, out, _read):
        m = _module(out, e["p"])
        _invariants(m, e["p"], e["g"], f=0, s=e["s"])
        if m["form"] is not None:
            _verified_form(m, e["p"])

    def _eo_module(self, e, out, _read):
        p, nu = e["p"], e["nu"]
        m = _module(out, p)
        census = _invariants(m, p, len(nu), f=modp.type_f(nu), a=modp.type_a(nu))
        _expect(census == modp.census_of_type(nu), "census differs from the type's node maps")
        _verified_form(m, p)


def _module(out: str, p: int) -> dict:
    m = json.loads(out)
    _expect(m["p"] == p, f"module over F_{m['p']}, expected F_{p}")
    n = m["dim"]
    for key in ("F", "V") + (("form",) if m["form"] is not None else ()):
        mat = m[key]
        _expect(len(mat) == n and all(len(row) == n for row in mat), f"{key} is not {n}x{n}")
        _expect(all(isinstance(x, int) and 0 <= x < p for row in mat for x in row),
                f"{key} entries are not reduced mod {p}")
    return m


def _invariants(m: dict, p: int, g: int, f: int, a: int | None = None,
                s: int | None = None) -> Counter:
    """Check dim, the BT1 axioms, f, a and s; returns the module's census."""
    frob, ver = m["F"], m["V"]
    _expect(m["dim"] == 2 * g, f"dim {m['dim']}, expected {2 * g}")
    violations = modp.bt1_violations(frob, ver, p)
    _expect(not violations, "BT1 axioms fail: " + "; ".join(violations))
    _expect(modp.p_rank(frob, p) == f and modp.p_rank(ver, p) == f, f"p-rank is not {f}")
    if a is not None:
        _expect(modp.a_number(frob, ver, p) == a, f"a-number is not {a}")
    census = modp.census_of_module(frob, ver, p)
    _expect(census is not None, "module has no word census")
    if s is not None:
        _expect(census["FV"] == s, f"superspecial rank {census['FV']}, expected {s}")
    return census


def _verified_form(m: dict, p: int) -> None:
    if m["form"] is None:
        raise _NoForm()
    violations = modp.form_violations(m["F"], m["V"], m["form"], p)
    _expect(not violations, "; ".join(violations))
