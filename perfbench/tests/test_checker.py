"""The response checker rejects known-bad responses and accepts the seed's outputs."""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

import checker
import workloads
from checker import FAILED, OK, WRONG
from conftest import ROOT
from ssrank.cli import main


def respond(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def read_file(path):
    with open(os.path.join(ROOT, path), encoding="ascii") as fh:
        return fh.read()


def eo_module_request(nu, p=2):
    return {"kind": "eo module", "argv": ["eo", "module", "--nu", ",".join(map(str, nu)),
                                          "--p", str(p)],
            "expect": {"check": "eo_module", "p": p, "nu": list(nu)}}


def profile_request(g, f, a, s, p=2):
    return {"kind": "build profile",
            "argv": ["build", "profile", "--g", str(g), "--f", str(f), "--a", str(a),
                     "--s", str(s), "--p", str(p)],
            "expect": {"check": "build_profile", "p": p, "g": g, "f": f, "a": a, "s": s}}


def verdict(request, code, out):
    return checker.Checker().verdict(request, code, out, read_file)


def test_fv_nonzero_is_wrong():
    req = eo_module_request([0, 1])
    code, out = respond(req["argv"])
    m = json.loads(out)
    m["V"] = [[int(i == j) for j in range(m["dim"])] for i in range(m["dim"])]
    v, reason = verdict(req, code, json.dumps(m))
    assert v == WRONG and "FV != 0" in reason


def test_degenerate_form_is_wrong():
    req = eo_module_request([0, 1, 1])
    code, out = respond(req["argv"])
    m = json.loads(out)
    m["form"] = [[0] * m["dim"] for _ in range(m["dim"])]
    v, reason = verdict(req, code, json.dumps(m))
    assert v == WRONG and "degenerate" in reason


def test_incompatible_form_is_wrong():
    req = eo_module_request([0, 1])
    code, out = respond(req["argv"])
    m = json.loads(out)
    n = m["dim"]
    m["form"] = [[int(abs(i - j) == n // 2) for j in range(n)] for i in range(n)]
    v, reason = verdict(req, code, json.dumps(m))
    assert v == WRONG and "<Fx,y> = <x,Vy>" in reason


def test_wrong_p_rank_is_wrong():
    code, out = respond(profile_request(2, 0, 2, 2)["argv"])
    v, reason = verdict(profile_request(2, 1, 1, 1), code, out)
    assert v == WRONG and "p-rank" in reason


def test_listing_one_row_short_is_wrong():
    req = {"kind": "eo list", "argv": ["eo", "list", "--g", "4", "--format", "csv"],
           "expect": {"check": "eo_list", "g": 4, "format": "csv", "filter": {}}}
    code, out = respond(req["argv"])
    assert verdict(req, code, out) == (OK, "")
    short = "".join(out.splitlines(keepends=True)[:-1])
    v, reason = verdict(req, code, short)
    assert v == WRONG and "15 rows, expected 16" in reason


def test_missing_form_and_error_exit_fail():
    req = profile_request(3, 0, 2, 1)
    code, out = respond(req["argv"])
    assert verdict(req, code, out) == (OK, "")
    m = json.loads(out)
    m["form"] = None
    assert verdict(req, code, json.dumps(m)) == (FAILED, "no form")
    assert verdict(req, 2, "") == (FAILED, "exit 2")


def _known_defect(request):
    """Request classes that fail at the seed: see perfbench/README.md."""
    e = request["expect"]
    return (e["check"] == "build_profile" and e["a"] - e["s"] >= 2) or \
        (e["check"] == "eo_module" and e["p"] != 2)


def _small(request):
    e = request["expect"]
    return e.get("g", 0) <= 6 and len(e.get("nu", ())) <= 6 and e["check"] != "atlas"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_outputs_are_accepted(tmp_path, workload):
    indir = str(tmp_path)
    requests, files = workloads.generate(workload, 3, indir)
    for path, text in files.items():
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    check = checker.Checker()
    per_check: dict[str, int] = {}
    for req in requests:
        kind = req["expect"]["check"]
        if not _small(req) or per_check.get(kind, 0) >= 3:
            continue
        per_check[kind] = per_check.get(kind, 0) + 1
        code, out = respond(req["argv"])
        v, reason = check.verdict(req, code, out, read_file)
        assert v != WRONG, (req["argv"], reason)
        assert v == OK or _known_defect(req), (req["argv"], reason)
    assert per_check
