from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

import ssrank
from ssrank import bt1, build, cli, curves, eo, ffmat, words
from ssrank.build import feasible, ProfileQuery, i11
from ssrank.cli import (MODULE_G_CAP, POLARIZE_G_CAP, _int_option, _module_file_cap, _read_argv,
                        build_parser, main)
from ssrank.ffmat import GF2, Matrix, PrimeField

from helpers import all_cyclic_words, conjugated, twisted_word_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eo_list_counts_and_csv(capsys):
    code, out, _ = run(capsys, "eo", "list", "--g", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1,0,0,1,1,FV", "1,1,1,0,0,F;V"]
    code, out, _ = run(capsys, "eo", "list", "--g", "5", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 32
    code, again, _ = run(capsys, "eo", "list", "--g", "5", "--format", "csv")
    assert code == 0 and again == out


def test_eo_list_json_and_filter(capsys):
    code, out, _ = run(capsys, "eo", "list", "--g", "3", "--filter", "f=0,s=1")
    assert code == 0
    rows = json.loads(out)
    assert [r["nu"] for r in rows] == [[0, 0, 1]]
    assert rows[0]["words"] == {"FV": 1, "FFVV": 1}
    code, out, _ = run(capsys, "eo", "list", "--g", "3", "--filter", "f=0")
    assert [r["nu"] for r in json.loads(out)] == [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 2]]
    code, _, err = run(capsys, "eo", "list", "--g", "3", "--filter", "q=1")
    assert code == 1 and "filter" in err


def test_eo_module_roundtrip(capsys):
    code, out, _ = run(capsys, "eo", "module", "--nu", "0,1")
    assert code == 0
    module = bt1.from_json(out.strip())
    assert module.dim == 4
    assert bt1.check_polarization(module)
    assert bt1.to_json(module) == out.strip()

    code, out, _ = run(capsys, "eo", "module", "--nu", "0", "--p", "3")
    assert code == 0
    assert bt1.check_polarization(bt1.from_json(out.strip()))


def test_module_subcommands(tmp_path, capsys):
    path = tmp_path / "i11.json"
    path.write_text(bt1.to_json(i11(GF2)), encoding="ascii")

    code, out, _ = run(capsys, "module", "invariants", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 2, "dim": 2, "g": 1, "f": 0, "a": 1, "u": 1}

    code, out, _ = run(capsys, "module", "decompose", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["census"] == {"FV": 1}
    assert payload["s"] == 1

    code, out, _ = run(capsys, "module", "check", "--in", str(path))
    assert code == 0 and json.loads(out)["valid"] is True

    bare = i11(GF2).with_form(None)
    path2 = tmp_path / "bare.json"
    path2.write_text(bt1.to_json(bare), encoding="ascii")
    code, out, _ = run(capsys, "module", "polarize", "--in", str(path2))
    assert code == 0
    assert bt1.check_polarization(bt1.from_json(out.strip()))

    # the dim-0 module round-trips: the F_2 reader has no digits to parse
    for p in ("2", "3"):
        code, out, _ = run(capsys, "build", "profile", "--g", "0", "--f", "0", "--a", "0", "--s", "0",
                           "--p", p)
        assert code == 0 and out == f'{{"p":{p},"dim":0,"F":[],"V":[],"form":[]}}\n'
        path0 = tmp_path / f"zero-p{p}.json"
        path0.write_text(out, encoding="ascii")
        code, out, _ = run(capsys, "module", "check", "--in", str(path0))
        assert code == 0 and json.loads(out) == {"valid": True, "violations": []}


def test_polarize_says_exists_only_after_a_proof(tmp_path, capsys, monkeypatch):
    # FFVFVV has a 3-dimensional space of compatible forms, all degenerate, and an
    # asymmetric final profile, which proves that for every p
    for p in (2, 97):
        code, out, _ = run(capsys, "build", "word", "--w", "FFVFVV", "--p", str(p))
        assert code == 0
        path = tmp_path / f"ffvfvv{p}.json"
        path.write_text(out, encoding="ascii")
        code, _, err = run(capsys, "module", "polarize", "--in", str(path))
        assert code == 2 and "no compatible nondegenerate form exists" in err
    # FVFV with its closing edge scaled by 2 has a type at p = 3 but no form: the 3
    # greedy tries and the 5 grid points prove that, and one candidate fewer does not
    path = tmp_path / "fvfv-twisted.json"
    path.write_text(bt1.to_json(twisted_word_module("FVFV", 2, PrimeField(3))), encoding="ascii")
    monkeypatch.setattr(bt1, "_SWEEP_BUDGET", 8)
    code, _, err = run(capsys, "module", "polarize", "--in", str(path))
    assert code == 2 and "no compatible nondegenerate form exists" in err
    monkeypatch.setattr(bt1, "_SWEEP_BUDGET", 7)
    code, _, err = run(capsys, "module", "polarize", "--in", str(path))
    assert code == 2 and "the search stopped after 7 candidates" in err
    assert "exists" not in err


@pytest.mark.parametrize("p", [3, 97])
def test_polarize_proves_a_module_without_a_type_formless_before_the_sweep(tmp_path, capsys,
                                                                          monkeypatch, p):
    # (FFVFVV)^2 has an asymmetric final profile in every basis; the sweep, which used to
    # run its whole budget out on it undecided, is never entered
    def sweep(*args):
        raise AssertionError("the sweep was entered")

    monkeypatch.setattr(bt1, "_sweep_candidates", sweep)
    m = words.word_module(words.CyclicWord.of("FFVFVV" * 2), PrimeField(p))
    path = tmp_path / "square.json"
    for basis in (m, conjugated(m, random.Random(3131 + p))):
        path.write_text(bt1.to_json(basis), encoding="ascii")
        assert run(capsys, "module", "polarize", "--in", str(path)) == (
            2, "", "error: no compatible nondegenerate form exists\n")


def test_polarize_at_its_cap_on_a_conjugated_superspecial_module(tmp_path, capsys):
    field = PrimeField(97)
    m = conjugated(eo.canonical_module(eo.EOType.of([0] * 12), field), random.Random(1212))
    path = tmp_path / "ss12.json"
    path.write_text(bt1.to_json(m.with_form(None)), encoding="ascii")
    code, out, err = run(capsys, "module", "polarize", "--in", str(path))
    assert (code, err) == (0, "")
    polarized = bt1.from_json(out)
    assert polarized.dim == 24 and polarized.frobenius == m.frobenius
    assert bt1.check_polarization(polarized)


@pytest.mark.parametrize("cmd, expected", [
    ("check", (0, '{\n  "valid": true,\n  "violations": []\n}\n', "")),
    ("invariants", (2, "", "error: multiplicative rank 0 != etale rank 1\n")),
    ("decompose", (2, "", "error: census is not self-balanced: etale 1 != multiplicative 0\n")),
    ("polarize", (2, "", "error: no compatible nondegenerate form exists\n")),
])
def test_a_valid_module_with_unequal_etale_and_multiplicative_ranks(tmp_path, capsys, cmd, expected):
    # the word F: one etale summand and no multiplicative one, a valid BT1 module of dim 1
    code, out, err = run(capsys, "build", "word", "--w", "F")
    assert (code, err) == (0, "")
    path = tmp_path / "f.json"
    path.write_text(out, encoding="ascii")
    assert run(capsys, "module", cmd, "--in", str(path)) == expected


def test_module_check_rejects_invalid(tmp_path, capsys):
    zero_ops = Matrix.zeros(GF2, 2, 2)
    bad = bt1.DieudonneModule(zero_ops, zero_ops)
    path = tmp_path / "bad.json"
    path.write_text(bt1.to_json(bad), encoding="ascii")
    code, out, _ = run(capsys, "module", "check", "--in", str(path))
    assert code == 2
    assert "ker(F) != im(V)" in json.loads(out)["violations"]
    for cmd in ("invariants", "decompose", "polarize"):
        code, out, err = run(capsys, "module", cmd, "--in", str(path))
        assert (code, out, err) == (2, "", "error: ker(F) != im(V); ker(V) != im(F)\n"), cmd


def test_module_check_reports_unfilled_ranks(tmp_path, capsys):
    # FV = VF = 0 and the form is compatible, but rank F + rank V = 2 < 4
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({
        "p": 3, "dim": 4,
        "F": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "V": [[0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "form": [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]}), encoding="ascii")
    code, out, err = run(capsys, "module", "check", "--in", str(path))
    assert (code, err) == (2, "")
    assert out == ('{\n  "valid": false,\n  "violations": [\n    "ker(F) != im(V)",\n'
                   '    "ker(V) != im(F)"\n  ]\n}\n')


def _metamorphic_modules(field: PrimeField):
    """(label, module) for every cyclic word of length <= 8, its square and cube up to dim 24,
    and, for odd p, each word of length <= 6 with its closing edge scaled by 2 and by p - 1."""
    base = [w.letters for length in range(1, 9) for w in all_cyclic_words(length)]
    for letters in sorted({words.CyclicWord.of(w * k).letters for w in base for k in (1, 2, 3)}):
        yield letters, words.word_module(words.CyclicWord(letters), field)
    for lam in sorted({2, field.p - 1}) if field.p > 2 else ():
        for letters in base[:37]:  # the words of length <= 6
            yield f"{letters} twisted by {lam}", twisted_word_module(letters, lam, field)


@pytest.mark.parametrize("p", [2, 3, 97])
def test_module_answers_do_not_depend_on_the_basis(tmp_path, capsys, p):
    # invariants, decompose and check answer alike in a seeded random basis; polarize, up to
    # dim 12, exits alike, and every module it returns passes module check.  Every word-basis
    # file, twisted bands at p = 97 by 2 included, is read off its node maps, so each request
    # compares that route with the rank route of a general basis
    field, rng = PrimeField(p), random.Random(2121 + p)
    paths = tmp_path / "word.json", tmp_path / "conjugate.json"
    for label, m in _metamorphic_modules(field):
        for path, basis in zip(paths, (m, conjugated(m, rng))):
            path.write_text(bt1.to_json(basis), encoding="ascii")
        assert words._word_census(bt1.from_json(paths[0].read_text())) is not None, (p, label)
        for cmd in ("invariants", "decompose", "check"):
            word, conjugate = (run(capsys, "module", cmd, "--in", str(path))[:2] for path in paths)
            assert word == conjugate, (p, label, cmd)
        if m.dim <= 12:
            codes = []
            for path in paths:
                code, out, _ = run(capsys, "module", "polarize", "--in", str(path))
                if code == 0:
                    path.write_text(out, encoding="ascii")
                    assert run(capsys, "module", "check", "--in", str(path))[0] == 0, (p, label)
                codes.append(code)
            assert codes[0] == codes[1], (p, label)


def test_each_module_request_validates_once(tmp_path, capsys, monkeypatch):
    t = eo.EOType.of([0, 1, 1])
    m = eo.canonical_module(t, GF2)
    change = Matrix.build(GF2, [[1, 1, 0, 1, 0, 0],
                                [0, 1, 1, 0, 0, 1],
                                [0, 0, 1, 1, 0, 0],
                                [0, 0, 0, 1, 1, 0],
                                [0, 0, 0, 0, 1, 1],
                                [0, 0, 0, 0, 0, 1]])
    inv = change.inverse()
    twisted = bt1.DieudonneModule(change @ m.frobenius @ inv, change @ m.verschiebung @ inv,
                                  inv.transpose() @ m.form @ inv)
    assert words._word_census(twisted) is None  # decompose must read its final profile
    path = tmp_path / "twisted.json"
    path.write_text(bt1.to_json(twisted), encoding="ascii")

    calls = {"validate_bt1": 0, "_form_violations": 0}
    measures = {"decompose": 0, "p_rank": 0, "a_number": 0}

    def counted(owner, name, tally):
        original = getattr(owner, name)

        def wrapper(m):
            tally[name] += 1
            return original(m)
        for module_name, namespace in list(sys.modules.items()):
            if module_name.split(".")[0] == "ssrank" and vars(namespace).get(name) is original:
                monkeypatch.setattr(namespace, name, wrapper)

    for name in calls:
        counted(bt1, name, calls)
    for name in measures:
        counted(words if name == "decompose" else bt1, name, measures)
    scans = []  # the matrix of each node-map read that scans columns, not the memo
    read_node_map = Matrix._node_map

    def scanned(mat):
        if mat._nodes is ffmat._UNREAD:
            scans.append(mat)
        return read_node_map(mat)
    monkeypatch.setattr(Matrix, "_node_map", scanned)
    expected = {"invariants": {"p": 2, "dim": 6, "g": 3, "f": 0, "a": 2, "u": 0},
                "decompose": {"census": words.census_of_type(t).as_dict(),
                              "g": 3, "f": 0, "a": 2, "s": 0},
                "check": {"valid": True, "violations": []}}
    for cmd, payload in expected.items():
        calls.update(dict.fromkeys(calls, 0))
        scans.clear()
        code, out, _ = run(capsys, "module", cmd, "--in", str(path))
        assert (code, json.loads(out)) == (0, payload)
        assert list(calls.values()) == [1, 1], cmd
        assert len(scans) == len(set(map(id, scans))) <= 3, cmd
    # a built module is validated once, where the command finishes it; its parts are not, and
    # the formless j_rs and word modules have no form to check
    for argv, counts in ((("build", "profile", "--g", "4", "--f", "1", "--a", "2", "--s", "1"), [1, 1]),
                         (("build", "ss", "--g", "4", "--s", "2"), [1, 1]),
                         (("eo", "module", "--nu", "0,1,1", "--p", "3"), [1, 1]),
                         (("curve", "hyp2", "--poles", "1,3,9", "--oracle"), [1, 1]),
                         (("build", "jrs", "--r", "2", "--s", "3"), [1, 0]),
                         (("build", "word", "--w", "FFVFV"), [1, 0])):
        calls.update(dict.fromkeys(calls, 0))
        measures.update(dict.fromkeys(measures, 0))
        scans.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert list(calls.values()) == counts, argv
        # F, V and any form are each scanned once, by validation; the census reads the memo
        assert len(scans) == len(set(map(id, scans))) == 2 + counts[1], argv
        if argv[1] in ("profile", "ss"):  # one word census measures the built module
            assert measures == {"decompose": 1, "p_rank": 0, "a_number": 0}, argv


def test_module_invariants_reduces_the_stacked_operators_once(tmp_path, capsys, monkeypatch):
    # a and u both read rank [F; V]; the request takes it once and gives the values of
    # a_number and unpolarized_ss_rank, which take it each
    calls, stacked_rank = [], Matrix._stacked_rank

    def counting(self, below):
        calls.append(below)
        return stacked_rank(self, below)

    monkeypatch.setattr(Matrix, "_stacked_rank", counting)
    path = tmp_path / "c.json"
    for p in (2, 97):
        m = conjugated(eo.canonical_module(eo.EOType.of([0, 1, 1, 2]), PrimeField(p)), random.Random(p))
        path.write_text(bt1.to_json(m), encoding="ascii")
        a, u = bt1.a_number(m), bt1.unpolarized_ss_rank(m)
        calls.clear()
        code, out, _ = run(capsys, "module", "invariants", "--in", str(path))
        assert (code, json.loads(out)) == (0, {"p": p, "dim": 8, "g": 4, "f": 0, "a": a, "u": u})
        assert (a, len(calls)) == (2, 1), p


def _wrong_part(name):
    """A replacement for one build block that puts exactly one of f, a and s off."""
    original = getattr(build, name)
    if name == "ord1":  # two ordinary blocks for one: f doubles
        return lambda field: bt1.direct_sum(original(field), original(field))
    if name == "canonical_module":  # type [0, 1, 1] has a = 2, f = s = 0
        return lambda t, field: original(eo.EOType.of([0, 1, 1]), field)
    return lambda field: words.word_module(words.CyclicWord("FFVV"), field)  # a = 1, no FV


@pytest.mark.parametrize("part, query, measured", [
    ("ord1", (1, 1, 0, 0), (2, 0, 0)),
    ("canonical_module", (3, 0, 1, 0), (0, 2, 0)),
    ("i11", (2, 0, 2, 2), (0, 2, 0)),
])
def test_a_wrong_realization_is_caught_and_exits_2(capsys, monkeypatch, part, query, measured):
    monkeypatch.setattr(build, part, _wrong_part(part))
    message = f"realization produced {measured}, wanted {query[1:]}"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        build.realize(ProfileQuery(*query), GF2)
    argv = [arg for flag, v in zip(("--g", "--f", "--a", "--s"), query) for arg in (flag, str(v))]
    assert run(capsys, "build", "profile", *argv) == (2, "", f"error: {message}\n")


def test_a_wrong_supersingular_profile_is_caught_and_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(build, "i11", _wrong_part("i11"))
    message = "realization produced (0, 2, 0), wanted (0, 2, 2)"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        build.supersingular_profile(2, 2, GF2)
    assert run(capsys, "build", "ss", "--g", "2", "--s", "2") == (2, "", f"error: {message}\n")


def test_an_oracle_that_disagrees_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(curves, "hyp2_module_oracle", lambda divisor: bt1.zero_module(GF2))
    assert run(capsys, "curve", "hyp2", "--poles", "1,3,9", "--oracle") == (
        2, "", "error: oracle disagrees with the closed form\n")


def test_module_missing_file(capsys):
    code, _, err = run(capsys, "module", "check", "--in", "/nonexistent/x.json")
    assert code == 2 and err


def test_build_subcommands(capsys):
    code, out, _ = run(capsys, "build", "word", "--w", "FFVV", "--p", "3")
    assert code == 0
    module = bt1.from_json(out.strip())
    assert module.dim == 4 and module.field.p == 3

    code, out, _ = run(capsys, "build", "jrs", "--r", "2", "--s", "3", "--p", "2")
    assert code == 0
    assert bt1.from_json(out.strip()).dim == 5

    code, out, _ = run(capsys, "build", "profile", "--g", "4", "--f", "1", "--a", "2", "--s", "1")
    assert code == 0
    assert bt1.from_json(out.strip()).dim == 8

    code, _, err = run(capsys, "build", "profile", "--g", "4", "--f", "1", "--a", "3", "--s", "2")
    assert code == 3 and "infeasible" in err

    code, out, _ = run(capsys, "build", "ss", "--g", "4", "--s", "2", "--p", "2")
    assert code == 0
    assert bt1.from_json(out.strip()).dim == 8

    code, _, err = run(capsys, "build", "ss", "--g", "4", "--s", "3", "--p", "2")
    assert code == 3

    code, out, _ = run(capsys, "build", "ss", "--g", "3", "--s", "0", "--p", "3")
    assert code == 0
    assert bt1.check_polarization(bt1.from_json(out.strip()))

    code, _, err = run(capsys, "build", "jrs", "--r", "0", "--s", "1", "--p", "2")
    assert code == 2

    code, _, err = run(capsys, "build", "word", "--w", "FXV")
    assert code == 1


def test_every_built_module_is_validated_before_it_is_printed(monkeypatch, capsys):
    def invalid(*args):
        zeros = Matrix.zeros(args[-1], 2, 2)
        return bt1.DieudonneModule(zeros, zeros)

    monkeypatch.setattr(build, "j_rs", invalid)
    monkeypatch.setattr(words, "word_module", invalid)
    for argv in (("build", "jrs", "--r", "2", "--s", "3"), ("build", "word", "--w", "FFVV", "--p", "3")):
        assert run(capsys, *argv) == (2, "", "error: ker(F) != im(V); ker(V) != im(F)\n"), argv
    # profile and ss return modules that their realization has validated already
    assert build.realize(ProfileQuery(4, 1, 2, 1), GF2)._validated
    assert build.supersingular_profile(4, 2, GF2)._validated


def test_curve_subcommands(capsys):
    code, out, _ = run(capsys, "curve", "hermitian", "--p", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["g"], payload["a"], payload["s"]) == (6, 3, 0)
    assert list(payload) == ["p", "n", "q", "g", "a", "s", "e_bound", "orbits",
                             "zeta_numerator_exponent", "points_q2"]  # the report's field order

    code, out, _ = run(capsys, "curve", "hyp2", "--poles", "3,9", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 2 and payload["oracle_s"] == 2
    assert list(payload) == ["poles", "g", "f", "c", "s", "s_bound", "e_bound", "summands",
                             "oracle_s", "oracle_census"]

    code, _, err = run(capsys, "curve", "hyp2", "--poles", "4")
    assert code == 1

    code, _, err = run(capsys, "curve", "hermitian", "--p", "6", "--n", "1")
    assert code == 2


def test_table_feasibility(capsys):
    # byte for byte the indented JSON of the report, up to the g = 64 cap
    for g in (*range(13), MODULE_G_CAP):
        rows = [{"f": f, "a": a, "s": s, "feasible": feasible(ProfileQuery(g, f, a, s))}
                for f in range(g + 1) for a in range(g - f + 1) for s in range(a + 1)]
        text = json.dumps({"g": g, "rows": rows}, indent=2) + "\n"
        assert run(capsys, "table", "feasibility", "--g", str(g)) == (0, text, ""), g


def test_atlas_idempotent(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(["atlas", "--g-max", "3", "--out", str(path_a)]) == 0
    assert main(["atlas", "--g-max", "3", "--out", str(path_b)]) == 0
    capsys.readouterr()
    first = path_a.read_bytes()
    assert first == path_b.read_bytes()
    assert len(first.decode().splitlines()) == 14  # 2 + 4 + 8
    assert main(["atlas", "--g-max", "3", "--out", str(path_a)]) == 0
    assert path_a.read_bytes() == first

    code, _, err = run(capsys, "atlas", "--g-max", "13", "--out", str(path_a))
    assert code == 2


def test_atlas_generic_row_property(tmp_path, capsys):
    path = tmp_path / "atlas.csv"
    assert main(["atlas", "--g-max", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    for line in path.read_text().splitlines():
        g, nu, f, a, s, words = line.split(",")
        if nu == ";".join(str(i) for i in range(int(g))) and int(g) >= 2:
            assert (int(s), int(a)) == (0, 1)


def test_usage_errors(capsys):
    code, _, err = run(capsys, "eo", "list", "--g", "2", "--bogus")
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys)
    assert code == 1
    code, _, err = run(capsys, "eo", "module", "--nu", "0,2")
    assert code == 1 and "not a valid EO type" in err
    code, out, err = run(capsys, "eo", "list", "--g", "3", "--filter", "a=1,a=2")
    assert (code, out) == (1, "") and "given twice" in err


def test_integer_lists_take_only_signed_ascii_digits(capsys):
    for argv in (("eo", "module", "--nu", "0,,1"), ("eo", "module", "--nu", ","),
                 ("eo", "module", "--nu", "0,1,"), ("curve", "hyp2", "--poles", "3,,5"),
                 ("curve", "hyp2", "--poles", "1_3"), ("curve", "hyp2", "--poles", "+3"),
                 ("curve", "hyp2", "--poles", "\u0663"), ("eo", "list", "--g", "2", "--filter", "f=1_0")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "must be" in err, argv
    code, out, _ = run(capsys, "eo", "module", "--nu", "")
    assert code == 0 and bt1.from_json(out).dim == 0
    code, out, _ = run(capsys, "eo", "module", "--nu", " 0 , 1 ")
    assert code == 0 and bt1.from_json(out) == eo.canonical_module(eo.EOType.of([0, 1]), GF2)
    code, _, err = run(capsys, "curve", "hyp2", "--poles", "-3")
    assert code == 1 and "odd positive" in err


def _parser_actions(parser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_actions(sub)


@pytest.mark.parametrize("argv", [
    ("eo", "list", "--g", "1_0"),
    ("build", "jrs", "--r", "+1", "--s", "0_1", "--p", "0_3"),
    ("build", "jrs", "--r", "+1", "--s", "1"),
    ("build", "jrs", "--r", "1", "--s", "0_1"),
    ("build", "jrs", "--r", "1", "--s", "1", "--p", "0_3"),
    ("eo", "list", "--g", "\u0663"),
    ("table", "feasibility", "--g", "\uff13"),
])
def test_integer_options_take_only_signed_ascii_digits(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "invalid int value" in err, argv


def test_every_integer_option_goes_through_one_parser(capsys):
    typed = [a for a in _parser_actions(build_parser()) if a.type is not None]
    assert len(typed) == 18 and all(a.type is _int_option for a in typed)
    code, out, _ = run(capsys, "build", "jrs", "--r", " 1", "--s", "1 ", "--p", "3")
    assert code == 0 and bt1.from_json(out) == build.j_rs(1, 1, PrimeField(3))
    code, _, err = run(capsys, "eo", "list", "--g", "-1")
    assert code == 2 and "nonnegative" in err


@pytest.mark.parametrize("argv, name", [
    (("build", "profile", "--g", "-1", "--f", "0", "--a", "0", "--s", "0"), "g"),
    (("build", "profile", "--g", "2", "--f", "-1", "--a", "0", "--s", "0"), "f"),
    (("build", "profile", "--g", "2", "--f", "0", "--a", "-1", "--s", "0"), "a"),
    (("build", "profile", "--g", "2", "--f", "0", "--a", "1", "--s", "-1"), "s"),
    (("build", "profile", "--g", "-3", "--f", "-1", "--a", "-1", "--s", "-1"), "g"),
    (("build", "ss", "--g", "-1", "--s", "-1"), "g"),
    (("build", "ss", "--g", "3", "--s", "-1"), "s"),
    (("table", "feasibility", "--g", "-1"), "g"),
])
def test_a_negative_parameter_is_an_error_not_infeasible(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {name} must be nonnegative\n"), argv


def _ssrank(*argv):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # a block-buffered stdout, as the CLI usually has
    src = os.path.dirname(os.path.dirname(ssrank.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, "-m", "ssrank", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_closed_stdout_ends_quietly():
    # the reader goes after 10 of about 255 kB: later writes fail inside the command
    proc = _ssrank("eo", "list", "--g", "10")
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    # the reader goes before anything is written: the one write fails at the final flush
    proc = _ssrank("eo", "list", "--g", "2")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


GOLDEN_SHA256 = {
    ("eo", "list", "--g", "12"): "d594824203bde7a245bd67f68ac6fc866c186bf27463d121c222d1eb0b9031ff",
    ("eo", "list", "--g", "12", "--format", "csv"):
        "fb9f36fdee06ac6b0a9f9799859c3c933ea1c1765878f5ba574714fcd4e4e7d1",
    ("eo", "list", "--g", "0"): "3cd838dc58b9bf6901fee21b661d5e7d81268bc384fb0d3ad822bfda6aab4563",
}
ATLAS_12_SHA256 = "df45206493ddb7bc83aa2bc0eab2055d0ef8a0c7525a89ae2116707f82f2679c"


def test_catalogue_output_is_golden(tmp_path, capsys):
    for argv, digest in GOLDEN_SHA256.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    path = tmp_path / "atlas.csv"
    assert run(capsys, "atlas", "--g-max", "12", "--out", str(path)) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ATLAS_12_SHA256



def _built_module_requests():
    """Every build and eo module request of the golden digest, in a fixed order."""
    for p in ("2", "3", "97"):
        for g in range(8):
            for f, a, s in itertools.product(range(g + 1), repeat=3):
                if feasible(ProfileQuery(g, f, a, s)):
                    yield ("build", "profile", "--g", str(g), "--f", str(f), "--a", str(a),
                           "--s", str(s), "--p", p)
            for s in range(g + 1):
                yield "build", "ss", "--g", str(g), "--s", str(s), "--p", p
        for r, s in itertools.product(range(1, 6), repeat=2):
            yield "build", "jrs", "--r", str(r), "--s", str(s), "--p", p
        for length in range(1, 7):
            for w in all_cyclic_words(length):
                yield "build", "word", "--w", w.letters, "--p", p
        for g in range(6):
            for t in eo.enumerate_types(g):
                yield "eo", "module", "--nu", ",".join(map(str, t.nu)), "--p", p


BUILT_MODULES_SHA256 = "e5aa2e92e58374fcb1ebfc4b5065f23552b5dc40c12b4109f926045496266f76"


def test_built_module_output_is_golden(capsys):
    digest = hashlib.sha256()
    for argv in _built_module_requests():
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode() + b"\n")
    assert digest.hexdigest() == BUILT_MODULES_SHA256

def _polarize_inputs(capsys):
    """(file name, module JSON) of every `module polarize` input of the golden digest, in a
    fixed order: seeded conjugated canonical modules with g <= 4 at p = 2, 3 and 97; the word
    FFVFVV, whose compatible forms are all degenerate; and j_rs for r, s <= 3."""
    for p in (2, 3, 97):
        rng = random.Random(p)
        for g in range(5):
            for t in eo.enumerate_types(g):
                m = conjugated(eo.canonical_module(t, PrimeField(p)), rng)
                yield f"eo-{p}-{''.join(map(str, t.nu))}.json", bt1.to_json(m)
    built = [("build", "word", "--w", "FFVFVV", "--p", p) for p in ("2", "97")]
    built += [("build", "jrs", "--r", str(r), "--s", str(s), "--p", p)
              for p in ("2", "3", "97") for r, s in itertools.product(range(1, 4), repeat=2)]
    for argv in built:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        yield "-".join(argv[1:]) + ".json", out


POLARIZED_MODULES_SHA256 = "243ff37036af913f40cf0f1f509ccd4007461fbb43d7b8817d6926dd7987aeca"


def test_polarized_module_output_is_golden(tmp_path, capsys, monkeypatch):
    # inputs are named relative to the working directory, so argv is the same on every run
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for name, text in list(_polarize_inputs(capsys)):
        (tmp_path / name).write_text(text, encoding="ascii")
        argv = ("module", "polarize", "--in", name)
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode() + b"\n")
    assert digest.hexdigest() == POLARIZED_MODULES_SHA256


def test_filtered_rows_match_a_filtered_list(capsys):
    # reference: the full row list built from the library, filtered afterwards; the
    # empty filter checks the unfiltered listing against it, and values from -1 to g + 1
    # reach every bound the walk prunes on, from either side
    for g in range(8):
        rows = []  # (row, semicolon-joined census)
        for t in eo.enumerate_types(g):
            census = words.census_of_type(t)
            rows.append(({"g": g, "nu": list(t.nu), "f": t.p_rank(), "a": t.a_number(),
                          "s": census.multiplicity(words.CyclicWord("FV")),
                          "words": census.as_dict()},
                         ";".join([w.letters for w, m in census.counts for _ in range(m)])))
        empty_seen = False
        for keys in itertools.chain.from_iterable(
                itertools.combinations("fas", k) for k in range(4)):
            for values in itertools.product(range(-1, g + 2), repeat=len(keys)):
                wanted = dict(zip(keys, values))
                kept = [(r, joined) for r, joined in rows
                        if all(r[k] == v for k, v in wanted.items())]
                empty_seen |= not kept
                argv = ["eo", "list", "--g", str(g)]
                if wanted:
                    argv += ["--filter", ",".join(f"{k}={v}" for k, v in wanted.items())]
                text = json.dumps([r for r, _ in kept], indent=2) + "\n"
                assert run(capsys, *argv) == (0, text, ""), argv
                csv = "".join(f"{g},{';'.join(map(str, r['nu']))},{r['f']},{r['a']},{r['s']},"
                              f"{joined}\n" for r, joined in kept)
                assert run(capsys, *argv, "--format", "csv") == (0, csv, ""), argv
        assert empty_seen


def test_bad_requests_write_nothing(tmp_path, capsys):
    for clause in ("q=1", "a=x", "f=0,s"):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "eo", "list", "--g", "12", "--filter", clause,
                                 "--format", fmt)
            assert (code, out) == (1, "") and "filter" in err, (clause, fmt)
    for g_max, message in (("13", "capped"), ("0", "at least 1")):
        path = tmp_path / f"atlas{g_max}.csv"
        code, out, err = run(capsys, "atlas", "--g-max", g_max, "--out", str(path))
        assert (code, out) == (2, "") and message in err
        assert not path.exists()


def test_sizes_are_capped_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("heavy work started")

    def module_file(dim, separators):
        # json.dumps's own spacing goes through json, and to_json's is read directly
        path = tmp_path / f"zero{dim}-{len(separators[0])}.json"
        zero = [[0] * dim for _ in range(dim)]
        path.write_text(json.dumps({"p": 97, "dim": dim, "F": zero, "V": zero, "form": None},
                                   separators=separators))
        assert (bt1._read_compact(path.read_text(), dim) is None) == (separators[0] == ", ")
        return str(path)

    module_caps = []
    for separators in ((", ", ": "), (",", ":")):
        module_caps += [(("module", cmd, "--in", module_file(128, separators)),
                         ("module", cmd, "--in", module_file(129, separators)))
                        for cmd in ("invariants", "decompose", "check")]
        module_caps.append((("module", "polarize", "--in", module_file(24, separators)),
                            ("module", "polarize", "--in", module_file(25, separators))))

    for owner, name in ((eo, "enumerate_types"), (words, "_type_entries"),
                        (curves, "doubling_orbits"),
                        (build, "realize"), (build, "supersingular_profile"), (build, "j_rs"),
                        (words, "word_module"), (eo, "canonical_module"),
                        (curves, "hyp2_analyze"), (curves, "hyp2_module_oracle"),
                        (build, "feasible")):
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(Matrix, "build", refuse)
    monkeypatch.setattr(bt1, "_entries_matrix", refuse)  # a module file's first matrix, on either route

    for at_cap, above in (
            (("eo", "list", "--g", "12"), ("eo", "list", "--g", "13")),
            (("curve", "hermitian", "--p", "2", "--n", "20"),
             ("curve", "hermitian", "--p", "2", "--n", "21")),
            (("build", "profile", "--g", "64", "--f", "0", "--a", "1", "--s", "0"),
             ("build", "profile", "--g", "65", "--f", "0", "--a", "1", "--s", "0")),
            (("build", "ss", "--g", "64", "--s", "0"), ("build", "ss", "--g", "65", "--s", "0")),
            (("build", "jrs", "--r", "64", "--s", "64"),
             ("build", "jrs", "--r", "64", "--s", "65")),
            (("build", "word", "--w", "FV" * 64), ("build", "word", "--w", "FV" * 64 + "F")),
            (("eo", "module", "--nu", "0," * 63 + "0"), ("eo", "module", "--nu", "0," * 64 + "0")),
            (("curve", "hyp2", "--poles", "129", "--oracle"),
             ("curve", "hyp2", "--poles", "1,1,127", "--oracle")),
            (("curve", "hyp2", "--poles", "200001"), ("curve", "hyp2", "--poles", "1,1,199999")),
            (("table", "feasibility", "--g", "64"), ("table", "feasibility", "--g", "65")),
            *module_caps):
        code, _, err = run(capsys, *above)
        assert code == 2 and "capped" in err, above
        code, _, err = run(capsys, *at_cap)
        assert code == 2 and "heavy work started" in err, at_cap
    # curve hermitian --p takes the supported primes, 2 <= p <= 97, checked without factoring
    for p, message in (("97", "heavy work started"), ("101", "2 <= p <= 97"),
                       ("1000000000000000003", "2 <= p <= 97")):
        code, out, err = run(capsys, "curve", "hermitian", "--p", p, "--n", "1")
        assert (code, out) == (2, "") and message in err, p


def test_module_files_are_capped_in_bytes_before_parsing(tmp_path, capsys, monkeypatch):
    parsed = []

    def record(text, max_dim=None):
        parsed.append(len(text))
        raise ValueError("parsed")

    monkeypatch.setattr(bt1, "from_json", record)
    for cmd, g_cap in (("check", MODULE_G_CAP), ("polarize", POLARIZE_G_CAP)):
        cap, dim = _module_file_cap(g_cap), 2 * g_cap
        widest = [[-96] * dim for _ in range(dim)]
        text = json.dumps({"p": 97, "dim": dim, "F": widest, "V": widest, "form": widest},
                          indent=4) + "\n"
        assert cap - 128 < len(text) <= cap, cmd
        path = tmp_path / f"{cmd}.json"
        path.write_text(text + " " * (cap - len(text)))
        assert run(capsys, "module", cmd, "--in", str(path)) == (2, "", "error: parsed\n")
        assert parsed.pop() == cap
        path.write_text(text + " " * (cap + 1 - len(text)))
        assert run(capsys, "module", cmd, "--in", str(path)) == (
            2, "", f"error: module file is capped at {cap} bytes\n")
        assert not parsed


def _piped(text):
    """A /dev/fd path to a pipe holding text, its writer closed, and the pipe's read end."""
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    return f"/dev/fd/{read_end}", read_end


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_module_files_read_from_a_pipe_keep_the_byte_cap(capsys):
    # a pipe reports size 0, so the reader must go on past the size it is told
    cap = _module_file_cap(POLARIZE_G_CAP)
    for text, cmd, expected in (
            (bt1.to_json(i11(GF2)), "check", (0, '{\n  "valid": true,\n  "violations": []\n}\n', "")),
            (" " * (cap + 1), "polarize", (2, "", f"error: module file is capped at {cap} bytes\n"))):
        path, read_end = _piped(text)  # at most 64 KiB, which a pipe holds unread
        try:
            assert run(capsys, "module", cmd, "--in", path) == expected
        finally:
            os.close(read_end)


_HUGE = "9" * 5000  # more digits than int() converts by default (4300)


def test_over_long_integers_are_usage_errors(tmp_path, capsys):
    out_path = str(tmp_path / "atlas.csv")
    options = [  # one integer option set to _HUGE each
        ("eo", "list", "--g", _HUGE), ("eo", "module", "--nu", "0", "--p", _HUGE),
        ("build", "word", "--w", "FV", "--p", _HUGE),
        ("build", "jrs", "--r", _HUGE, "--s", "1"), ("build", "jrs", "--r", "1", "--s", _HUGE),
        ("build", "jrs", "--r", "1", "--s", "1", "--p", _HUGE),
        *[("build", "profile", *itertools.chain(*[(flag, _HUGE if flag == huge else "1")
                                                   for flag in ("--g", "--f", "--a", "--s", "--p")]))
          for huge in ("--g", "--f", "--a", "--s", "--p")],
        ("build", "ss", "--g", _HUGE, "--s", "1"), ("build", "ss", "--g", "1", "--s", _HUGE),
        ("build", "ss", "--g", "1", "--s", "1", "--p", _HUGE),
        ("curve", "hermitian", "--p", _HUGE, "--n", "1"),
        ("curve", "hermitian", "--p", "2", "--n", _HUGE),
        ("table", "feasibility", "--g", _HUGE), ("atlas", "--g-max", _HUGE, "--out", out_path),
    ]
    assert len(options) == sum(a.type is not None for a in _parser_actions(build_parser()))
    for argv in options:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "invalid int value" in err, argv[:3]
    for argv, message in (
            (("eo", "list", "--g", "2", "--filter", f"f=0,s={_HUGE}"),
             "filter value for 's' must be an integer"),
            (("eo", "module", "--nu", f"0,{_HUGE}"),
             "--nu must be a comma-separated list of integers"),
            (("curve", "hyp2", "--poles", f"3,{_HUGE}"),
             "--poles must be a comma-separated list of integers")):
        assert run(capsys, *argv) == (1, "", f"usage error: {message}\n"), argv[:3]
    assert not os.path.exists(out_path)


def test_module_json_takes_only_integers(tmp_path, capsys):
    good = {"p": 2, "dim": 2, "F": [[0, 0], [1, 0]], "V": [[0, 0], [1, 0]], "form": None}
    for bad in (2.0, "2", True):
        for key, value in (("p", bad), ("dim", bad), ("F", [[0, 0], [bad, 0]])):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({**good, key: value}))
            for cmd in ("check", "invariants"):
                code, out, err = run(capsys, "module", cmd, "--in", str(path))
                assert (code, out) == (2, "") and "integers" in err, (key, value, cmd)
    path = tmp_path / "good.json"
    path.write_text(json.dumps({**good, "F": [[0, 0], [3, 0]], "V": [[0, 0], [-1, 0]]}))
    code, out, _ = run(capsys, "module", "check", "--in", str(path))
    assert code == 0 and json.loads(out)["valid"]


def test_package_imports_only_the_standard_library():
    src = os.path.dirname(ssrank.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "ssrank", (name, root)
                assert root != "random", name  # every answer is deterministic by construction


PUBLIC_NAMES = {
    "GF2", "Matrix", "PrimeField", "Subspace",
    "Bt1ValidationError", "DieudonneModule", "InvariantBundle", "PolarizationSearchError",
    "a_number", "check_polarization", "direct_sum", "dual", "from_json", "invariants", "p_rank",
    "to_json", "unpolarized_ss_rank", "validate_bt1", "zero_module",
    "EOType", "canonical_module", "enumerate_types", "eo_type_of",
    "CyclicWord", "WordCensus", "census_invariants", "census_of_type", "decompose",
    "superspecial_rank", "word_module",
    "InfeasibleProfileError", "ProfileQuery", "feasible", "h_rs", "i11", "j_rs", "ord1",
    "realize", "supersingular_profile",
    "HermitianReport", "HyperellipticReport", "PoleDivisor", "doubling_orbits", "ekedahl_bound",
    "hermitian_analyze", "hyp2_analyze", "hyp2_module_oracle", "hyp2_rank0_type",
}


def test_package_exports_exactly_its_public_names():
    assert len(ssrank.__all__) == len(set(ssrank.__all__)) and set(ssrank.__all__) == PUBLIC_NAMES
    assert not any(isinstance(getattr(ssrank, name), type(ssrank)) for name in ssrank.__all__)


def test_star_import_binds_no_submodule():
    star: dict = {}
    exec("from ssrank import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES
    assert not any(isinstance(value, type(ssrank)) for value in star.values())


def test_each_submodule_declares_the_public_names_it_defines():
    submodules = (ffmat, bt1, eo, words, build, curves)
    for module in submodules:
        assert len(module.__all__) == len(set(module.__all__))
        for name in module.__all__:
            value = getattr(module, name)
            # GF2 is a PrimeField, so it is checked through its class
            owner = value if callable(value) else type(value)
            assert owner.__module__ == module.__name__, name
        star: dict = {}
        exec(f"from {module.__name__} import *", star)
        assert set(star) - {"__builtins__"} == set(module.__all__)
    assert ssrank.__all__ == [name for module in submodules for name in module.__all__]


def test_parser_is_reused_without_carrying_state(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "eo", "list", "--g", "2", "--format", "csv")
    assert code == 0 and out.startswith("2,0;0,0,2,2,")
    code, out, _ = run(capsys, "eo", "list", "--g", "2")
    assert code == 0 and len(json.loads(out)) == 4
    code, out, _ = run(capsys, "build", "ss", "--g", "3", "--s", "0", "--p", "3")
    assert code == 0 and bt1.from_json(out).field.p == 3
    code, out, _ = run(capsys, "build", "ss", "--g", "3", "--s", "0")
    assert code == 0 and bt1.from_json(out).field.p == 2
    code, _, err = run(capsys, "eo", "list", "--g", "2", "--bogus")
    assert code == 1 and "usage error" in err
    assert run(capsys, "eo", "list", "--g", "2")[0] == 0
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith("usage: ssrank")


def _subcommands(parser):
    """The name -> parser map of parser's subcommands, empty at a leaf."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


# one workload-shaped argv or more for every command; parsed only, never run
_EVERY_COMMAND = (
    ("eo", "list", "--g", "12"), ("eo", "list", "--g", "9", "--format", "csv"),
    ("eo", "list", "--g", "7", "--filter", "f=1,s=0", "--format", "json"),
    ("eo", "module", "--nu", "0,1,1", "--p", "3"), ("eo", "module", "--nu", "0,1"),
    ("module", "invariants", "--in", "m0001.json"), ("module", "decompose", "--in", "m0002.json"),
    ("module", "check", "--in", "m0003.json"), ("module", "polarize", "--in", "m0004.json"),
    ("build", "word", "--w", "FVV"), ("build", "word", "--w", "FFV", "--p", "5"),
    ("build", "jrs", "--r", "2", "--s", "3"), ("build", "jrs", "--r", "1", "--s", "1", "--p", "97"),
    ("build", "profile", "--g", "6", "--f", "1", "--a", "3", "--s", "2", "--p", "2"),
    ("build", "profile", "--g", "4", "--f", "0", "--a", "2", "--s", "1"),
    ("build", "ss", "--g", "5", "--s", "3", "--p", "3"), ("build", "ss", "--g", "2", "--s", "0"),
    ("curve", "hyp2", "--poles", "3,9", "--oracle"), ("curve", "hyp2", "--poles", "5"),
    ("curve", "hermitian", "--p", "3", "--n", "2"), ("table", "feasibility", "--g", "7"),
    ("atlas", "--g-max", "12", "--out", "atlas.csv"),
)


def _reorderings(argv):
    """argv with its options in every order, each option a flag and the value after it."""
    options, rest = [], list(argv[2:] if argv[:2] in cli._COMMANDS else argv[1:])
    while rest:
        take = 1 if rest[0] == "--oracle" else 2
        options.append(tuple(rest[:take]))
        del rest[:take]
    command = argv[:len(argv) - sum(map(len, options))]
    return {command + sum(order, ()) for order in itertools.permutations(options)}


def test_reader_and_tree_parses_agree():
    parser = build_parser()
    commands = set()
    for group, group_parser in _subcommands(parser).items():
        commands |= {(group, cmd) for cmd in _subcommands(group_parser)} or {(group,)}
    assert set(cli._COMMANDS) == commands
    assert {argv[:2] if argv[:2] in commands else argv[:1] for argv in _EVERY_COMMAND} == commands
    padded = [("build", "jrs", "--r", " 1", "--s", "2 ", "--p", " 97 "), ("table", "feasibility", "--g", " 3"),
              ("eo", "list", "--g", "2", "--filter", ""), ("eo", "module", "--nu", ""),
              ("eo", "list", "--g", "00", "--filter", "f=1", "--format", "csv")]
    argvs = set(padded).union(*map(_reorderings, _EVERY_COMMAND))
    assert len(argvs) > 150
    for argv in argvs:
        by_reader = _read_argv(argv)
        assert by_reader is not None and by_reader == parser.parse_args(argv), argv
        depth = 2 if argv[:2] in commands else 1
        assert (by_reader.group, getattr(by_reader, "cmd", None)) == (argv[0], argv[1] if depth == 2 else None)


def _answer(capsys, argv):
    """main(argv) as (exit code, stdout, stderr); --help exits through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_malformed_argv_answers_alike_on_both_routes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    corpus = [
        (), ("--help",), ("-h",), ("nonsense",), ("eo", "bogus"), ("atlas", "list"),
        ("-x", "eo", "list", "--g", "1"), ("eo", "-h", "list"),
        ("eo", "list", "--g", "2", "--bogus"), ("eo", "list", "--g"), ("eo", "list"),
        ("eo", "list", "--g", "x"), ("build", "profile", "--g", "3", "--f", "0", "--a", "1"),
        ("build", "jrs", "--r", "1", "--s", "1.5"), ("module", "check", "--in"),
        ("curve", "hyp2", "--poles"), ("atlas", "--g-max", "3"), ("table", "feasibility", "g", "3"),
        ("--", "eo", "list", "--g", "1"), ("eo", "--", "list", "--g", "1"),
        ("eo", "list", "--", "--g", "1"), ("eo", "list", "--g", "1", "--"),
        ("eo", "list", "--g", "1", "--", "extra"), ("atlas", "--", "--g-max", "1", "--out", "a.csv"),
        ("atlas", "--g-m", "0", "--out", "a.csv"), ("eo", "list", "--g", "1", "--fo", "csv"),
        ("eo", "list", "--g", "1", "--f", "a=1"),
        ("eo", "list", "--g", "3", "--g", "1", "--format", "json", "--format", "csv"),
        ("build", "ss", "--g", "2", "--s", "0", "--p", "3", "--p", "5"),
        ("curve", "hyp2", "--poles", "3", "--oracle", "--oracle"),
        ("eo", "list", "--g=1"), ("eo", "list", "--g", "-1"), ("eo", "list", "--g", "1_0"),
        ("eo", "list", "--g", "1", "--format", "xml"), ("eo", "module", "--nu", "-1"),
        ("curve", "hyp2", "--poles", "3", "--oracle", "x"), ("build", "ss", "--g", "2", "--s", "0", "-h"),
    ]
    for group, group_parser in _subcommands(parser).items():
        corpus += [(group,), (group, "--help"), (group, "-h")]
        corpus += [(group, cmd, flag) for cmd in _subcommands(group_parser) for flag in ("--help", "-h")]
    well_formed = [("build", "ss", "--g", "2", "--s", "0", "--p", "3"), ("eo", "list", "--g", "1"),
                   ("atlas", "--out", "a.csv", "--g-max", "1"), ("eo", "module", "--nu", "0,2")]
    assert all(_read_argv(argv) is None for argv in corpus)
    assert all(_read_argv(argv) is not None for argv in well_formed)
    for argv in corpus + well_formed:
        answer = _answer(capsys, argv)
        with monkeypatch.context() as declining:
            declining.setattr(cli, "_read_argv", lambda argv: None)
            assert _answer(capsys, argv) == answer, argv
        assert answer[0] in (0, 1, 2), argv


def test_in_process_responses_match_a_fresh_process(capsys):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ssrank.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def fresh(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, timeout=120, env=env)

    lazy = fresh("-c", "import ssrank.cli as c; print(c.build_parser.cache_info().currsize)")
    assert lazy.stdout == b"0\n"  # importing the CLI builds no parser
    # nor does a well-formed request, which is read off the command table
    lazy = fresh("-c", "import ssrank.cli as c; c.main(['build', 'ss', '--g', '2', '--s', '0']); "
                       "print(c.build_parser.cache_info().currsize)")
    assert lazy.returncode == 0 and lazy.stdout.endswith(b"\n0\n"), lazy
    commands = (("eo", "list", "--g", "3", "--format", "csv"),
                ("eo", "module", "--nu", "0,1", "--p", "3"),
                ("build", "profile", "--g", "4", "--f", "1", "--a", "2", "--s", "1"),
                ("curve", "hyp2", "--poles", "3,9", "--oracle"),
                ("eo", "module", "--nu", "0,2"))
    for argv in commands:
        run(capsys, *argv)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        result = fresh("-m", "ssrank", *argv)
        assert (code, out.encode(), err.encode()) == (result.returncode, result.stdout,
                                                      result.stderr), argv


def test_json_output_reparses_canonically(capsys):
    code, out, _ = run(capsys, "build", "jrs", "--r", "3", "--s", "3", "--p", "5")
    assert code == 0
    text = out.strip()
    assert bt1.to_json(bt1.from_json(text)) == text


def test_cli_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "ssrank", "eo", "list", "--g", "1", "--format", "csv"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["1,0,0,1,1,FV", "1,1,1,0,0,F;V"]
