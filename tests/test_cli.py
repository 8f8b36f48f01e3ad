from __future__ import annotations

import json
import subprocess
import sys

from ssrank import bt1, curves, eo
from ssrank.build import feasible, ProfileQuery, i11
from ssrank.cli import main
from ssrank.ffmat import GF2, Matrix


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


def test_polarize_says_exists_only_after_a_proof(tmp_path, capsys):
    # FFVFVV has a 3-dimensional space of compatible forms, all degenerate
    for p, message in ((2, "no compatible nondegenerate form exists"),        # 8 candidates, all tried
                       (97, "the sampled search over 97^3 candidates was not exhaustive")):
        code, out, _ = run(capsys, "build", "word", "--w", "FFVFVV", "--p", str(p))
        assert code == 0
        path = tmp_path / f"ffvfvv{p}.json"
        path.write_text(out, encoding="ascii")
        code, _, err = run(capsys, "module", "polarize", "--in", str(path))
        assert code == 2 and message in err
    assert "exists" not in err


def test_module_check_rejects_invalid(tmp_path, capsys):
    zero_ops = Matrix.zeros(GF2, 2, 2)
    bad = bt1.DieudonneModule(zero_ops, zero_ops)
    path = tmp_path / "bad.json"
    path.write_text(bt1.to_json(bad), encoding="ascii")
    code, out, _ = run(capsys, "module", "check", "--in", str(path))
    assert code == 2
    assert "ker(F) != im(V)" in json.loads(out)["violations"]


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


def test_curve_subcommands(capsys):
    code, out, _ = run(capsys, "curve", "hermitian", "--p", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["g"], payload["a"], payload["s"]) == (6, 3, 0)

    code, out, _ = run(capsys, "curve", "hyp2", "--poles", "3,9", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 2 and payload["oracle_s"] == 2

    code, _, err = run(capsys, "curve", "hyp2", "--poles", "4")
    assert code == 1

    code, _, err = run(capsys, "curve", "hermitian", "--p", "6", "--n", "1")
    assert code == 2


def test_table_feasibility(capsys):
    code, out, _ = run(capsys, "table", "feasibility", "--g", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 3
    for row in payload["rows"]:
        assert row["feasible"] == feasible(ProfileQuery(3, row["f"], row["a"], row["s"]))


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


def test_sizes_are_capped_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("heavy work started before the cap was checked")

    monkeypatch.setattr(eo, "enumerate_types", refuse)
    monkeypatch.setattr(curves, "doubling_orbits", refuse)
    code, _, err = run(capsys, "eo", "list", "--g", "13")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "curve", "hermitian", "--p", "2", "--n", "21")
    assert code == 2 and "capped" in err


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
