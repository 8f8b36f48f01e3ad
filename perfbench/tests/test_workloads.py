"""Request lists come from the seed alone, in a fixed mix, without ssrank."""

from __future__ import annotations

import json
import subprocess
import sys

import modp
import workloads
from conftest import BENCH


def test_same_seed_same_requests_and_files():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7, "in") == workloads.generate(w, 7, "in")


def test_other_seed_other_requests_same_mix():
    for w in workloads.WORKLOADS:
        first, _ = workloads.generate(w, 7, "in")
        second, _ = workloads.generate(w, 8, "in")
        assert first != second
        assert workloads.kind_counts(first) == workloads.kind_counts(second)


def test_generation_does_not_import_ssrank():
    code = ("import sys, workloads\n"
            "for w in workloads.WORKLOADS: workloads.generate(w, 1, 'in')\n"
            "print(any(m.split('.')[0] == 'ssrank' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_module_inputs_are_valid_and_not_in_word_form():
    requests, files = workloads.generate("classify", 7, "in")
    checked = 0
    for req in requests:
        e = req["expect"]
        if e["check"] != "module_decompose":
            continue
        m = json.loads(files[req["argv"][-1]])
        assert not modp.bt1_violations(m["F"], m["V"], 2)
        assert modp.word_form_maps(m["F"], 2) is None or modp.word_form_maps(m["V"], 2) is None
        assert modp.eo_type_of(m["F"], m["V"], 2) == tuple(e["nu"])
        checked += 1
    assert checked
