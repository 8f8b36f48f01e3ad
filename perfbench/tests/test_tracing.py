"""The tracer wraps every boundary in every namespace and restores them all."""

from __future__ import annotations

import contextlib
import io
import sys

import ssrank.cli
import tracing
import workloads


def _originals():
    out = {}
    for name, module in sys.modules.items():
        if name == "ssrank" or name.startswith("ssrank."):
            out[name] = dict(vars(module))
    for cls in (sys.modules["ssrank.ffmat"].Matrix, sys.modules["ssrank.ffmat"].Subspace):
        out[cls.__qualname__] = dict(vars(cls))
    return out


def test_tracing_restores_every_wrapped_name(tmp_path):
    indir = str(tmp_path)
    requests, files = workloads.generate("classify", 5, indir)
    for path, text in files.items():
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    decompose = [r for r in requests if r["expect"]["check"] == "module_decompose"][:2]
    argvs = [r["argv"] for r in decompose] + [["eo", "module", "--nu", "0,1"],
                                             ["eo", "list", "--g", "3"]]

    before = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        saved = tracer.wrapped_names()
        owners = {id(owner) for owner, attr, _ in saved if attr == "find_polarization"}
        assert len(owners) >= 3  # bt1, eo, build and the package namespace
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                assert ssrank.cli.main(argv) == 0
    finally:
        tracer.uninstall()

    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, attr
    assert _originals() == before

    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == len(argvs)
    assert metrics["words.decompose.calls"] == 2
    assert metrics["words.decompose.via_type_ratio"] == 1.0
    assert metrics["bt1.find_polarization.calls"] >= 1
    assert metrics["bt1.find_polarization.rank_checks"] >= 1
    assert metrics["ffmat.rref.p2.calls"] > 0 and metrics["ffmat.rref.odd.calls"] == 0
    assert metrics["eo.enumerate_types.calls"] == 1
    assert all(metrics[f"{n}.self_s"] >= 0 for n in tracing.LAYER_NAMES)
    names = {name for name, _ in tracing.per_layer_metric_units()}
    assert names - {"trace_overhead_ratio"} == set(metrics)
