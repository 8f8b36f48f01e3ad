"""Layer-boundary tracing for the traced benchmark run.

`Tracer.install()` wraps the public functions at each ssrank layer boundary
in every ssrank namespace that holds them (for example `bt1.find_polarization`
also as `eo.find_polarization` and `build.find_polarization`), and
`uninstall()` puts every original object back.  Only the traced worker
process installs it; nothing under src/ changes.

Each call records a span (name, start, end, parent) in flat arrays; a
generator records one span per resumption.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

# (metric name, module, class or None, attribute).  Several attributes may
# feed one metric name; ffmat.rref is split by field into .p2 and .odd.
BOUNDARIES = (
    ("cli.main", "ssrank.cli", None, "main"),
    ("build.realize", "ssrank.build", None, "realize"),
    ("build.supersingular_profile", "ssrank.build", None, "supersingular_profile"),
    ("curves.hyp2_module_oracle", "ssrank.curves", None, "hyp2_module_oracle"),
    ("words.census_of_type", "ssrank.words", None, "census_of_type"),
    ("words.decompose", "ssrank.words", None, "decompose"),
    ("eo.enumerate_types", "ssrank.eo", None, "enumerate_types"),
    ("eo.canonical_module", "ssrank.eo", None, "canonical_module"),
    ("eo.eo_type_of", "ssrank.eo", None, "eo_type_of"),
    ("bt1.validate_bt1", "ssrank.bt1", None, "validate_bt1"),
    ("bt1.find_polarization", "ssrank.bt1", None, "find_polarization"),
    ("bt1.invariants", "ssrank.bt1", None, "p_rank"),
    ("bt1.invariants", "ssrank.bt1", None, "a_number"),
    ("bt1.invariants", "ssrank.bt1", None, "unpolarized_ss_rank"),
    ("bt1.json", "ssrank.bt1", None, "to_json"),
    ("bt1.json", "ssrank.bt1", None, "from_json"),
    ("ffmat.rref", "ssrank.ffmat", None, "rref"),
    ("ffmat.matmul", "ssrank.ffmat", "Matrix", "__matmul__"),
    ("ffmat.kernel", "ssrank.ffmat", "Matrix", "kernel"),
    ("ffmat.span", "ssrank.ffmat", "Subspace", "span"),
    ("ffmat.matrix_new", "ssrank.ffmat", "Matrix", "__post_init__"),
    ("ffmat.subspace_new", "ssrank.ffmat", "Subspace", "__post_init__"),
)

LAYER_NAMES = tuple(dict.fromkeys(
    name if name != "ffmat.rref" else sub
    for name, *_ in BOUNDARIES
    for sub in (("ffmat.rref.p2", "ffmat.rref.odd") if name == "ffmat.rref" else (name,))))

EXTRA_METRICS = (
    ("bt1.find_polarization.found_ratio", "ratio"),
    ("bt1.find_polarization.rank_checks", "count"),
    ("words.decompose.via_type_ratio", "ratio"),
    ("build.realize.formless_ratio", "ratio"),
    ("ffmat.rref.cells", "count"),
    ("trace_overhead_ratio", "ratio"),
)


def per_layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in LAYER_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + list(EXTRA_METRICS)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = list(LAYER_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.found = 0
        self.formless = 0
        self.rank_checks = 0
        self.rref_cells = 0
        self._stack: list[int] = []
        self._polarizing = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, metric: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            name_id = self._ids[metric]

            def traced_gen(*args, **kwargs):
                tracer.calls[name_id] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return traced_gen

        if metric == "ffmat.rref":
            p2, odd = self._ids["ffmat.rref.p2"], self._ids["ffmat.rref.odd"]

            def traced_rref(field, rows, ncols):
                if not isinstance(rows, (list, tuple)):
                    rows = list(rows)
                name_id = p2 if field.p == 2 else odd
                tracer.calls[name_id] += 1
                tracer.rref_cells += len(rows) * ncols
                idx = tracer._open(name_id)
                try:
                    return fn(field, rows, ncols)
                finally:
                    tracer._close(idx)
            return traced_rref

        name_id = self._ids[metric]
        polarize = metric == "bt1.find_polarization"
        realize = metric == "build.realize"

        def traced(*args, **kwargs):
            tracer.calls[name_id] += 1
            tracer._polarizing += polarize
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._polarizing -= polarize
            if polarize and result is not None:
                tracer.found += 1
            if realize and result.form is None:
                tracer.formless += 1
            return result
        return traced

    def _count_rank(self, fn):
        tracer = self

        def counted_rank(self_matrix):
            if tracer._polarizing:
                tracer.rank_checks += 1
            return fn(self_matrix)
        return counted_rank

    # --- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every boundary in every loaded ssrank namespace that holds it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "ssrank" or n.startswith("ssrank.")]
        for metric, module, cls, attr in BOUNDARIES:
            if cls is not None:
                owner = getattr(sys.modules[module], cls)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._replace(owner, attr, classmethod(self._wrap(metric, raw.__func__)))
                else:
                    self._replace(owner, attr, self._wrap(metric, raw))
                continue
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(metric, original)
            for ns in namespaces:
                if vars(ns).get(attr) is original:
                    self._replace(ns, attr, wrapped)
        matrix = sys.modules["ssrank.ffmat"].Matrix
        self._replace(matrix, "rank", self._count_rank(vars(matrix)["rank"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrapped_names(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original object) for every replacement in place."""
        return list(self._saved)

    # --- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self seconds per layer name: span time minus child span time."""
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        out = [0.0] * len(self.names)
        for i in range(n):
            out[self.span_name[i]] += end[i] - start[i] - child[i]
        return out

    def via_type_ratio(self) -> float:
        decompose, eo_type_of = self._ids["words.decompose"], self._ids["eo.eo_type_of"]
        routed = {self.span_parent[i] for i in range(len(self.span_start))
                  if self.span_name[i] == eo_type_of and self.span_parent[i] >= 0
                  and self.span_name[self.span_parent[i]] == decompose}
        return _ratio(len(routed), self.calls[decompose])

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, self seconds and ratios for one traced pass."""
        out: dict[str, float] = {}
        for i, (name, secs) in enumerate(zip(self.names, self.self_times())):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = secs
        fp = self.calls[self._ids["bt1.find_polarization"]]
        out["bt1.find_polarization.found_ratio"] = _ratio(self.found, fp)
        out["bt1.find_polarization.rank_checks"] = self.rank_checks
        out["words.decompose.via_type_ratio"] = self.via_type_ratio()
        out["build.realize.formless_ratio"] = _ratio(self.formless,
                                                     self.calls[self._ids["build.realize"]])
        out["ffmat.rref.cells"] = self.rref_cells
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: index, name, parent index, start and end seconds."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


def _ratio(num: int, den: int) -> float:
    """num / den, reported as 0.0 when nothing was attempted."""
    return num / den if den else 0.0
