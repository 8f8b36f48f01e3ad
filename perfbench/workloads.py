"""Request lists for each workload, generated from the workload seed alone.

A request is a dict with the CLI argv, a `kind` (the command with its size
parameters, used for per-kind medians) and an `expect` dict the checker
reads.  Module inputs are built by `modp`, never by ssrank, and written as
files that the argv names, so the same seed always gives the same bytes.

Every workload has a fixed mix: the seed picks which EO types, which
conjugating matrices, which filters and the request order, never how many
requests of each kind there are.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import modp

WORKLOADS = ("catalogue", "classify", "construct", "odd_p")


def module_json(p: int, frob, ver) -> str:
    return json.dumps({"p": p, "dim": len(frob), "F": frob, "V": ver, "form": None},
                      separators=(",", ":"))


class _Builder:
    def __init__(self, seed: int, workload: str, indir: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.indir = indir
        self.requests: list[dict] = []
        self.files: dict[str, str] = {}

    def add(self, kind: str, argv: list[str], **expect) -> None:
        self.requests.append({"kind": kind, "argv": argv, "expect": expect})

    def module_file(self, text: str) -> str:
        path = f"{self.indir}/m{len(self.files):04d}.json"
        self.files[path] = text
        return path

    def types(self, g: int, count: int) -> list[tuple[int, ...]]:
        """One random type from each of `count` equal slices of the lexicographic list.

        Slicing keeps the mix of cheap and costly types the same for every
        seed, so the seed moves the run's total work as little as possible.
        """
        every = modp.all_types(g)
        cuts = [len(every) * i // count for i in range(count + 1)]
        return [every[self.rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]

    def conjugated(self, nu, p: int) -> tuple[list, list]:
        return modp.conjugate(*modp.canonical_module(nu, p), p, self.rng)

    def classify(self, p: int, g: int, cmd: str, count: int) -> None:
        """Module requests on conjugated canonical modules of seeded types."""
        for nu in self.types(g, count):
            frob, ver = self.conjugated(nu, p)
            path = self.module_file(module_json(p, frob, ver))
            self.add(f"module {cmd} --p {p} --g {g}", ["module", cmd, "--in", path],
                     check=f"module_{cmd}", p=p, nu=list(nu))

    def polarize(self, p: int, g: int, count: int) -> None:
        for nu in self.types(g, count):
            frob, ver = self.conjugated(nu, p)
            path = self.module_file(module_json(p, frob, ver))
            self.add(f"module polarize --p {p} --g {g}", ["module", "polarize", "--in", path],
                     check="module_polarize", p=p, nu=list(nu), F=frob, V=ver)

    def profiles(self, p: int, g_max: int) -> None:
        """Every feasible build profile with g <= g_max."""
        for g in range(g_max + 1):
            for f, a, s in sorted(modp.feasible_profiles(g)):
                self.add(f"build profile --p {p} --g {g}",
                         ["build", "profile", "--g", str(g), "--f", str(f), "--a", str(a),
                          "--s", str(s), "--p", str(p)],
                         check="build_profile", p=p, g=g, f=f, a=a, s=s)

    def supersingular(self, p: int, g_max: int) -> None:
        """Every allowed build ss request (0 <= s <= g - 2 or s = g) with g <= g_max."""
        for g in range(1, g_max + 1):
            for s in [*range(g - 1), g]:
                self.add(f"build ss --p {p} --g {g}",
                         ["build", "ss", "--g", str(g), "--s", str(s), "--p", str(p)],
                         check="build_ss", p=p, g=g, s=s)

    def eo_modules(self, p: int, g_max: int) -> None:
        for g in range(1, g_max + 1):
            for nu in modp.all_types(g):
                self.add(f"eo module --p {p} --g {g}",
                         ["eo", "module", "--nu", ",".join(map(str, nu)), "--p", str(p)],
                         check="eo_module", p=p, nu=list(nu))

    def finish(self) -> tuple[list[dict], dict[str, str]]:
        self.rng.shuffle(self.requests)
        return self.requests, self.files


def _catalogue(b: _Builder) -> None:
    for g in range(1, 13):
        small = g <= 9
        for _ in range(2 if small else 1):
            b.add(f"eo list --g {g} --format csv", ["eo", "list", "--g", str(g), "--format", "csv"],
                  check="eo_list", g=g, format="csv", filter={})
        b.add(f"eo list --g {g} --format json", ["eo", "list", "--g", str(g)],
              check="eo_list", g=g, format="json", filter={})
        profiles = sorted(modp.feasible_profiles(g))
        for _ in range(3 if small else 1):
            f, a, s = b.rng.choice(profiles)
            keys = [k for k in "fas" if b.rng.random() < 0.7] or ["a"]
            wanted = {k: v for k, v in zip("fas", (f, a, s)) if k in keys}
            fmt = b.rng.choice(("csv", "json"))
            text = ",".join(f"{k}={v}" for k, v in wanted.items())
            b.add(f"eo list --g {g} --filter", ["eo", "list", "--g", str(g), "--filter", text,
                                                "--format", fmt],
                  check="eo_list", g=g, format=fmt, filter=wanted)
        b.add(f"table feasibility --g {g}", ["table", "feasibility", "--g", str(g)],
              check="table_feasibility", g=g)
    out = f"{b.indir}/atlas.csv"
    b.add("atlas --g-max 12", ["atlas", "--g-max", "12", "--out", out],
          check="atlas", g_max=12, out=out)


def _hyp2_poles(rng: random.Random) -> list[int]:
    return [2 * rng.randrange(0, 7) + 1 for _ in range(rng.randrange(1, 4))]


def _classify(b: _Builder) -> None:
    for g in range(4, 11):
        for cmd in ("invariants", "decompose", "check"):
            b.classify(2, g, cmd, 9)
    for _ in range(11):
        poles = _hyp2_poles(b.rng)
        b.add("curve hyp2 --oracle", ["curve", "hyp2", "--poles", ",".join(map(str, poles)),
                                      "--oracle"],
              check="curve_hyp2", poles=poles)


def _construct(b: _Builder) -> None:
    b.profiles(2, 6)
    b.supersingular(2, 6)
    b.eo_modules(2, 5)
    for g in range(2, 6):
        b.polarize(2, g, 4)


def _odd_p(b: _Builder) -> None:
    for g in range(4, 9):
        for cmd in ("invariants", "decompose", "check"):
            b.classify(3, g, cmd, 2)
    for g in range(3, 7):
        for cmd in ("invariants", "decompose", "check"):
            b.classify(97, g, cmd, 2)
    b.profiles(3, 5)
    b.supersingular(3, 5)
    b.eo_modules(3, 4)
    for g in range(2, 5):
        b.polarize(3, g, 4)


def generate(workload: str, seed: int, indir: str) -> tuple[list[dict], dict[str, str]]:
    """(requests, files) for a workload; files maps a relative path to its text."""
    builder = _Builder(seed, workload, indir)
    {"catalogue": _catalogue, "classify": _classify,
     "construct": _construct, "odd_p": _odd_p}[workload](builder)
    return builder.finish()


def kind_counts(requests: list[dict]) -> dict[str, int]:
    return dict(sorted(Counter(r["kind"] for r in requests).items()))
