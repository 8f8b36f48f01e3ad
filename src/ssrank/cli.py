"""Command-line surface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success; 1 usage error, when the command line does not parse
or a --nu, --w or --poles value names no EO type, cyclic word or pole
divisor; 2 validation failure, when a parsed request fails a check (module
axioms, an unsupported p, an out-of-range parameter, a size cap); 3
infeasible request.  All output is deterministic, ordered, and free of
locale or color dependence so it can be golden-file tested.

Size caps, checked before any work starts (exit 2): `atlas --g-max` and
`eo list --g` at 12; `curve hermitian --n` at 20 and `--p`, like every p,
at 97; `table feasibility --g`, whose rows grow as g^3, at 64; modules,
which are dense matrices, at g = 64: `build profile --g`, `build ss --g`,
the length of `eo module --nu` and the genus of `curve hyp2 --poles` with
`--oracle`; r + s of `build jrs`, the length of `build word --w` and the
dim of a `module ... --in` file at 2g = 128, except for `module polarize`,
capped at dim 24 (g = 12); the bytes of a `module ... --in` file, read no
further than the cap, at 843392, which json.dumps(indent=4) of any dim-128
module stays under, and at 30944 (dim 24) for `module polarize`; the genus
of `curve hyp2 --poles` without `--oracle` at 100000.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence

from . import bt1, build, curves, eo, words
from .ffmat import PrimeField

ATLAS_G_CAP = 12
# doubling_orbits allocates 2^n + 1 flags (0.34 s at n = 20)
HERMITIAN_N_CAP = 20
# modules are dense 2g x 2g matrices (build profile at g = 64, p = 97: 0.2 s);
# also bounds table feasibility, whose O(g^3) rows are 3.8 MB of JSON at g = 64
MODULE_G_CAP = 64
# module polarize solves for g(2g - 1) unknowns: 0.18-0.32 s at g = 12 and 0.45-0.69 s at g = 14 at
# p = 97, 0.04 and 0.06 s at p = 2 (worst of three conjugated canonical modules, 2-core x86-64, CPython 3.11)
POLARIZE_G_CAP = 12
# curve hyp2 lists one summand entry per unit of genus (g = 10^5: 0.1 s, 1.3 MB)
HYP2_G_CAP = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # (group, cmd) -> the leaf that parses that command's options; ("atlas",) -> atlas's
    leaves: dict[tuple[str, ...], _Parser]

    def error(self, message: str) -> None:  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call and shared by every later request.

    parse_args leaves it unchanged, so nothing carries from one request to
    the next.  --help shows the module docstring up to its size caps.  Each
    leaf carries the group, cmd and run defaults, so it parses its command's
    options alone (`parser.leaves`) to the same Namespace as the whole tree.
    """
    description = (__doc__ or "").partition("\n\nSize caps")[0] or None
    parser = _Parser(prog="ssrank", description=description)
    top = parser.add_subparsers(dest="group", required=True)

    eo_cmd = top.add_parser("eo", help="Ekedahl-Oort type catalogue")
    eo_sub = eo_cmd.add_subparsers(dest="cmd", required=True)
    eo_list = eo_sub.add_parser("list", help="enumerate all 2^g types with invariants")
    eo_list.add_argument("--g", type=_int_option, required=True)
    eo_list.add_argument("--filter", default=None, metavar="f=..,a=..,s=..")
    eo_list.add_argument("--format", choices=("json", "csv"), default="json")
    eo_module = eo_sub.add_parser("module", help="canonical module of one type")
    eo_module.add_argument("--nu", required=True, metavar="a,b,c")
    eo_module.add_argument("--p", type=_int_option, default=2)

    mod_cmd = top.add_parser("module", help="operate on a serialized module")
    mod_sub = mod_cmd.add_subparsers(dest="cmd", required=True)
    for name, help_text in (("invariants", "p-rank, a-number, unpolarized rank u over F_p (can be < s)"),
                            ("decompose", "cyclic-word census and census invariants"),
                            ("check", "validate the BT1 axioms and any attached form"),
                            ("polarize", "attach a compatible nondegenerate form")):
        sub = mod_sub.add_parser(name, help=help_text)
        sub.add_argument("--in", dest="path", required=True, metavar="FILE.json")

    build_cmd = top.add_parser("build", help="construct modules")
    build_sub = build_cmd.add_subparsers(dest="cmd", required=True)
    b_word = build_sub.add_parser("word", help="module of a cyclic word")
    b_word.add_argument("--w", required=True, metavar="FVV...")
    b_word.add_argument("--p", type=_int_option, default=2)
    b_jrs = build_sub.add_parser("jrs", help="module on x with F^r x = -V^s x")
    b_jrs.add_argument("--r", type=_int_option, required=True)
    b_jrs.add_argument("--s", type=_int_option, required=True)
    b_jrs.add_argument("--p", type=_int_option, default=2)
    b_profile = build_sub.add_parser("profile", help="realize a feasible (g,f,a,s)")
    for flag in ("--g", "--f", "--a", "--s"):
        b_profile.add_argument(flag, type=_int_option, required=True)
    b_profile.add_argument("--p", type=_int_option, default=2)
    b_ss = build_sub.add_parser("ss", help="supersingular profile with given rank s")
    b_ss.add_argument("--g", type=_int_option, required=True)
    b_ss.add_argument("--s", type=_int_option, required=True)
    b_ss.add_argument("--p", type=_int_option, default=2)

    curve_cmd = top.add_parser("curve", help="curve applications")
    curve_sub = curve_cmd.add_subparsers(dest="cmd", required=True)
    c_hyp = curve_sub.add_parser("hyp2", help="hyperelliptic curve in characteristic 2")
    c_hyp.add_argument("--poles", required=True, metavar="3,9")
    c_hyp.add_argument("--oracle", action="store_true",
                       help="also assemble the module and cross-check s")
    c_herm = curve_sub.add_parser("hermitian", help="Hermitian curve invariants")
    c_herm.add_argument("--p", type=_int_option, required=True)
    c_herm.add_argument("--n", type=_int_option, required=True)

    table_cmd = top.add_parser("table", help="tabulations")
    table_sub = table_cmd.add_subparsers(dest="cmd", required=True)
    t_feas = table_sub.add_parser("feasibility", help="feasibility of (f,a,s) at fixed g")
    t_feas.add_argument("--g", type=_int_option, required=True)

    atlas_cmd = top.add_parser("atlas", help="write the EO atlas CSV")
    atlas_cmd.add_argument("--g-max", type=_int_option, required=True)
    atlas_cmd.add_argument("--out", required=True, metavar="PATH")
    atlas_cmd.set_defaults(group="atlas", run=_run_atlas)

    parser.leaves = {("atlas",): atlas_cmd}
    for group, sub, run in (("eo", eo_sub, _run_eo), ("module", mod_sub, _run_module),
                            ("build", build_sub, _run_build), ("curve", curve_sub, _run_curve),
                            ("table", table_sub, _run_table)):
        for cmd, leaf in sub.choices.items():
            leaf.set_defaults(group=group, cmd=cmd, run=run)
            parser.leaves[group, cmd] = leaf
    return parser


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} is capped at {cap}")


def _parse_int(text: str, message: str) -> int:
    """An optional minus sign and ASCII digits, spaces around; int() alone takes "1_0" too."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(message)
    try:
        return int(text)
    except ValueError:  # more digits than int() converts (4300 by default)
        raise UsageError(message) from None


def _int_option(text: str) -> int:
    """`type=` of every integer option: the digits _parse_int takes, else argparse's usage error."""
    try:
        return _parse_int(text, "")
    except UsageError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_filter(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    out: dict[str, int] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError(f"bad filter clause {piece!r}; expected key=value")
        key, _, value = piece.partition("=")
        key = key.strip()
        if key not in ("f", "a", "s"):
            raise UsageError(f"unknown filter key {key!r}; allowed: f, a, s")
        if key in out:
            raise UsageError(f"filter key {key!r} given twice")
        out[key] = _parse_int(value, f"filter value for {key!r} must be an integer")
    return out


def _type_rows(g: int, wanted: Mapping[str, int]) -> Iterator[tuple]:
    """(nu, f, a, s, census) for each type of length g that passes the filter, nu-lex."""
    for nu, f, a, census in words.type_censuses(g, **wanted):
        yield nu, f, a, census.multiplicity(words.FV), census


def _csv_line(nu: tuple[int, ...], f: int, a: int, s: int, census: words.WordCensus) -> str:
    return f"{len(nu)},{';'.join(map(str, nu))},{f},{a},{s},{census.joined()}"


def _json_row(nu: tuple[int, ...], f: int, a: int, s: int, census: words.WordCensus) -> str:
    """One row laid out exactly as json.dumps(rows, indent=2) lays out a list item.

    Word keys are letters F and V only, so they need no escaping.
    """
    nu_text = "[\n      " + ",\n      ".join(map(str, nu)) + "\n    ]" if nu else "[]"
    counts = ("{\n      " + ",\n      ".join([f'"{w.letters}": {m}' for w, m in census.counts])
              + "\n    }" if census.counts else "{}")
    return (f'  {{\n    "g": {len(nu)},\n    "nu": {nu_text},\n    "f": {f},\n    "a": {a},\n'
            f'    "s": {s},\n    "words": {counts}\n  }}')


def _write_json_rows(rows: Iterable[tuple]) -> None:
    """Write rows as they come, byte for byte as json.dumps(list(rows), indent=2)."""
    separator = "[\n"
    for row in rows:
        sys.stdout.write(separator + _json_row(*row))
        separator = ",\n"
    sys.stdout.write("[]\n" if separator == "[\n" else "\n]\n")


def emit_atlas(g_max: int, path: str) -> None:
    """Write the atlas CSV: columns g, nu, f, a, s, words; g ascending, nu lex."""
    _check_cap("g_max", g_max, ATLAS_G_CAP)
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for g in range(1, g_max + 1):
            handle.writelines(_csv_line(*row) + "\n" for row in _type_rows(g, {}))


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_report(obj) -> None:
    _print(json.dumps(obj, indent=2, sort_keys=False))


def _module_file_cap(g_cap: int) -> int:
    """The most bytes read from a `module ... --in` file for modules up to genus g_cap.

    json.dumps(indent=4) of a dim-d module with a form and entries in -(p-1)..p-1 spends at
    most 17 bytes on an entry ("-96" indented by 12, then ",\n"), 20 on a row's brackets and
    under 128 on the rest, a final newline included.
    """
    d = 2 * g_cap
    return 3 * d * (17 * d + 20) + 128


def _read_module(path: str, g_cap: int) -> bt1.DieudonneModule:
    """The module in a file, of which at most cap + 1 bytes are read, with dim capped at 2 g_cap."""
    cap = _module_file_cap(g_cap)
    with open(path, "rb") as handle:
        # read(n) allocates n bytes up front, so ask for what the file holds; a pipe says 0
        size = os.fstat(handle.fileno()).st_size
        data = handle.read(min(size, cap) + 1)
        if len(data) > size:
            data += handle.read(cap + 1 - len(data))
    if len(data) > cap:
        raise ValueError(f"module file is capped at {cap} bytes")
    return bt1.from_json(data.decode("utf-8"), max_dim=2 * g_cap)


def _parse_int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers; an empty item is an error, an empty value the empty list."""
    message = f"{what} must be a comma-separated list of integers"
    return [_parse_int(piece, message) for piece in text.split(",")] if text else []


def _parse_value(make, value):
    """make(value), with a value it rejects reported as a usage error."""
    try:
        return make(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_nonnegative(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 0:
            raise ValueError(f"{name} must be nonnegative")


def _run_eo(args: argparse.Namespace) -> int:
    if args.cmd == "list":
        _check_nonnegative(args, "g")
        _check_cap("g", args.g, ATLAS_G_CAP)
        rows = _type_rows(args.g, _parse_filter(args.filter))
        if args.format == "csv":
            for row in rows:
                _print(_csv_line(*row))
        else:
            _write_json_rows(rows)
        return 0
    # module; argparse admits no other subcommand
    nu = _parse_int_list(args.nu, "--nu")
    _check_cap("nu length", len(nu), MODULE_G_CAP)
    module = eo.canonical_module(_parse_value(eo.EOType.of, nu), PrimeField(args.p))
    bt1.require_valid(module)
    _print(bt1.to_json(module))
    return 0


def _run_module(args: argparse.Namespace) -> int:
    module = _read_module(args.path, POLARIZE_G_CAP if args.cmd == "polarize" else MODULE_G_CAP)
    if args.cmd == "check":
        violations = bt1.validate_bt1(module)
        _emit_report({"valid": not violations, "violations": violations})
        return 0 if not violations else 2
    if args.cmd == "invariants":
        bundle = bt1.invariants(module)
        _emit_report({"p": module.field.p, "dim": module.dim, "g": bundle.g,
                      "f": bundle.f, "a": bundle.a, "u": bundle.u})
        return 0
    if args.cmd == "decompose":
        census = words.decompose(module)
        bundle = words.census_invariants(census)
        _emit_report({"census": census.as_dict(),
                      "g": bundle.g, "f": bundle.f, "a": bundle.a, "s": bundle.s})
        return 0
    # polarize
    gram = bt1.find_polarization(module)
    if gram is None:
        raise bt1.PolarizationSearchError("no compatible nondegenerate form exists")
    _print(bt1.to_json(module.with_form(gram)))
    return 0


def _run_build(args: argparse.Namespace) -> int:
    field = PrimeField(args.p)
    if args.cmd == "word":
        _check_cap("word length", len(args.w), 2 * MODULE_G_CAP)
        module = words.word_module(_parse_value(words.CyclicWord.of, args.w), field)
    elif args.cmd == "jrs":
        _check_cap("r + s", args.r + args.s, 2 * MODULE_G_CAP)
        module = build.j_rs(args.r, args.s, field)
    elif args.cmd == "profile":
        _check_nonnegative(args, "g", "f", "a", "s")
        _check_cap("g", args.g, MODULE_G_CAP)
        module = build.realize(build.ProfileQuery(g=args.g, f=args.f, a=args.a, s=args.s), field)
    else:  # ss
        _check_nonnegative(args, "g", "s")
        _check_cap("g", args.g, MODULE_G_CAP)
        module = build.supersingular_profile(args.g, args.s, field)
    _print(bt1.to_json(module))
    return 0


def _run_curve(args: argparse.Namespace) -> int:
    if args.cmd == "hyp2":
        divisor = _parse_value(curves.PoleDivisor.of, _parse_int_list(args.poles, "--poles"))
        _check_cap("genus", divisor.genus, MODULE_G_CAP if args.oracle else HYP2_G_CAP)
        report = curves.hyp2_analyze(divisor)
        payload = {name: getattr(report, name) for name in report._fields}
        if args.oracle:
            oracle_module = curves.hyp2_module_oracle(divisor)
            census = words.decompose(oracle_module)
            payload["oracle_s"] = census.multiplicity(words.FV)
            payload["oracle_census"] = census.as_dict()
            if payload["oracle_s"] != report.s:
                raise RuntimeError("oracle disagrees with the closed form")
        _emit_report(payload)
        return 0
    # hermitian
    _check_cap("n", args.n, HERMITIAN_N_CAP)
    report = curves.hermitian_analyze(args.p, args.n)
    _emit_report({name: getattr(report, name) for name in report._fields})
    return 0


def _run_table(args: argparse.Namespace) -> int:  # the one subcommand, feasibility
    _check_nonnegative(args, "g")
    g = args.g
    _check_cap("g", g, MODULE_G_CAP)
    rows = []
    for f in range(g + 1):
        for a in range(g - f + 1):
            for s in range(a + 1):
                rows.append({"f": f, "a": a, "s": s,
                             "feasible": build.feasible(build.ProfileQuery(g, f, a, s))})
    _emit_report({"g": g, "rows": rows})
    return 0


def _run_atlas(args: argparse.Namespace) -> int:
    emit_atlas(args.g_max, args.out)
    return 0


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv with the leaf its first words name, else with the whole tree.

    The whole tree handles --help, a bare group, an unknown command and an
    option before the command; the leaf is the object that the whole tree
    would hand the rest of argv to, so both give the same result and errors.
    """
    parser = build_parser()
    for depth in (2, 1):  # (group, cmd), then ("atlas",)
        leaf = parser.leaves.get(tuple(argv[:depth]))
        if leaf is not None:
            return leaf.parse_args(argv[depth:])
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        code = args.run(args)
        sys.stdout.flush()  # so that a reader gone early shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Nobody reads the rest (say, a pipe into head): stop quietly.  Pointing stdout at
        # devnull lets the interpreter's own last flush of the unread output succeed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except build.InfeasibleProfileError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
