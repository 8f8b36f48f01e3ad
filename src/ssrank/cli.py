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
from collections.abc import Iterable, Iterator, Sequence

from . import bt1, build, curves, eo, words
from .ffmat import PrimeField

ATLAS_G_CAP = 12
# doubling_orbits allocates 2^n + 1 flags (0.34 s at n = 20)
HERMITIAN_N_CAP = 20
# modules are dense 2g x 2g matrices (build profile at g = 64, p = 97: 0.2 s);
# also bounds table feasibility, whose O(g^3) rows are 3.8 MB of JSON at g = 64
MODULE_G_CAP = 64
# module polarize solves for g(2g - 1) unknowns: 0.11 s at g = 12 and 0.25 s at g = 14 at p = 97,
# 0.013 and 0.023 s at p = 2 (worst of three conjugated canonical modules, 2-core x86-64, CPython 3.11)
POLARIZE_G_CAP = 12
# curve hyp2 lists one summand entry per unit of genus (g = 10^5: 0.1 s, 1.3 MB)
HYP2_G_CAP = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


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


def _csv_lines(g: int, rows: Iterable[tuple]) -> Iterator[str]:
    """The atlas lines, newline included, of the walk's rows of length g.  The words field is
    the letters of a row's sorted census entries joined by ";", so a word of multiplicity m
    comes m times, in census order, and the empty census gives the empty string."""
    for nu, f, a, s, entries in rows:
        yield f"{g},{nu},{f},{a},{s},{';'.join([e[1] for e in entries])}\n"


def _write_json_rows(g: int, rows: Iterable[tuple]) -> None:
    """Write the walk's rows of length g as they come, byte for byte as json.dumps(rows, indent=2)
    with each nu a list: its text with each ";" laid out as a list separator.  The word counts are
    the runs of equal letters in the sorted entries, keys F and V only, which need no escaping."""
    head = f'  {{\n    "g": {g},\n    "nu": ' + ("[\n      " if g else "[")
    nu_end, comma = ("\n    ]" if g else "]"), ",\n      "
    separator = "[\n"
    for nu, f, a, s, entries in rows:
        counts, last, m = [], None, 0
        for _, letters, _ in entries:
            if letters != last:
                if m:
                    counts.append(f'"{last}": {m}')
                last, m = letters, 0
            m += 1
        if m:
            counts.append(f'"{last}": {m}')
        words_json = "{\n      " + comma.join(counts) + "\n    }" if counts else "{}"
        sys.stdout.write(f'{separator}{head}{nu.replace(";", comma)}{nu_end},\n    "f": {f},\n'
                         f'    "a": {a},\n    "s": {s},\n    "words": {words_json}\n  }}')
        separator = ",\n"
    sys.stdout.write("[]\n" if separator == "[\n" else "\n]\n")


def emit_atlas(g_max: int, path: str) -> None:
    """Write the atlas CSV: columns g, nu, f, a, s, words; g ascending, nu lex."""
    _check_cap("g_max", g_max, ATLAS_G_CAP)
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for g in range(1, g_max + 1):
            handle.writelines(_csv_lines(g, words._type_entries(g)))


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
        rows = words._type_entries(args.g, **_parse_filter(args.filter))
        if args.format == "csv":
            sys.stdout.writelines(_csv_lines(args.g, rows))
        else:
            _write_json_rows(args.g, rows)
        return 0
    # module; the command table holds no other eo command
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
    bt1.require_valid(module)
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


# a table feasibility row, laid out as json.dumps(report, indent=2) lays out an item of its rows
_FEASIBILITY_ROW = '    {\n      "f": %d,\n      "a": %d,\n      "s": %d,\n      "feasible": %s\n    }'


def _run_table(args: argparse.Namespace) -> int:  # the one subcommand, feasibility
    _check_nonnegative(args, "g")
    g = args.g
    _check_cap("g", g, MODULE_G_CAP)
    rows = [_FEASIBILITY_ROW % (f, a, s, "true" if build.feasible(build.ProfileQuery(g, f, a, s))
                                else "false")
            for f in range(g + 1) for a in range(g - f + 1) for s in range(a + 1)]
    # g >= 0 always gives a row, so the list is never json.dumps's bare "[]"
    _print(f'{{\n  "g": {g},\n  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}")
    return 0


def _run_atlas(args: argparse.Namespace) -> int:
    emit_atlas(args.g_max, args.out)
    return 0


def _option(flag: str, kind=str, *, required: bool = False, default=None, metavar: str | None = None,
            help: str | None = None, dest: str | None = None) -> tuple[str, tuple]:
    """One flag -> (dest, kind, required, default, metavar, help) item of a command's options.

    The kind is int, str, bool (a store_true flag) or the tuple of the choices the value takes.
    """
    return flag, (dest or flag[2:].replace("-", "_"), kind, required, default, metavar, help)


_P = _option("--p", int, default=2)
_IN = _option("--in", dest="path", required=True, metavar="FILE.json")

# group -> help, for the groups whose commands sit in the command table under (group, cmd)
_GROUPS = {"eo": "Ekedahl-Oort type catalogue", "module": "operate on a serialized module",
           "build": "construct modules", "curve": "curve applications", "table": "tabulations"}

# (group, cmd), or (group,) for a group that is itself a command -> (help, run, options), in the
# order --help lists them; options maps each flag to its _option spec, in the order of the usage line
_COMMANDS = {
    ("eo", "list"): ("enumerate all 2^g types with invariants", _run_eo, dict([
        _option("--g", int, required=True), _option("--filter", metavar="f=..,a=..,s=.."),
        _option("--format", ("json", "csv"), default="json")])),
    ("eo", "module"): ("canonical module of one type", _run_eo, dict([
        _option("--nu", required=True, metavar="a,b,c"), _P])),
    ("module", "invariants"): ("p-rank, a-number, unpolarized rank u over F_p (can be < s)",
                               _run_module, dict([_IN])),
    ("module", "decompose"): ("cyclic-word census and census invariants", _run_module, dict([_IN])),
    ("module", "check"): ("validate the BT1 axioms and any attached form", _run_module, dict([_IN])),
    ("module", "polarize"): ("attach a compatible nondegenerate form", _run_module, dict([_IN])),
    ("build", "word"): ("module of a cyclic word", _run_build, dict([
        _option("--w", required=True, metavar="FVV..."), _P])),
    ("build", "jrs"): ("module on x with F^r x = -V^s x", _run_build, dict([
        _option("--r", int, required=True), _option("--s", int, required=True), _P])),
    ("build", "profile"): ("realize a feasible (g,f,a,s)", _run_build, dict([
        *(_option(flag, int, required=True) for flag in ("--g", "--f", "--a", "--s")), _P])),
    ("build", "ss"): ("supersingular profile with given rank s", _run_build, dict([
        _option("--g", int, required=True), _option("--s", int, required=True), _P])),
    ("curve", "hyp2"): ("hyperelliptic curve in characteristic 2", _run_curve, dict([
        _option("--poles", required=True, metavar="3,9"),
        _option("--oracle", bool, default=False, help="also assemble the module and cross-check s")])),
    ("curve", "hermitian"): ("Hermitian curve invariants", _run_curve, dict([
        _option("--p", int, required=True), _option("--n", int, required=True)])),
    ("table", "feasibility"): ("feasibility of (f,a,s) at fixed g", _run_table, dict([
        _option("--g", int, required=True)])),
    ("atlas",): ("write the EO atlas CSV", _run_atlas, dict([
        _option("--g-max", int, required=True), _option("--out", required=True, metavar="PATH")])),
}


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree of the command table, built on the first call and shared by every later one.

    parse_args leaves it unchanged, so nothing carries from one request to the next.  Only a
    request that `_read_argv` declines needs it: --help, a malformed command line, an error to
    report.  --help shows the module docstring up to its size caps.
    """
    description = (__doc__ or "").partition("\n\nSize caps")[0] or None
    parser = _Parser(prog="ssrank", description=description)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for key, (help_text, run, options) in _COMMANDS.items():
        if len(key) == 1:
            leaf = top.add_parser(key[0], help=help_text)
        else:
            group, cmd = key
            if group not in groups:
                groups[group] = top.add_parser(group, help=_GROUPS[group]).add_subparsers(
                    dest="cmd", required=True)
            leaf = groups[group].add_parser(cmd, help=help_text)
        for flag, (dest, kind, required, default, metavar, option_help) in options.items():
            if kind is bool:
                leaf.add_argument(flag, action="store_true", help=option_help)
            else:
                leaf.add_argument(flag, dest=dest, type=_int_option if kind is int else None,
                                  choices=kind if isinstance(kind, tuple) else None,
                                  required=required, default=default, metavar=metavar,
                                  help=option_help)
        leaf.set_defaults(run=run)
    return parser


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace build_parser().parse_args(argv) returns, read straight off a well-formed argv.

    Well formed is a command of the table, then options of that command, each by its exact flag
    and at most once, each but a store_true flag followed by one value that does not start with
    "-"; every required option given, every integer one that _parse_int takes and every choice
    one of the option's choices.  Anything else gives None: --help, an abbreviation,
    --opt=value, a value such as -1, "--", a bad integer or choice, an unknown command.
    """
    key = tuple(argv[:2])
    command = _COMMANDS.get(key)
    if command is None:
        key = key[:1]
        command = _COMMANDS.get(key)
        if command is None:
            return None
    _, run, options = command
    values = {}
    i, n = len(key), len(argv)
    while i < n:
        spec = options.get(argv[i])
        if spec is None or spec[0] in values:
            return None
        dest, kind = spec[0], spec[1]
        if kind is bool:
            values[dest] = True
            i += 1
            continue
        if i + 1 == n or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if kind is int:
            try:
                value = _parse_int(value, "")
            except UsageError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
        i += 2
    for dest, _, required, default, _, _ in options.values():
        if dest not in values:
            if required:
                return None
            values[dest] = default
    if len(key) == 2:
        values["cmd"] = key[1]
    return argparse.Namespace(group=key[0], run=run, **values)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Read a well-formed argv off the command table, else parse it with the argparse tree.

    Both give the same Namespace for a well-formed argv.  Everything else (--help, a bare
    group, an unknown command, any malformed option) goes to the tree, built on the first
    such request, which answers it as argparse does.
    """
    args = _read_argv(argv)
    return args if args is not None else build_parser().parse_args(argv)


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
