"""Command-line front end; the only I/O layer in the package.

Every subcommand is deterministic: repeated invocations with the same
arguments produce byte-identical output.  JSON is emitted with sorted keys
and a trailing newline; DOT is available for the graph subcommand; text is
a human view and never parsed back.

``build_parser`` alone knows the flags, which of them combine and the
handler (``run``) of each subcommand; argparse refuses bad input with exit 1.

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 unsupported computation (d3 of a cusp, held back until its value is
cross-checked against the resolution graph).

A command-line call starts a fresh interpreter, so this module imports
only what parsing and error reporting need; each handler imports the
modules it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import sl2z
from .families import Cusp, Elliptic, UnsupportedPresentation

__all__ = ["parse_args", "run", "emit", "main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_UNSUPPORTED = 3

_JSON = json.JSONEncoder(sort_keys=True)  # json.dumps(payload, sort_keys=True), built once


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # the subparsers too: no flag may be abbreviated
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 instead of argparse's default 2
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _converter(build):
    """An argparse type that reports a ValueError of ``build`` with its message."""

    def convert(text: str):
        try:
            return build(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@_converter
def _parse_matrix(text: str) -> sl2z.Sl2Matrix:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"matrix needs 4 comma-separated integers, got {text!r}")
    return sl2z.Sl2Matrix(*map(int, parts))


_parse_elliptic = _converter(lambda text: Elliptic(int(text)))
_parse_cusp = _converter(lambda text: Cusp(tuple(map(int, text.split(",")))))


def _add_subcommand(sub, name, run, help, *, family=True, suite=False, fmt="text", aliases=()):
    """A subcommand that runs ``run``: --json (and --dot where DOT is the default
    format) and, for a family, exactly one of --elliptic, --cusp (and --suite)."""
    p = sub.add_parser(name, aliases=aliases, help=help)
    p.set_defaults(run=run, fmt=fmt)
    formats = p.add_mutually_exclusive_group()
    formats.add_argument("--json", dest="fmt", action="store_const", const="json", help="emit JSON")
    if fmt == "dot":
        formats.add_argument(
            "--dot", dest="fmt", action="store_const", const="dot", help="emit DOT (the default)"
        )
    if family:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--elliptic", dest="family", type=_parse_elliptic, metavar="N",
            help="simple elliptic link, weight -N",
        )
        group.add_argument(
            "--cusp", dest="family", type=_parse_cusp, metavar="N1,N2,...",
            help="cusp link with the given cycle word",
        )
        if suite:
            group.add_argument(
                "--suite", action="store_true", help="verify the whole standard suite"
            )
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="singlink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help in (
        ("classify", _run_classify, "trace classification of an SL(2,Z) matrix"),
        ("factor", _run_factor, "factor a trace >= 3 matrix into a cycle word"),
    ):
        p = _add_subcommand(sub, name, run, help, family=False)
        p.add_argument("--matrix", required=True, type=_parse_matrix, metavar="a,b,c,d")
    _add_subcommand(sub, "graph", _run_graph, "plumbing graph of the link", fmt="dot")
    _add_subcommand(sub, "openbook", _run_openbook, "horizontal open book of the link")
    _add_subcommand(sub, "surgery", _run_surgery, "smooth surgery description of the link")
    _add_subcommand(sub, "enumerate", _run_enumerate, "all Stein handle diagrams of the link")
    p = _add_subcommand(sub, "canonical", _run_canonical, "adjunction-realizing handle diagrams")
    p.add_argument("--sign", "--canonical", dest="sign", choices=("min", "max"))
    p = _add_subcommand(
        sub, "invariants", _run_invariants, "homology, Euler class and d3 of the link",
        aliases=["inv"],
    )
    p.add_argument("--sign", "--canonical", dest="sign", choices=("min", "max"))
    only = p.add_mutually_exclusive_group()
    only.add_argument("--euler", action="store_true", help="only the Euler class")
    only.add_argument("--d3", action="store_true", help="only the d3 invariant")
    _add_subcommand(
        sub, "verify", _run_verify, "run the invariant suite, exit 0 iff it passes", suite=True
    )
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every parse_args call shares, built on first use."""
    return build_parser()


def _attach_matrix_values(argv) -> list[str]:
    """Rewrite ``--matrix -5,...`` as ``--matrix=-5,...``.

    argparse reads a separate value that starts with a minus sign as an
    option, so a matrix with a negative leading entry must be attached to
    its flag to reach the matrix parser.
    """
    args: list[str] = []
    for arg in argv:
        if args and args[-1] == "--matrix" and arg.startswith("-") and arg[1:2].isdigit():
            args[-1] = f"--matrix={arg}"
        else:
            args.append(arg)
    return args


def parse_args(argv) -> argparse.Namespace:
    """The namespace of one command line; argparse exits 1 on bad input."""
    return _parser().parse_args(_attach_matrix_values(argv))


def emit(fmt: str, payload) -> bytes:
    """Render a payload: JSON with sorted keys, DOT, or plain text."""
    if payload is None or payload == "":
        return b""
    if fmt == "json":
        return (_JSON.encode(payload) + "\n").encode()
    if fmt in ("text", "dot"):
        text = payload if isinstance(payload, str) else str(payload)
        return text.encode() if text.endswith("\n") else (text + "\n").encode()
    raise ValueError(f"unsupported format {fmt!r}")


def _run_classify(request):
    matrix = request.matrix
    if request.fmt == "json":
        return EXIT_OK, {
            "class": matrix.kind,
            "trace": matrix.trace,
            "is_cusp_link": matrix.is_cusp_link,
            "is_elliptic_link": matrix.is_elliptic_link,
        }
    return EXIT_OK, (
        f"class: {matrix.kind}\n"
        f"trace: {matrix.trace}\n"
        f"cusp link monodromy: {'yes' if matrix.is_cusp_link else 'no'}\n"
        f"simple elliptic link monodromy: {'yes' if matrix.is_elliptic_link else 'no'}"
    )


def _run_factor(request):
    word = sl2z.factor_cycle(request.matrix)
    if request.fmt == "json":
        return EXIT_OK, word.to_json_list()
    return EXIT_OK, str(word)


def _run_graph(request):
    graph = request.family.graph()
    if request.fmt == "json":
        return EXIT_OK, graph.to_json_dict()
    return EXIT_OK, graph.to_dot()  # graph's default format is DOT, not text


def _run_openbook(request):
    from .openbook import PAGE_GENUS, curve_names

    family, count = request.family, request.family.boundary_count
    if request.fmt == "json":
        return EXIT_OK, {"genus": PAGE_GENUS, "boundaries": count, "word": curve_names(family)}
    word = "·".join(f"D({name})" for name in curve_names(family, ("δ", "γ", ",")))
    plural = "component" if count == 1 else "components"
    return EXIT_OK, f"{word}, page: genus {PAGE_GENUS}, {count} boundary {plural}"


def _run_surgery(request):
    from . import plumbing

    if request.fmt == "json":
        return EXIT_OK, plumbing.surgery_json(request.family)
    return EXIT_OK, plumbing.surgery_text(request.family)


def _run_enumerate(request):
    from . import legendrian

    family = request.family
    rot_vectors = legendrian.filling_rot_vectors(family)
    # c1 evaluates to the rot vector, so each vector is read once for both
    if request.fmt == "json":
        # each slot's handle dict is built once per realizable rot and shared
        slot_json = [
            {r: legendrian.handle_json(*slot, r) for r in legendrian.rotation_range(*slot)}
            for slot in family.handle_slots()
        ]
        entries = []
        for rots in rot_vectors:
            rot = list(rots)
            handles = [by_rot[r] for by_rot, r in zip(slot_json, rot)]
            entries.append({"rot": rot, "c1": rot, "handles": handles})
        return EXIT_OK, {
            "family": family.to_json_dict(),
            "count": len(entries),
            "fillings": entries,
        }
    lines = []
    for rots in rot_vectors:
        rot = ", ".join(map(str, rots))
        lines.append(f"rot=({rot}) c1=({rot})")
    return EXIT_OK, "\n".join([f"count {len(lines)}", *lines])


def _run_canonical(request):
    from . import invariants, legendrian

    family = request.family
    slots = family.handle_slots()
    signs = (request.sign,) if request.sign else ("min", "max")
    data, lines = {}, []
    for s in signs:
        rots = legendrian.canonical_filling(family, s)
        handles = [(*slot, r) for slot, r in zip(slots, rots)]
        defects = invariants.adjunction_defects(slots, rots)
        if request.fmt == "json":
            data[s] = {
                "family": family.to_json_dict(),
                "one_handles": family.one_handle_count,
                "handles": [legendrian.handle_json(*h) for h in handles],
                "defects": list(defects),
                "is_canonical": invariants.is_canonical(slots, rots),
            }
        else:
            text = "; ".join([legendrian.handle_text(*h) for h in handles])
            lines.append(
                f"{s}: {family.one_handle_count} one-handles; {text}; "
                f"adjunction defects ({', '.join(map(str, defects))})"
            )
    if request.fmt == "json":
        return EXIT_OK, data
    return EXIT_OK, "\n".join(lines)


def _run_invariants(request):
    from . import legendrian
    from .invariants import FamilyReduction, check_d3_supported

    family = request.family
    if request.d3:  # a cusp is refused before Q is reduced
        check_d3_supported(family)
    signs = (request.sign,) if request.sign else ("min", "max")
    rots = [legendrian.canonical_filling(family, s) for s in signs]
    reduction = FamilyReduction(family)
    classes = reduction.euler_classes(rots)
    # a class (k, y) vanishes when k == 1; its witness y is printed with a 0
    # per genus 1-handle in front, indexed as the framings of `surgery` are
    zeros = [0] * (2 * reduction.graph.total_genus())
    euler = {
        s: {"is_zero": k == 1, "order": k, "witness": zeros + list(y) if k == 1 else None}
        for s, (k, y) in zip(signs, classes)
    }
    d3: dict | None = None
    if not request.euler and family.d3_supported:  # a cusp's d3 is None
        d3s = reduction.d3_invariants(classes)
        d3 = {s: {"num": v.numerator, "den": v.denominator} for s, v in zip(signs, d3s)}
    if request.euler or request.d3:
        payload = euler if request.euler else d3
        if request.sign:
            payload = payload[request.sign]
        if request.fmt == "json":
            return EXIT_OK, payload
        return EXIT_OK, _JSON.encode(payload)
    plumbing, monodromy, openbook = reduction.homology(family.monodromy())
    all_equal = plumbing == monodromy == openbook
    if request.fmt == "json":
        homology = {
            "family": family.to_json_dict(),
            "plumbing": plumbing.to_json_dict(),
            "monodromy": monodromy.to_json_dict(),
            "openbook": openbook.to_json_dict(),
            "all_equal": all_equal,
        }
        return EXIT_OK, {"homology": homology, "euler": euler, "d3": d3}
    lines = [
        f"H1 (plumbing):  {plumbing}",
        f"H1 (monodromy): {monodromy}",
        f"H1 (open book): {openbook}",
        f"agreement: {'yes' if all_equal else 'NO'}",
    ]
    for s in signs:
        lines.append(f"euler[{s}]: zero={euler[s]['is_zero']} witness={euler[s]['witness']}")
    if d3 is not None:
        for s in signs:
            lines.append(f"d3[{s}]: {d3[s]['num']}/{d3[s]['den']}")
    else:
        lines.append("d3: unsupported for cusp presentations")
    return EXIT_OK, "\n".join(lines)


def _run_verify(request):
    from .verify import suite_families, verify_family

    if request.suite:
        families = suite_families()
        failures = []
        lines = []
        for family in families:
            failed = [name for name, passed in verify_family(family) if not passed]
            if failed:
                failures.append({"family": family.label, "checks": failed})
            lines.append(f"{'FAIL' if failed else 'ok'}: {family.label}")
        all_ok = not failures
        lines.append(f"{'all' if all_ok else 'NOT all'} {len(families)} families ok")
        code = EXIT_OK if all_ok else EXIT_VERIFY_FAILED
        if request.fmt == "json":
            return code, {"passed": all_ok, "families": len(families), "failures": failures}
        return code, "\n".join(lines)
    checks = verify_family(request.family)
    ok = all(passed for _, passed in checks)
    code = EXIT_OK if ok else EXIT_VERIFY_FAILED
    if request.fmt == "json":
        return code, {
            "family": request.family.to_json_dict(),
            "checks": [{"name": name, "passed": passed} for name, passed in checks],
            "passed": ok,
        }
    lines = [f"{'ok' if passed else 'FAIL'}: {name}" for name, passed in checks]
    lines.append("passed" if ok else "FAILED")
    return code, "\n".join(lines)


def run(request: argparse.Namespace) -> tuple[int, bytes]:
    """Execute a parsed request; returns (exit code, output bytes)."""
    code, payload = request.run(request)
    return code, emit(request.fmt, payload)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        request = parse_args(args)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        code, payload = run(request)
    except UnsupportedPresentation as exc:
        print(f"singlink: unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:  # InvalidParameter and SizeLimitExceeded too
        print(f"singlink: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    return code
