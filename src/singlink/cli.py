"""Command-line front end; the only I/O layer in the package.

Every subcommand is deterministic: repeated invocations with the same
arguments produce byte-identical output.  JSON is emitted with sorted keys
and a trailing newline; DOT is available for the graph subcommand; text is
a human view and never parsed back.

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 unsupported computation (a contact surgery diagram, and so d3, of a cusp).

A command-line call starts a fresh interpreter, so this module imports
only what parsing and error reporting need; each handler imports the
modules it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import sl2z
from .families import Cusp, Elliptic, Family, InvalidParameter, UnsupportedPresentation

__all__ = ["CliRequest", "parse_args", "run", "emit", "main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_UNSUPPORTED = 3


@dataclass(frozen=True)
class CliRequest:
    command: str
    family: Family | None = None
    matrix: sl2z.Sl2Matrix | None = None
    fmt: str = "text"
    sign: str | None = None
    euler: bool = False
    d3: bool = False
    suite: bool = False


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_family_flags(parser):
    parser.add_argument("--elliptic", type=int, metavar="N", help="simple elliptic link, weight -N")
    parser.add_argument("--cusp", metavar="N1,N2,...", help="cusp link with the given cycle word")


def _add_format_flags(parser):
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--dot", action="store_true", help="emit DOT (graph subcommand only)")


def build_parser() -> _Parser:
    parser = _Parser(prog="singlink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trace classification of an SL(2,Z) matrix")
    p.add_argument("--matrix", required=True, metavar="a,b,c,d")
    _add_format_flags(p)

    p = sub.add_parser("factor", help="factor a trace >= 3 matrix into a cycle word")
    p.add_argument("--matrix", required=True, metavar="a,b,c,d")
    _add_format_flags(p)

    p = sub.add_parser("graph", help="plumbing graph of the link")
    _add_family_flags(p)
    _add_format_flags(p)

    p = sub.add_parser("openbook", help="horizontal open book of the link")
    _add_family_flags(p)
    _add_format_flags(p)

    p = sub.add_parser("surgery", help="smooth surgery description of the link")
    _add_family_flags(p)
    _add_format_flags(p)

    p = sub.add_parser("enumerate", help="all Stein handle diagrams of the link")
    _add_family_flags(p)
    _add_format_flags(p)

    p = sub.add_parser("canonical", help="adjunction-realizing handle diagrams")
    _add_family_flags(p)
    _add_format_flags(p)
    p.add_argument("--sign", "--canonical", dest="sign", choices=("min", "max"))

    p = sub.add_parser(
        "invariants", aliases=["inv"], help="homology, Euler class and d3 of the link"
    )
    _add_family_flags(p)
    _add_format_flags(p)
    p.add_argument("--sign", "--canonical", dest="sign", choices=("min", "max"))
    p.add_argument("--euler", action="store_true", help="only the Euler class")
    p.add_argument("--d3", action="store_true", help="only the d3 invariant")

    p = sub.add_parser("verify", help="run the invariant suite, exit 0 iff it passes")
    _add_family_flags(p)
    _add_format_flags(p)
    p.add_argument("--suite", action="store_true", help="verify the whole standard suite")
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


def _parse_matrix(text: str) -> sl2z.Sl2Matrix:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"matrix needs 4 comma-separated integers, got {text!r}")
    a, b, c, d = (int(p.strip()) for p in parts)
    return sl2z.Sl2Matrix(a, b, c, d)


def _parse_family(ns) -> Family | None:
    elliptic = getattr(ns, "elliptic", None)
    cusp = getattr(ns, "cusp", None)
    if elliptic is not None and cusp is not None:
        raise ValueError("exactly one of --elliptic and --cusp is allowed")
    if elliptic is not None:
        return Elliptic(elliptic)
    if cusp is not None:
        entries = tuple(int(p.strip()) for p in cusp.split(","))
        return Cusp(sl2z.CycleWord(entries))
    return None


def parse_args(argv) -> CliRequest:
    ns = _parser().parse_args(_attach_matrix_values(argv))
    command = "invariants" if ns.command == "inv" else ns.command
    fmt = "text"
    if getattr(ns, "dot", False) and getattr(ns, "json", False):
        raise ValueError("choose at most one of --json and --dot")
    if getattr(ns, "dot", False) and command != "graph":
        raise ValueError("DOT output is only supported by the graph subcommand")
    if getattr(ns, "json", False):
        fmt = "json"
    elif getattr(ns, "dot", False) or command == "graph":
        fmt = "dot"
    matrix = None
    if getattr(ns, "matrix", None) is not None:
        matrix = _parse_matrix(ns.matrix)
    family = _parse_family(ns)
    if command in ("graph", "openbook", "surgery", "enumerate", "canonical", "invariants"):
        if family is None:
            raise ValueError(f"{command} needs --elliptic or --cusp")
    if command == "verify" and family is None and not getattr(ns, "suite", False):
        raise ValueError("verify needs --elliptic, --cusp or --suite")
    return CliRequest(
        command=command,
        family=family,
        matrix=matrix,
        fmt=fmt,
        sign=getattr(ns, "sign", None),
        euler=getattr(ns, "euler", False),
        d3=getattr(ns, "d3", False),
        suite=getattr(ns, "suite", False),
    )


def emit(fmt: str, payload) -> bytes:
    """Render a payload: JSON with sorted keys, DOT, or plain text."""
    if payload is None or payload == "":
        return b""
    if fmt == "json":
        return (json.dumps(payload, sort_keys=True) + "\n").encode()
    if fmt in ("text", "dot"):
        text = payload if isinstance(payload, str) else str(payload)
        return text.encode() if text.endswith("\n") else (text + "\n").encode()
    raise ValueError(f"unsupported format {fmt!r}")


def _fraction_json(x) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _run_classify(request: CliRequest):
    cls = sl2z.classify(request.matrix)
    if request.fmt == "json":
        return EXIT_OK, {
            "class": cls.kind.value,
            "trace": cls.trace,
            "is_cusp_link": cls.is_cusp_link,
            "is_elliptic_link": cls.is_elliptic_link,
        }
    return EXIT_OK, (
        f"class: {cls.kind.value}\n"
        f"trace: {cls.trace}\n"
        f"cusp link monodromy: {'yes' if cls.is_cusp_link else 'no'}\n"
        f"simple elliptic link monodromy: {'yes' if cls.is_elliptic_link else 'no'}"
    )


def _run_factor(request: CliRequest):
    word = sl2z.factor_cycle(request.matrix)
    if request.fmt == "json":
        return EXIT_OK, word.to_json_list()
    return EXIT_OK, str(word)


def _run_graph(request: CliRequest):
    graph = request.family.graph()
    if request.fmt == "json":
        return EXIT_OK, graph.to_json_dict()
    return EXIT_OK, graph.to_dot()  # parse_args gives graph no text format


def _run_openbook(request: CliRequest):
    book = request.family.openbook()
    if request.fmt == "json":
        return EXIT_OK, book.to_json_dict()
    plural = "component" if book.boundary_count == 1 else "components"
    return EXIT_OK, (
        f"{book.word_text()}, page: genus {book.page_genus}, "
        f"{book.boundary_count} boundary {plural}"
    )


def _run_surgery(request: CliRequest):
    from . import plumbing

    desc = plumbing.smooth_surgery_description(request.family)
    if request.fmt == "json":
        return EXIT_OK, desc.to_json_dict()
    return EXIT_OK, desc.to_text()


def _run_enumerate(request: CliRequest):
    from . import legendrian

    fillings = legendrian.enumerate_stein_fillings(request.family)
    if request.fmt == "json":
        return EXIT_OK, {
            "family": request.family.to_json_dict(),
            "count": len(fillings),
            "fillings": [
                {
                    "rot": list(d.rot_vector),
                    "c1": list(d.rot_vector),
                    "handles": [h.to_json_dict() for h in d.handles],
                }
                for d in fillings
            ],
        }
    lines = [f"count {len(fillings)}"]
    for d in fillings:
        rot = ", ".join(str(r) for r in d.rot_vector)
        lines.append(f"rot=({rot}) c1=({rot})")
    return EXIT_OK, "\n".join(lines)


def _canonical_json(diagram) -> dict:
    from . import invariants

    data = diagram.to_json_dict()
    data["defects"] = [invariants.adjunction_defect(h) for h in diagram.handles]
    data["is_canonical"] = invariants.is_canonical(diagram)
    return data


def _run_canonical(request: CliRequest):
    from . import invariants, legendrian

    signs = (request.sign,) if request.sign else ("min", "max")
    diagrams = {s: legendrian.canonical_filling(request.family, s) for s in signs}
    if request.fmt == "json":
        return EXIT_OK, {s: _canonical_json(d) for s, d in diagrams.items()}
    lines = []
    for s, d in diagrams.items():
        defects = ", ".join(str(invariants.adjunction_defect(h)) for h in d.handles)
        lines.append(f"{s}: {d.to_text()}; adjunction defects ({defects})")
    return EXIT_OK, "\n".join(lines)


def _euler_payloads(family: Family, q, q_snf, signs) -> dict:
    """The Euler class of each canonical structure, reduced against the
    presentation ``q`` of the family and its Smith normal form ``q_snf``."""
    from . import invariants, legendrian

    vectors = [legendrian.canonical_filling(family, s).rot_vector for s in signs]
    reps = invariants.reduce_euler_classes(family, q, q_snf, vectors)
    return {s: rep.to_json_dict() for s, rep in zip(signs, reps)}


def _d3_payload(family: Family, sign: str) -> dict:
    from . import invariants, legendrian

    diagram = legendrian.to_contact_surgery(legendrian.canonical_filling(family, sign))
    return _fraction_json(invariants.d3_invariant(diagram))


def _run_invariants(request: CliRequest):
    from . import invariants
    from .linalg import smith_normal_form
    from .plumbing import intersection_matrix

    family = request.family
    signs = (request.sign,) if request.sign else ("min", "max")
    if request.euler and request.d3:
        raise ValueError("choose at most one of --euler and --d3")
    if request.euler or request.d3:
        if request.euler:
            q = family.presentation()
            payload = _euler_payloads(family, q, smith_normal_form(q), signs)
        else:
            payload = {s: _d3_payload(family, s) for s in signs}
        if request.sign:
            payload = payload[request.sign]
        if request.fmt == "json":
            return EXIT_OK, payload
        return EXIT_OK, json.dumps(payload, sort_keys=True)
    # a cusp's presentation is its plumbing form: one reduction then serves
    # the plumbing H_1 and both Euler classes
    graph = family.graph()
    graph_q = intersection_matrix(graph)
    graph_snf = smith_normal_form(graph_q)
    report = invariants.homology_agreement(
        family, family.monodromy(), graph, graph_snf, family.openbook()
    )
    q = family.presentation()
    q_snf = graph_snf if q == graph_q else smith_normal_form(q)
    euler = _euler_payloads(family, q, q_snf, signs)
    try:
        d3: dict | None = {s: _d3_payload(family, s) for s in signs}
    except UnsupportedPresentation:
        d3 = None
    if request.fmt == "json":
        return EXIT_OK, {"homology": report.to_json_dict(), "euler": euler, "d3": d3}
    lines = [
        f"H1 (plumbing):  {report.plumbing}",
        f"H1 (monodromy): {report.monodromy}",
        f"H1 (open book): {report.openbook}",
        f"agreement: {'yes' if report.all_equal else 'NO'}",
    ]
    for s in signs:
        e = euler[s]
        witness = e["witness"]
        lines.append(f"euler[{s}]: zero={e['is_zero']} witness={witness}")
    if d3 is not None:
        for s in signs:
            lines.append(f"d3[{s}]: {d3[s]['num']}/{d3[s]['den']}")
    else:
        lines.append("d3: unsupported for cusp presentations")
    return EXIT_OK, "\n".join(lines)


def _run_verify(request: CliRequest):
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


_HANDLERS = {
    "classify": _run_classify,
    "factor": _run_factor,
    "graph": _run_graph,
    "openbook": _run_openbook,
    "surgery": _run_surgery,
    "enumerate": _run_enumerate,
    "canonical": _run_canonical,
    "invariants": _run_invariants,
    "verify": _run_verify,
}


def run(request: CliRequest) -> tuple[int, bytes]:
    """Execute a request; returns (exit code, output bytes)."""
    code, payload = _HANDLERS[request.command](request)
    return code, emit(request.fmt, payload)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        request = parse_args(args)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    except (ValueError, InvalidParameter) as exc:
        print(f"singlink: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        code, payload = run(request)
    except UnsupportedPresentation as exc:
        print(f"singlink: unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, InvalidParameter) as exc:
        print(f"singlink: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    return code
