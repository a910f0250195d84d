"""Command-line front end; the only I/O layer in the package.

Every subcommand is deterministic: repeated invocations with the same
arguments produce byte-identical output.  JSON is emitted with sorted keys
and a trailing newline; DOT is available for the graph subcommand; text is
a human view and never parsed back.

The table ``_SUBCOMMANDS`` alone knows the subcommands, their aliases,
flags and handlers (``run``), and ``_add_subcommand`` which flags combine,
with each family's own flag and parser from ``families.FAMILIES``;
argparse refuses bad input with exit 1.

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 unsupported computation (d3 of a cusp, held back until its value is
cross-checked against the resolution graph).

A command-line call starts a fresh interpreter, and with no bytecode
cache it compiles every module it imports, so this module keeps only
parsing, exit codes and output, and imports only what parsing and error
reporting need.  Each handler imports the module that computes its
output and calls a function there that takes plain values, such as
``openbook.openbook_report``, ``invariants.invariants_report`` or
``verify.family_report``; the cusp ``--d3`` refusal,
``families.check_d3_supported``, runs before ``invariants`` is imported.
``parse_args`` builds the parser of the one subcommand that the first
word of the command line names, and the whole parser only when that word
names none (``-h``, an unknown command), so every help text and error
message is the one the whole parser prints.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import sl2z
from .families import FAMILIES, UnsupportedPresentation, check_d3_supported

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


def _add_subcommand(sub, name, aliases, run, help, options):
    """The subcommand ``name`` that runs ``run``: --json, and each option of
    the table that ``options`` names, one flag per family for "family"."""
    p = sub.add_parser(name, aliases=aliases, help=help)
    p.set_defaults(run=run, fmt="dot" if "dot" in options else "text")
    formats = p.add_mutually_exclusive_group()
    formats.add_argument("--json", dest="fmt", action="store_const", const="json", help="emit JSON")
    if "dot" in options:
        formats.add_argument(
            "--dot", dest="fmt", action="store_const", const="dot", help="emit DOT (the default)"
        )
    if "matrix" in options:
        p.add_argument("--matrix", required=True, type=_parse_matrix, metavar="a,b,c,d")
    if "family" in options:
        group = p.add_mutually_exclusive_group(required=True)
        for family in FAMILIES:
            flag, metavar, text = family.flag
            group.add_argument(
                flag, dest="family", type=_converter(family.parse), metavar=metavar, help=text
            )
        if "suite" in options:
            group.add_argument(
                "--suite", action="store_true", help="verify the whole standard suite"
            )
    if "sign" in options:
        p.add_argument("--sign", "--canonical", dest="sign", choices=("min", "max"))
    if "only" in options:
        only = p.add_mutually_exclusive_group()
        only.add_argument("--euler", action="store_true", help="only the Euler class")
        only.add_argument("--d3", action="store_true", help="only the d3 invariant")


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of the one subcommand whose name or
    alias is ``command``."""
    parser = _Parser(prog="singlink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (aliases, run, help, options) in _SUBCOMMANDS.items():
        if command in (None, name, *aliases):
            _add_subcommand(sub, name, aliases, run, help, options)
    return parser


@functools.cache
def _parser(command: str | None) -> _Parser:
    """The parser every parse_args call for ``command`` shares, built on first use."""
    return build_parser(command)


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
    """The namespace of one command line; argparse exits 1 on bad input.

    A line that starts with a subcommand's name or alias is parsed by a
    parser of that subcommand alone, which parses it as the whole parser
    does; any other line, ``-h`` and an unknown command too, by the whole
    parser.
    """
    args = _attach_matrix_values(argv)
    command = args[0] if args and args[0] in _NAMES else None
    return _parser(command).parse_args(args)


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
    from . import openbook

    return EXIT_OK, openbook.openbook_report(request.family, request.fmt == "json")


def _run_surgery(request):
    from . import plumbing

    if request.fmt == "json":
        return EXIT_OK, plumbing.surgery_json(request.family)
    return EXIT_OK, plumbing.surgery_text(request.family)


def _run_enumerate(request):
    from . import legendrian

    return EXIT_OK, legendrian.enumerate_report(request.family, request.fmt == "json")


def _run_canonical(request):
    from . import legendrian

    return EXIT_OK, legendrian.canonical_report(request.family, request.sign, request.fmt == "json")


def _run_invariants(request):
    family = request.family
    if request.d3:  # a cusp is refused before anything more is imported
        check_d3_supported(family)
    from . import invariants

    if request.euler or request.d3:  # one invariant: its JSON in either format
        only = "euler" if request.euler else "d3"
        payload = invariants.invariants_report(family, request.sign, only)
        return EXIT_OK, payload if request.fmt == "json" else _JSON.encode(payload)
    as_json = request.fmt == "json"
    return EXIT_OK, invariants.invariants_report(family, request.sign, as_json=as_json)


def _run_verify(request):
    from . import verify

    as_json = request.fmt == "json"
    if request.suite:
        passed, payload = verify.suite_report(as_json)
    else:
        passed, payload = verify.family_report(request.family, as_json)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED, payload


# name: (aliases, handler, help, options), the options in the order --help
# lists them after --json: "dot" (DOT is the default format), "matrix",
# "family" (exactly one family flag), "suite" (or --suite),
# "sign" and "only" (--euler or --d3)
_SUBCOMMANDS = {
    "classify": ((), _run_classify, "trace classification of an SL(2,Z) matrix", ("matrix",)),
    "factor": ((), _run_factor, "factor a trace >= 3 matrix into a cycle word", ("matrix",)),
    "graph": ((), _run_graph, "plumbing graph of the link", ("dot", "family")),
    "openbook": ((), _run_openbook, "horizontal open book of the link", ("family",)),
    "surgery": ((), _run_surgery, "smooth surgery description of the link", ("family",)),
    "enumerate": ((), _run_enumerate, "all Stein handle diagrams of the link", ("family",)),
    "canonical": (
        (), _run_canonical, "adjunction-realizing handle diagrams", ("family", "sign")
    ),
    "invariants": (
        ("inv",), _run_invariants, "homology, Euler class and d3 of the link",
        ("family", "sign", "only"),
    ),
    "verify": (
        (), _run_verify, "run the invariant suite, exit 0 iff it passes", ("family", "suite")
    ),
}
_NAMES = frozenset([n for name, (aliases, *_) in _SUBCOMMANDS.items() for n in (name, *aliases)])


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
