"""Golden CLI manifest: stdout and exit codes of every family subcommand.

``golden_cli.json`` holds one sha256 per suite family over (argv, exit code,
stdout) of every family subcommand in text and JSON, plus ``--sign min`` in
text and ``--sign max`` in JSON where the subcommand takes a sign; one per
classify/factor matrix; and one for the text of ``verify --suite``.
A change that alters any byte of output or any exit code fails here.  The
cusp ``--d3`` refusal counts through its exit code.

Regenerate the file only for a deliberate change of output, and record that
change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from singlink.cli import main

from helpers import suite_cusp_words

MANIFEST = Path(__file__).with_name("golden_cli.json")

FORMATS = ((), ("--json",))
SIGNED_FORMATS = FORMATS + (("--sign", "min"), ("--sign", "max", "--json"))
FAMILY_COMMANDS = (
    (("graph",), FORMATS),
    (("openbook",), FORMATS),
    (("surgery",), FORMATS),
    (("enumerate",), FORMATS),
    (("canonical",), SIGNED_FORMATS),
    (("invariants",), SIGNED_FORMATS),
    (("invariants", "--euler"), SIGNED_FORMATS),
    (("invariants", "--d3"), SIGNED_FORMATS),
    (("verify",), FORMATS),
)
MATRICES = ("5,-2,3,-1", "-5,2,-3,1", "-1,1,-5,4", "2,1,1,1", "3,-1,1,0", "1,1,0,1", "0,-1,1,0")


def call(argv):
    """Exit code and stdout bytes of one in-process CLI invocation."""
    out = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.buffer.getvalue()


def digest(invocations):
    h = hashlib.sha256()
    for argv in invocations:
        code, stdout = call(argv)
        h.update(json.dumps([argv, code]).encode() + b"\n" + stdout + b"\0")
    return h.hexdigest()


def groups():
    """(manifest key, argv list) for every group the manifest covers."""
    flags = [["--elliptic", str(n)] for n in range(1, 11)]
    flags += [["--cusp", ",".join(map(str, w))] for w in suite_cusp_words()]
    for family in flags:
        yield " ".join(family), [
            [*command, *family, *fmt] for command, formats in FAMILY_COMMANDS for fmt in formats
        ]
    for matrix in MATRICES:
        yield f"--matrix {matrix}", [
            [command, "--matrix", matrix, *fmt]
            for command in ("classify", "factor")
            for fmt in FORMATS
        ]
    yield "verify --suite", [["verify", "--suite"]]


def manifest():
    return {key: digest(invocations) for key, invocations in groups()}


def test_cli_output_matches_golden_manifest():
    expected = json.loads(MANIFEST.read_text())
    actual = manifest()
    changed = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    assert not changed, f"{len(changed)} groups changed output, first: {changed[:5]}"
    assert len(actual) == 346 + len(MATRICES) + 1


if __name__ == "__main__":
    sys.stdout.write(json.dumps(manifest(), indent=1, sort_keys=True) + "\n")
