"""A checked-in mutation suite: each mutant is one small edit of the
program that the named test files must catch.

For each mutant the runner copies the repository to a temporary
directory, replaces the mutant's old text, which must occur exactly once
in its file, with the new text, and runs its test files with ``pytest -x``
and Hypothesis seeded with 0, so every run draws the same examples.
The mutant is caught when pytest reports a failing test (exit 1).  A
mutant that survives means the tests cannot see that edit: mend the
tests, not the mutant.  An old text that is not found exactly once is an
error, so the list cannot go stale quietly.

Run it from anywhere; it runs every mutant:

    python tests/mutants.py

It exits 0 when every mutant is caught and 1 otherwise.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_out"
)

# (name, file, old text, new text, test files expected to catch it)
MUTANTS = [
    (
        "one-piece rule counts nonempty pieces",
        "src/singlink/openbook.py",
        "one_piece = len(pieces) == 1",
        "one_piece = sum(1 for n in pieces if n) == 1",
        ["tests/test_openbook.py"],
    ),
    (
        "negated delta sum in (phi - 1)l",
        "src/singlink/openbook.py",
        "ld, le = deltas, 0",
        "ld, le = -deltas, 0",
        ["tests/test_openbook.py"],
    ),
    (
        "adjunction vector off by one",
        "src/singlink/legendrian.py",
        "framing - 2 * genus + 2 for genus",
        "framing - 2 * genus + 1 for genus",
        ["tests/test_invariants.py"],
    ),
    (
        "a plumbing loop adds 1 to the diagonal",
        "src/singlink/plumbing.py",
        "q[i][i] += 2",
        "q[i][i] += 1",
        ["tests/test_plumbing.py"],
    ),
    (
        "rot vectors may repeat in the filling pass",
        "src/singlink/verify.py",
        "previous >= rots",
        "previous > rots",
        ["tests/test_verify.py"],
    ),
    (
        "Euler characteristic without the 1-handles",
        "src/singlink/invariants.py",
        "chi = 1 - self.family.one_handle_count + len(q)",
        "chi = 1 + len(q)",
        ["tests/test_invariants.py"],
    ),
    (
        "cli witness without the 1-handle zeros",
        "src/singlink/invariants.py",
        "zeros = [0] * (2 * reduction.graph.total_genus())",
        "zeros = []",
        ["tests/test_cli.py"],
    ),
    (
        "a quiet optional third-party import",
        "src/singlink/cli.py",
        "import functools\n",
        "import functools\n\ntry:\n    import hypothesis  # noqa: F401\n"
        "except ImportError:\n    pass\n",
        ["tests/test_cli.py"],
    ),
    (
        "a fixed point below 1 taken as reduced",
        "src/singlink/sl2z.py",
        "q > 0 and root < p <= root + q and q - p <= root",
        "q > 0 and root < p <= root + q",
        ["tests/test_sl2z.py"],
    ),
    (
        "signature skips the column step on a zero diagonal",
        "src/singlink/linalg.py",
        "            _add_column(rows.values(), p, j, 1)\n",
        "",
        ["tests/test_smith.py"],
    ),
    (
        "boundary free rank counts each genus once",
        "src/singlink/plumbing.py",
        "self.first_betti() + 2 * self.total_genus()",
        "self.first_betti() + self.total_genus()",
        ["tests/test_plumbing.py"],
    ),
    (
        "SNF pivot ties ignore the Markowitz count",
        "src/singlink/linalg.py",
        "((len(a[i]) - 1) * (col_count[j] - 1), i, j)",
        "(0, i, j)",
        ["tests/test_smith.py"],
    ),
    (
        "SNF pivot ties of equal Markowitz count taken column-first",
        "src/singlink/linalg.py",
        "    return min([((len(a[i]) - 1) * (col_count[j] - 1), i, j) for i, j in ties])[1:]\n",
        "    _, j, i = min([((len(a[i]) - 1) * (col_count[j] - 1), j, i) for i, j in ties])\n"
        "    return i, j\n",
        ["tests/test_smith.py"],
    ),
    (
        "SNF pivot ties of equal Markowitz count taken from the highest row",
        "src/singlink/linalg.py",
        "    return min([((len(a[i]) - 1) * (col_count[j] - 1), i, j) for i, j in ties])[1:]\n",
        "    _, i, j = min([((len(a[i]) - 1) * (col_count[j] - 1), -i, j) for i, j in ties])\n"
        "    return -i, j\n",
        ["tests/test_smith.py"],
    ),
    (
        "two-column cokernel takes the minors' gcd as d2",
        "src/singlink/linalg.py",
        "minors // d1 if minors",
        "minors if minors",
        ["tests/test_smith.py", "tests/test_openbook.py"],
    ),
    (
        "a rot of the wrong parity is realizable",
        "src/singlink/legendrian.py",
        "abs(rot) > s or (s - rot) % 2",
        "abs(rot) > s",
        ["tests/test_legendrian.py"],
    ),
    (
        "handle JSON writes tb as the framing",
        "src/singlink/legendrian.py",
        '"tb": framing + 1',
        '"tb": framing',
        ["tests/test_legendrian.py"],
    ),
    (
        "handle text swaps the left and right zigzags",
        "src/singlink/legendrian.py",
        "left, right = (s - rot) // 2, (s + rot) // 2",
        "left, right = (s + rot) // 2, (s - rot) // 2",
        ["tests/test_legendrian.py"],
    ),
    (
        "is_canonical accepts c but not -c",
        "src/singlink/legendrian.py",
        "return tuple(rot_vector) in (c, tuple(-x for x in c))",
        "return tuple(rot_vector) == c",
        ["tests/test_invariants.py"],
    ),
    (
        "boundary free rank is the first Betti number alone",
        "src/singlink/plumbing.py",
        "self.first_betti() + 2 * self.total_genus()",
        "self.first_betti()",
        ["tests/test_plumbing.py"],
    ),
    (
        "signature's Schur complement adds the pivot row instead of subtracting",
        "src/singlink/linalg.py",
        "-rows[i][p] / pivot[p]",
        "rows[i][p] / pivot[p]",
        ["tests/test_smith.py"],
    ),
    (
        "signature counts the negative pivots as positive",
        "src/singlink/linalg.py",
        "pivot[p] > 0",
        "pivot[p] < 0",
        ["tests/test_smith.py"],
    ),
    (
        "SNF pivot choice without the least-|x| rule",
        "src/singlink/linalg.py",
        "elif abs(x) < least or not least:",
        "elif not least:",
        ["tests/test_smith.py"],
    ),
    (
        "a cusp's boundary count is sum(n_i - 1)",
        "src/singlink/families.py",
        "sum([n - 2 for n in self.word])",
        "sum([n - 1 for n in self.word])",
        ["tests/test_openbook.py"],
    ),
    (
        "a plumbing vertex may have a negative genus",
        "src/singlink/plumbing.py",
        "            if genus < 0:\n"
        '                raise InvalidParameter(f"vertex genus must be nonnegative, got {genus}")\n',
        "            pass\n",
        ["tests/test_plumbing.py"],
    ),
    (
        "verify's H_1 agreement drops the open-book leg",
        "src/singlink/verify.py",
        "plumbing == monodromy == openbook",
        "plumbing == monodromy",
        ["tests/test_verify.py"],
    ),
    (
        "inv's H_1 agreement drops the plumbing leg",
        "src/singlink/invariants.py",
        "all_equal = plumbing == monodromy == openbook",
        "all_equal = monodromy == openbook",
        ["tests/test_verify.py"],
    ),
    (
        "verify's Euler check accepts a class of any order",
        "src/singlink/verify.py",
        "all(k == 1 for k, _ in classes)",
        "all(k >= 1 for k, _ in classes)",
        ["tests/test_verify.py"],
    ),
    (
        "plumbing imports linalg at module level again",
        "src/singlink/plumbing.py",
        "from .families import Family, InvalidParameter, SizeLimitExceeded\n",
        "from .families import Family, InvalidParameter, SizeLimitExceeded\n"
        "from .linalg import smith_normal_form\n",
        ["tests/test_cli.py"],
    ),
    (
        "invariants_report reads a cusp's missing d3",
        "src/singlink/invariants.py",
        '    if only == "d3":\n        check_d3_supported(family)\n',
        "",
        ["tests/test_invariants.py"],
    ),
    (
        "the d3 refusal refuses the supported families",
        "src/singlink/families.py",
        "if not family.d3_supported:",
        "if family.d3_supported:",
        ["tests/test_invariants.py"],
    ),
    (
        "the one-entry parser drops the inv alias",
        "src/singlink/cli.py",
        "if command in (None, name, *aliases):",
        "if command in (None, name):",
        ["tests/test_cli.py"],
    ),
    (
        "a cusp's expected twist-word length drops its delta count",
        "src/singlink/families.py",
        "], len(self.word) + self.boundary_count",
        "], self.boundary_count",
        ["tests/test_verify.py"],
    ),
    (
        "the elliptic closed form states the cusp's trace rule",
        "src/singlink/families.py",
        '("monodromy is parabolic of trace 2", monodromy.is_elliptic_link)',
        '("monodromy is parabolic of trace 2", monodromy.is_cusp_link)',
        ["tests/test_verify.py"],
    ),
    (
        "the class of -v keeps the witness of v",
        "src/singlink/invariants.py",
        "cls = k, tuple([-x for x in y])",
        "cls = k, y",
        ["tests/test_golden.py", "tests/test_invariants.py"],
    ),
    (
        "a repeat of v gets the negated class",
        "src/singlink/invariants.py",
        "cls = reduced[v]\n",
        "cls = reduced[v][0], tuple([-x for x in reduced[v][1]])\n",
        ["tests/test_invariants.py"],
    ),
    (
        "a cycle word of one entry 2 is accepted",
        "src/singlink/sl2z.py",
        "max(entries) < 3",
        "max(entries) < 2",
        ["tests/test_sl2z.py"],
    ),
    (
        "the cusp graph drops its closing edge",
        "src/singlink/families.py",
        "for i in range(k)])",
        "for i in range(k - 1)])",
        ["tests/test_plumbing.py"],
    ),
]


def mutated(root: Path, path: str, old: str, new: str) -> str:
    """The text of root/path with old replaced by new; old must occur in it
    exactly once."""
    text = (root / path).read_text(encoding="utf-8")
    found = text.count(old)
    if found != 1:
        raise SystemExit(f"{path}: the old text {old!r} occurs {found} times, not once")
    return text.replace(old, new)


def run(path: str, text: str, tests: list[str]) -> tuple[int, float]:
    """pytest's exit code on the test files in a copy of the repository
    whose file at path holds text, and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="singlink-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        (copy / path).write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *tests]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True)
        return done.returncode, time.perf_counter() - start


def main() -> int:
    texts = [mutated(ROOT, path, old, new) for _, path, old, new, _ in MUTANTS]  # none stale
    survived = 0
    for (name, path, _, _, tests), text in zip(MUTANTS, texts):
        code, seconds = run(path, text, tests)
        verdict = "caught" if code == 1 else f"NOT CAUGHT (pytest exit {code})"
        survived += code != 1
        print(f"{verdict:<28} {seconds:5.1f} s  {name}  [{' '.join(tests)}]", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return int(survived > 0)


if __name__ == "__main__":
    sys.exit(main())
