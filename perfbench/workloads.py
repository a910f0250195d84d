"""The benchmark workloads and the independent checks of their outputs.

Every expected value is computed here from the family parameters (2x2
products, the plumbing form, rotation ranges, closed forms), never read
from saved program output.  A check raises ``Mismatch`` when an output
disagrees, or ``KnownFault`` for the one failure the benchmark keeps on
purpose: ``invariants --d3`` on a cusp family exits 3 "unsupported"
(ROADMAP open item 3).
"""
from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

class Mismatch(Exception):
    """An output that disagrees with the value the benchmark computed itself."""


class KnownFault(Exception):
    """d3 of a cusp family is unsupported; counted as failed, not as incorrect."""


def import_cli():
    """Import ``singlink.cli`` from the checkout's ``src/``, and no other copy."""
    package = SRC / "singlink"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: {package} is missing; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import singlink.cli

    if Path(singlink.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported singlink from {singlink.cli.__file__}, not {package}")
    return singlink.cli


# ---------------------------------------------------------------- families
# A family is ("elliptic", n) or ("cusp", (n_1, ..., n_k)).


def elliptic(n):
    return ("elliptic", n)


def cusp(word):
    return ("cusp", tuple(word))


def family_flags(family) -> list[str]:
    kind, value = family
    if kind == "elliptic":
        return ["--elliptic", str(value)]
    return ["--cusp", ",".join(map(str, value))]


def family_json(family) -> dict:
    kind, value = family
    if kind == "elliptic":
        return {"kind": "elliptic", "n": value}
    return {"kind": "cusp", "word": list(value)}


def label(family) -> str:
    kind, value = family
    return f"elliptic({value})" if kind == "elliptic" else f"cusp({','.join(map(str, value))})"


def suite_cusp_words() -> list[tuple[int, ...]]:
    """Every valid cycle word with k <= 4 and entries <= 5 (336 words)."""
    return [
        entries
        for k in range(1, 5)
        for entries in itertools.product(range(2, 6), repeat=k)
        if max(entries) >= 3
    ]


def suite_families() -> list:
    return [elliptic(n) for n in range(1, 11)] + [cusp(w) for w in suite_cusp_words()]


def rotation_ranges(family) -> list[range]:
    """Realizable rotation numbers {-s, -s+2, ..., s} of each handle slot."""
    kind, value = family
    spans = [value] if kind == "elliptic" else [n - 2 for n in value]
    return [range(-s, s + 1, 2) for s in spans]


def diagram_count(family) -> int:
    return math.prod(len(r) for r in rotation_ranges(family))


# ------------------------------------------------------- 2x2 and k x k algebra

S = ((0, -1), (1, 0))
T = ((1, 1), (0, 1))
T_INV = ((1, -1), (0, 1))


def mul2(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def inv2(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def word_matrix(word):
    """M(n_1) ... M(n_k) with M(n) = [[n, -1], [1, 0]]."""
    out = ((1, 0), (0, 1))
    for n in word:
        out = mul2(out, ((n, -1), (1, 0)))
    return out


def conjugated(word, rng: random.Random, length: int):
    """P A(word) P^-1 for a product P of ``length`` letters drawn from S, T, T^-1."""
    p = ((1, 0), (0, 1))
    for _ in range(length):
        p = mul2(p, rng.choice((S, T, T_INV)))
    return mul2(mul2(p, word_matrix(word)), inv2(p))


def matrix_arg(m) -> str:
    # passed as --matrix=VALUE: argparse reads "--matrix -5,..." as a missing value
    return ",".join(str(x) for row in m for x in row)


def presentation(family):
    """diag(0, 0, -n) for the elliptic family, the plumbing form for a cusp word."""
    kind, value = family
    if kind == "elliptic":
        return ((0, 0, 0), (0, 0, 0), (0, 0, -value))
    k = len(value)
    if k == 1:
        return ((2 - value[0],),)
    q = [[0] * k for _ in range(k)]
    for i, n in enumerate(value):
        q[i][i] = -n
        q[i][(i + 1) % k] += 1
        q[(i + 1) % k][i] += 1
    return tuple(map(tuple, q))


def canonical_rot(family, sign: str) -> tuple[int, ...]:
    """Rotation numbers of the min (or max) canonical diagram, in presentation slots."""
    pick = min if sign == "min" else max
    rots = tuple(pick(r) for r in rotation_ranges(family))
    return (0, 0) + rots if family[0] == "elliptic" else rots


# ------------------------------------------------------------------- checks

Check = Callable[[int, bytes, bytes], None]


def _ok(code: int, err: bytes) -> None:
    if code != 0:
        raise Mismatch(f"exit {code}: {err.decode(errors='replace').strip()[:200]}")


def _ok_json(code: int, out: bytes, err: bytes):
    _ok(code, err)
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def _homology(data: dict, family) -> None:
    groups = [data["plumbing"], data["monodromy"], data["openbook"]]
    _expect(data["family"] == family_json(family), "homology reports another family")
    _expect(groups[0] == groups[1] == groups[2] and data["all_equal"] is True,
            f"the three H_1 disagree: {groups}")
    kind, value = family
    if kind == "elliptic":
        expected = {"free_rank": 2, "torsion": [value] if value > 1 else []}
        _expect(groups[0] == expected, f"H_1 {groups[0]} != Z^2 + Z/{value}")
    else:
        (a, _), (_, d) = word_matrix(value)
        _expect(groups[0]["free_rank"] == 1, f"free rank {groups[0]['free_rank']} != 1")
        order = math.prod(groups[0]["torsion"])
        _expect(order == a + d - 2, f"torsion order {order} != trace - 2 = {a + d - 2}")


def _euler(data: dict, family) -> None:
    q = presentation(family)
    for sign in ("min", "max"):
        rep = data[sign]
        _expect(rep["is_zero"] is True and rep["witness"] is not None,
                f"euler[{sign}] does not vanish")
        w = rep["witness"]
        product = tuple(sum(x * y for x, y in zip(row, w)) for row in q)
        _expect(product == canonical_rot(family, sign),
                f"euler[{sign}]: Q.witness {product} != rot {canonical_rot(family, sign)}")


def _d3(data: dict, family) -> None:
    kind, value = family
    if kind == "elliptic":
        expected = Fraction(3 - value, 4)
    else:  # (k - sum(n_i - 2)) / 4, from x = (1, ..., 1) solving Q x = rot
        expected = Fraction(len(value) - sum(n - 2 for n in value), 4)
    for sign in ("min", "max"):
        got = Fraction(data[sign]["num"], data[sign]["den"])
        _expect(got == expected, f"d3[{sign}] = {got}, expected {expected}")


def check_verify(family) -> Check:
    def check(code, out, err):
        data = _ok_json(code, out, err)
        _expect(data["family"] == family_json(family), "verify reports another family")
        failing = [c["name"] for c in data["checks"] if not c["passed"]]
        _expect(data["passed"] is True and not failing, f"verify failed: {failing}")
    return check


def check_invariants(family) -> Check:
    def check(code, out, err):
        data = _ok_json(code, out, err)
        _homology(data["homology"], family)
        _euler(data["euler"], family)
        if family[0] == "elliptic":
            _d3(data["d3"], family)
        else:
            _expect(data["d3"] is None, "d3 reported for a cusp family")
    return check


def check_euler(family) -> Check:
    return lambda code, out, err: _euler(_ok_json(code, out, err), family)


def check_d3(family) -> Check:
    def check(code, out, err):
        if family[0] == "cusp" and code == 3 and b"unsupported" in err:
            raise KnownFault("d3 of a cusp family is unsupported")
        _d3(_ok_json(code, out, err), family)
    return check


def check_factor(word) -> Check:
    rotations = {tuple(word[i:] + word[:i]) for i in range(len(word))}

    def check(code, out, err):
        data = _ok_json(code, out, err)
        _expect(tuple(data) in rotations, f"factor gave {data}, not a rotation of {word}")
    return check


def check_classify(matrix) -> Check:
    trace = matrix[0][0] + matrix[1][1]

    def check(code, out, err):
        data = _ok_json(code, out, err)
        _expect(data == {"class": "hyperbolic", "trace": trace, "is_cusp_link": True,
                         "is_elliptic_link": False}, f"classify gave {data}")
    return check


def _stream_fillings(out: bytes):
    """The top-level fields of an ``enumerate --json`` output, and an iterator
    over its fillings that decodes one at a time.

    Decoding the whole output at once would take about five times its size,
    more than the enumeration itself once that streams; this check must not
    set the workload's peak memory.
    """
    text = out.decode()
    start = text.index('"fillings"')  # keys are sorted: count, family, fillings
    head = json.loads(text[:start].rstrip().rstrip(",") + "}")
    decoder = json.JSONDecoder()

    def fillings():
        i = text.index("[", start) + 1
        while True:
            while text[i] in ", \n":
                i += 1
            if text[i] == "]":
                return
            filling, i = decoder.raw_decode(text, i)
            yield filling

    return head, fillings()


def check_enumerate(family) -> Check:
    def check(code, out, err):
        _ok(code, err)
        try:
            head, fillings = _stream_fillings(out)
        except ValueError as exc:
            raise Mismatch(f"output is not enumerate JSON: {exc}") from None
        _expect(head["family"] == family_json(family), "enumerate reports another family")
        expected = itertools.product(*rotation_ranges(family))
        seen = set()
        for got, rot in itertools.zip_longest(fillings, expected):
            _expect(got is not None and rot is not None, "count differs from prod(n_i - 1)")
            _expect(tuple(got["rot"]) == rot,
                    f"rot {got['rot']} != {list(rot)} of the product of the ranges")
            _expect(got["c1"] == got["rot"], "c1 != rot")
            seen.add(rot)
        _expect(head["count"] == len(seen) == diagram_count(family),
                f"count {head['count']} != {diagram_count(family)} distinct rot vectors")
    return check


def check_graph(word) -> Check:
    k = len(word)
    if k == 1:
        edges = [[0, 0]]
    elif k == 2:
        edges = [[0, 1], [0, 1]]
    else:
        edges = [sorted((i, (i + 1) % k)) for i in range(k)]  # unordered pairs
    expected = {"vertices": [{"genus": 0, "weight": -n} for n in word], "edges": edges}

    def check(code, out, err):
        data = _ok_json(code, out, err)
        _expect(data == expected, f"graph gave {data}")
    return check


def check_openbook(word) -> Check:
    k = len(word)
    if k == 1:
        gammas = [f"gamma{j}" for j in range(1, word[0] - 1)]
    else:
        gammas = [f"gamma{i}_{j}" for i, n in enumerate(word, start=1) for j in range(1, n - 1)]
    expected = {"genus": 1, "boundaries": len(gammas),
                "word": [f"delta{i}" for i in range(k)] + gammas}

    def check(code, out, err):
        data = _ok_json(code, out, err)
        _expect(data == expected, f"openbook gave {data}")
    return check


def check_surgery(n) -> Check:
    def check(code, out, err):
        data = _ok_json(code, out, err)
        _expect(data["kind"] == "borromean" and data["framings"] == [0, 0, -n],
                f"surgery gave {data}")
    return check


def check_canonical(n) -> Check:
    def check(code, out, err):
        data = _ok_json(code, out, err)
        for sign, rot, defect in (("min", -n, 0), ("max", n, 2 * n)):
            got = data[sign]
            _expect(got["handles"] == [{"framing": -n, "genus": 1, "rot": rot, "tb": 1 - n}]
                    and got["defects"] == [defect] and got["is_canonical"] is True,
                    f"canonical[{sign}] gave {got}")
    return check


# ---------------------------------------------------------------- workloads


@dataclass
class Call:
    """One ``singlink`` invocation and the check of its output."""

    argv: list[str]
    check: Check
    diagrams: int = 0  # Stein diagrams the call enumerates or reports
    request: object = None  # parsed CliRequest, for workloads run in-process


@dataclass
class Op:
    """One family's worth of calls; latencies are taken per op."""

    label: str
    calls: list[Call]

    @property
    def diagrams(self) -> int:
        return sum(c.diagrams for c in self.calls)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cold: Op | None  # a small call run in fresh interpreters for cold_start_p50_ms
    fresh_process: bool = False  # every op runs as its own `python3 -m singlink`
    min_passes: int = 1


def _verify_op(family) -> Op:
    return Op(label(family), [Call(["verify", *family_flags(family), "--json"],
                                   check_verify(family), diagram_count(family))])


def _pipeline_op(family, rng: random.Random) -> Op:
    calls = [Call(["invariants", *family_flags(family), "--json"], check_invariants(family), 2)]
    if family[0] == "cusp":
        matrix = conjugated(family[1], rng, 8)
        calls.append(Call(["factor", "--matrix=" + matrix_arg(matrix), "--json"],
                          check_factor(family[1])))
    return Op(label(family), calls)


def _enumerate_op(family) -> Op:
    return Op(label(family), [Call(["enumerate", *family_flags(family), "--json"],
                                   check_enumerate(family), diagram_count(family))])


def build_suite(rng: random.Random) -> Workload:
    families = suite_families()
    rng.shuffle(families)
    return Workload("suite", [_verify_op(f) for f in families], _verify_op(cusp((2, 3))))


# Rungs of the tall ladder.  Elliptic(n) and (3,)^k grow by about sqrt(2) per
# rung, up to about 0.25 s: longer ops could not be timed steadily on a
# shared machine (see run.fastest).  Mixed words run at every cyclic rotation
# because the SNF cost depends on the rotation (up to 40% on (2,2,2,3)^24),
# so picking one rotation per seed would make the cost depend on the seed.
TALL_ELLIPTIC = (8, 12, 17, 25, 35)
TALL_THREES = (12, 17, 24, 34)
TALL_MIXED = ((2, 2, 2, 3) * 8, (2, 2, 2, 3) * 12, (2, 3, 4, 5) * 2, (2, 3, 4, 5) * 4)


def tall_families() -> list:
    families = [elliptic(n) for n in TALL_ELLIPTIC] + [cusp((3,) * k) for k in TALL_THREES]
    for word in TALL_MIXED:
        period = len(set(word[i:] + word[:i] for i in range(len(word))))
        families += [cusp(word[i:] + word[:i]) for i in range(period)]
    return families


def build_tall(rng: random.Random) -> Workload:
    families = tall_families()
    rng.shuffle(families)
    ops = [_pipeline_op(f, rng) for f in families]
    return Workload("tall", ops, _pipeline_op(elliptic(8), rng))


# Fixed multisets; the seed only permutes them, so prod(n_i - 1) is fixed:
# 6,144, 4,374 and 6,250 diagrams at k = 12, 9 and 6.  Words of 8k-20k
# diagrams took 0.6-1.8 s each, too long to time steadily on a shared machine.
ENUMERATE_MULTISETS = ((3,) * 11 + (4,), (4,) * 7 + (3, 2), (6,) * 5 + (3,))


def build_enumerate(rng: random.Random) -> Workload:
    ops = []
    for entries in ENUMERATE_MULTISETS:
        word = list(entries)
        rng.shuffle(word)
        ops.append(_enumerate_op(cusp(word)))
    return Workload("enumerate", ops, _enumerate_op(cusp((3, 3, 3, 3))))


# Fixed: the failure is the program's, so its input must not depend on the seed.
CUSP_D3_WORD = (2, 3, 4)


def build_cli(rng: random.Random) -> Workload:
    words = suite_cusp_words()

    def draw_word():
        return rng.choice(words)

    def draw_n():
        return rng.randint(1, 10)

    def permuted(entries):  # the diagram count, prod(n_i - 1), stays fixed
        return cusp(rng.sample(entries, len(entries)))

    calls = []
    word = draw_word()
    matrix = conjugated(word, rng, 4)
    calls.append(Call(["classify", "--matrix=" + matrix_arg(matrix), "--json"],
                      check_classify(matrix)))
    word = draw_word()
    calls.append(Call(["factor", "--matrix=" + matrix_arg(conjugated(word, rng, 4)), "--json"],
                      check_factor(word)))
    word = draw_word()
    calls.append(Call(["graph", "--cusp", ",".join(map(str, word)), "--json"], check_graph(word)))
    word = draw_word()
    calls.append(Call(["openbook", "--cusp", ",".join(map(str, word)), "--json"],
                      check_openbook(word)))
    n = draw_n()
    calls.append(Call(["surgery", "--elliptic", str(n), "--json"], check_surgery(n)))
    family = permuted((2, 3, 4, 5))
    calls.append(Call(["enumerate", *family_flags(family), "--json"], check_enumerate(family),
                      diagram_count(family)))
    n = draw_n()
    calls.append(Call(["canonical", "--elliptic", str(n), "--json"], check_canonical(n), 2))
    family = cusp(draw_word())
    calls.append(Call(["inv", *family_flags(family), "--json"], check_invariants(family), 2))
    family = elliptic(draw_n())
    calls.append(Call(["inv", *family_flags(family), "--euler", "--json"], check_euler(family), 2))
    family = elliptic(draw_n())
    calls.append(Call(["inv", *family_flags(family), "--d3", "--json"], check_d3(family), 2))
    family = cusp(CUSP_D3_WORD)
    calls.append(Call(["inv", *family_flags(family), "--d3", "--json"], check_d3(family), 2))
    family = permuted((3, 4, 5))
    calls.append(Call(["verify", *family_flags(family), "--json"], check_verify(family),
                      diagram_count(family)))
    ops = [Op(" ".join(c.argv[:-1]), [c]) for c in calls]
    return Workload("cli", ops, None, fresh_process=True, min_passes=2)


WORKLOADS = {
    "suite": build_suite,
    "tall": build_tall,
    "enumerate": build_enumerate,
    "cli": build_cli,
}


def set_up(name: str, seed: int):
    """Import the package and build the workload's inputs: what setup_s times."""
    cli = import_cli()
    workload = WORKLOADS[name](random.Random(seed))
    if not workload.fresh_process:
        for op in workload.ops:
            for call in op.calls:
                call.request = cli.parse_args(call.argv)
    return cli, workload
