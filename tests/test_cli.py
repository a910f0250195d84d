import dis
import io
import json
import os
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singlink
from singlink import invariants, legendrian, openbook
from singlink.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY_FAILED,
    emit,
    main,
    parse_args,
    run,
)
from singlink.families import Cusp, Elliptic
from singlink.legendrian import canonical_filling
from singlink.linalg import SnfResult
from singlink.sl2z import Sl2Matrix
from singlink.verify import verify_family

from helpers import (
    counted_linalg,
    counted_snf,
    handle_slots_oracle,
    mat_vec,
    presentation_oracle,
    suite_families,
)


def run_cli(args):
    request = parse_args(args)
    return run(request)


def family_argv(family) -> list[str]:
    """The --elliptic or --cusp flag and value that name the family."""
    if isinstance(family, Elliptic):
        return ["--elliptic", str(family.n)]
    return ["--cusp", ",".join(map(str, family.word))]


def test_parse_classify():
    request = parse_args(["classify", "--matrix", "5,-2,3,-1"])
    assert request.command == "classify"
    assert request.matrix == Sl2Matrix(5, -2, 3, -1)


def test_parse_enumerate_json():
    request = parse_args(["enumerate", "--cusp", "2,2,3", "--json"])
    assert request.command == "enumerate"
    assert request.family == Cusp((2, 2, 3))
    assert request.fmt == "json"


def refused(argv, capsys) -> str:
    """parse_args exits 1 on argv; the stderr it printed."""
    with pytest.raises(SystemExit) as info:
        parse_args(argv)
    assert info.value.code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_parse_rejects_invalid_cycle_word(capsys):
    assert ">= 3" in refused(["enumerate", "--cusp", "2,2"], capsys)
    assert main(["enumerate", "--cusp", "2,2"]) == EXIT_INVALID


def test_parse_rejects_bad_matrix(capsys):
    assert "4 comma-separated" in refused(["classify", "--matrix", "1,2,3"], capsys)
    assert "determinant" in refused(["classify", "--matrix", "1,0,0,2"], capsys)


def test_parse_requires_exactly_one_family(capsys):
    assert "not allowed with" in refused(["graph", "--elliptic", "3", "--cusp", "2,3"], capsys)
    assert "is required" in refused(["graph"], capsys)
    assert "is required" in refused(["verify"], capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--cusp", "2,3", "--json", "--dot"],
        ["openbook", "--cusp", "3", "--dot"],
        ["inv", "--cusp", "2,3", "--euler", "--d3"],
        ["graph"],
        ["verify"],
        ["graph", "--elliptic", "3", "--cusp", "2,3"],
        ["verify", "--suite", "--cusp", "2,3"],
        # no flag may be abbreviated, so each has one spelling
        ["factor", "--mat", "-5,2,-3,1"],
        ["graph", "--ell", "3"],
    ],
    ids=" ".join,
)
def test_flag_rules_exit_1_with_empty_stdout(argv, capsys):
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ": error: " in captured.err


@pytest.mark.parametrize(
    "argv, same",
    [
        (["inv", "--cusp", "2,3,4", "--json"], ["invariants", "--cusp", "2,3,4", "--json"]),
        (["inv", "--elliptic", "2", "--d3"], ["invariants", "--elliptic", "2", "--d3"]),
        (["canonical", "--elliptic", "3", "--canonical", "max"],
         ["canonical", "--elliptic", "3", "--sign", "max"]),
        (["inv", "--cusp", "2,3", "--euler", "--canonical", "min"],
         ["inv", "--cusp", "2,3", "--euler", "--sign", "min"]),
        (["graph", "--cusp", "2,2,3", "--dot"], ["graph", "--cusp", "2,2,3"]),
    ],
    ids=" ".join,
)
def test_spellings_of_one_request_print_the_same_bytes(argv, same):
    assert run_cli(argv) == run_cli(same)


SUBCOMMANDS = [
    "classify", "factor", "graph", "openbook", "surgery", "enumerate", "canonical",
    "invariants", "inv", "verify",
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_exits_0(command, capsys):
    assert main([command, "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: singlink {command}")


def test_parse_same_argv_twice_gives_equal_requests():
    args = ["invariants", "--cusp", "2,3,4", "--sign", "min", "--json"]
    assert parse_args(args) == parse_args(args)


def test_bad_argv_exits_1_after_a_good_parse():
    parse_args(["classify", "--matrix", "5,-2,3,-1"])
    assert main(["classify", "--matrix"]) == EXIT_INVALID
    assert main(["classify", "--matrix", "5,-2,3,-1", "--bogus"]) == EXIT_INVALID


@pytest.mark.parametrize("command", ["classify", "factor"])
def test_negative_leading_matrix_entry(command):
    spaced = parse_args([command, "--matrix", "-5,2,-3,1"])
    attached = parse_args([command, "--matrix=-5,2,-3,1"])
    assert spaced == attached
    assert spaced.matrix == Sl2Matrix(-5, 2, -3, 1)
    out = run_cli([command, "--matrix", "-1,1,-5,4", "--json"])
    assert out == run_cli([command, "--matrix=-1,1,-5,4", "--json"])
    assert out[0] == EXIT_OK


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as info:
        parse_args(["frobnicate"])
    assert info.value.code == EXIT_INVALID


def test_classify_output():
    for matrix, kind, trace, cusp, elliptic in (
        ("5,-2,3,-1", "hyperbolic", 4, True, False),
        ("1,0,0,1", "parabolic", 2, False, False),  # the 3-torus
        ("1,-3,0,1", "parabolic", 2, False, False),
        ("1,0,3,1", "parabolic", 2, False, False),
        ("1,3,0,1", "parabolic", 2, False, True),  # Elliptic(3)
        ("1,0,-3,1", "parabolic", 2, False, True),
        ("-1,3,0,-1", "parabolic", -2, False, False),
    ):
        code, payload = run_cli(["classify", f"--matrix={matrix}", "--json"])
        assert code == EXIT_OK
        assert json.loads(payload) == {
            "class": kind,
            "trace": trace,
            "is_cusp_link": cusp,
            "is_elliptic_link": elliptic,
        }, matrix


def test_factor_output():
    code, payload = run_cli(["factor", "--matrix", "5,-2,3,-1", "--json"])
    assert code == EXIT_OK and json.loads(payload) == [2, 3]
    code, payload = run_cli(["factor", "--matrix", "5,-2,3,-1"])
    assert payload == b"(2, 3)\n"


def test_factor_takes_a_long_run_of_twos_before_the_period():
    # M(2)^100010 M(3) M(2)^-100010: its expansion opens with about 100,010
    # entries 2, which do not count against the 100,000-entry period limit
    argv = ["factor", "--matrix", "-10002000097,10002100109,-10001900089,10002000100"]
    assert run_cli(argv) == (EXIT_OK, b"(3)\n")


def test_factor_rejects_parabolic():
    assert main(["factor", "--matrix", "1,1,0,1"]) == EXIT_INVALID


def test_factor_refuses_long_period(capsys):
    assert main(["factor", "--matrix", "10000000000,1,-1,0"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("singlink: error: ")
    assert "exceeds the limit of 100,000 entries" in captured.err


def test_huge_cusp_entry_gets_an_exit_code(capsys):
    huge = "9" * 25
    assert main(["inv", "--cusp", f"3,{huge}", "--d3", "--json"]) == EXIT_UNSUPPORTED
    assert main(["inv", "--cusp", f"3,{huge}", "--euler", "--json"]) == EXIT_OK
    assert main(["canonical", "--cusp", f"3,{huge}", "--json"]) == EXIT_OK
    # its open book is over the boundary limit, but the Euler class needs none
    assert main(["inv", "--elliptic", huge, "--euler", "--json"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate", "openbook", "verify"])
@pytest.mark.parametrize("flag, value", [("--cusp", "3," + "9" * 25), ("--elliptic", "9" * 25)])
def test_huge_family_is_refused_by_a_size_limit(command, flag, value, capsys):
    assert main([command, flag, value, "--json"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("singlink: error: ")
    if command == "enumerate":
        assert "Stein diagrams than the limit of 100,000" in captured.err
    else:
        assert "boundary components than the limit of 1,000" in captured.err


# 1,001 entries: one boundary component and two Stein diagrams, but a
# plumbing graph with more vertices than plumbing.VERTEX_LIMIT
LONG_WORD = ",".join(["2"] * 1000 + ["3"])


@pytest.mark.parametrize("command", ["inv", "verify", "surgery"])
def test_long_cusp_word_is_refused_by_the_vertex_limit(command, capsys):
    assert main([command, "--cusp", LONG_WORD, "--json"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("singlink: error: ")
    assert "vertices (1,001) than the limit of 1,000" in captured.err


@pytest.mark.parametrize("command", ["graph", "openbook"])
def test_long_cusp_word_still_gets_its_graph_and_openbook(command):
    code, payload = run_cli([command, "--cusp", LONG_WORD, "--json"])
    assert code == EXIT_OK and payload.endswith(b"\n")


def test_verify_suite_json_lists_failures(monkeypatch):
    code, payload = run_cli(["verify", "--suite", "--json"])
    assert code == EXIT_OK
    assert json.loads(payload) == {"passed": True, "families": 346, "failures": []}
    # make the two canonical d3 values of elliptic(3) differ
    d3_invariants = invariants.FamilyReduction.d3_invariants

    def broken(self, classes):
        if self.family == Elliptic(3):
            return tuple(Fraction(sum(y)) for _, y in classes)
        return d3_invariants(self, classes)

    monkeypatch.setattr(invariants.FamilyReduction, "d3_invariants", broken)
    code, payload = run_cli(["verify", "--suite", "--json"])
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(payload) == {
        "passed": False,
        "families": 346,
        "failures": [{"family": "elliptic(3)", "checks": ["d3 computed for both signs"]}],
    }


def test_graph_dot_default():
    code, payload = run_cli(["graph", "--cusp", "2,2,3"])
    text = payload.decode()
    assert code == EXIT_OK
    assert text.startswith("graph plumbing {")
    assert text.count(" -- ") == 3
    assert text.count("label=") == 3


def test_graph_json():
    code, payload = run_cli(["graph", "--elliptic", "5", "--json"])
    data = json.loads(payload)
    assert data["vertices"] == [{"weight": -5, "genus": 1}]
    assert data["edges"] == []


def test_dot_unsupported_elsewhere():
    assert main(["enumerate", "--cusp", "2,2,3", "--dot"]) == EXIT_INVALID


def test_openbook_text_matches_notation():
    code, payload = run_cli(["openbook", "--cusp", "4"])
    assert payload.decode() == "D(δ0)·D(γ1)·D(γ2), page: genus 1, 2 boundary components\n"


def test_openbook_json_schema():
    code, payload = run_cli(["openbook", "--cusp", "2,2,3", "--json"])
    assert json.loads(payload) == {
        "boundaries": 1,
        "genus": 1,
        "word": ["delta0", "delta1", "delta2", "gamma3_1"],
    }


def test_enumerate_output():
    code, payload = run_cli(["enumerate", "--cusp", "2,2,3"])
    lines = payload.decode().splitlines()
    assert lines[0] == "count 2"
    assert lines[1] == "rot=(0, 0, -1) c1=(0, 0, -1)"
    assert lines[2] == "rot=(0, 0, 1) c1=(0, 0, 1)"

    code, payload = run_cli(["enumerate", "--elliptic", "3", "--json"])
    data = json.loads(payload)
    assert data["count"] == 4
    assert [f["rot"] for f in data["fillings"]] == [[-3], [-1], [1], [3]]
    assert [f["c1"] for f in data["fillings"]] == [[-3], [-1], [1], [3]]


def test_canonical_output():
    code, payload = run_cli(["canonical", "--cusp", "2,2,3", "--json"])
    data = json.loads(payload)
    assert set(data) == {"min", "max"}
    assert data["min"]["defects"] == [0, 0, 0]
    assert data["min"]["is_canonical"] is True
    assert data["max"]["is_canonical"] is True
    assert [h["rot"] for h in data["min"]["handles"]] == [0, 0, -1]

    code, payload = run_cli(["canonical", "--elliptic", "5", "--sign", "min", "--json"])
    data = json.loads(payload)
    assert list(data) == ["min"]
    assert data["min"]["handles"][0]["rot"] == -5


def test_canonical_reads_the_handle_slots_three_times(monkeypatch):
    # canonical reads the family's slots once for the handles and the
    # adjunction defects of both signs, and canonical_filling once per sign
    handle_slots = Cusp.handle_slots
    calls = []
    monkeypatch.setattr(Cusp, "handle_slots", lambda f: calls.append(f) or handle_slots(f))
    for argv in (["canonical", "--cusp", "2,3,4"], ["canonical", "--cusp", "2,3,4", "--json"]):
        calls.clear()
        code, _ = run_cli(argv)
        assert code == EXIT_OK
        assert calls == [Cusp((2, 3, 4))] * 3, argv
    calls.clear()
    assert all(passed for _, passed in verify_family(Cusp((2, 3, 4, 5))))
    assert len(calls) == 4


def check_handle_json(family):
    """Each canonical diagram's handles from ``canonical --json`` are the
    handles of the ``enumerate --json`` entry at its rot vector, and both
    are the dicts written out here from the plumbing graph's slots."""
    canonical = json.loads(run_cli(["canonical", *family_argv(family), "--json"])[1])
    fillings = json.loads(run_cli(["enumerate", *family_argv(family), "--json"])[1])["fillings"]
    by_rot = {tuple(entry["rot"]): entry["handles"] for entry in fillings}
    slots = handle_slots_oracle(family)
    for sign, unit in (("min", 1), ("max", -1)):
        expected = [
            {"framing": f, "tb": f + 1, "rot": unit * (f - 2 * g + 2), "genus": g} for g, f in slots
        ]
        handles = canonical[sign]["handles"]
        assert handles == expected, (family, sign)
        assert by_rot[tuple(h["rot"] for h in handles)] == expected, (family, sign)


# an enumeration's JSON grows with its diagram count, so each example lists
# at most this many; the words still reach k = 6 and entries 9
HANDLE_JSON_DIAGRAMS = 4096


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 9), min_size=1, max_size=6)
    .filter(lambda e: max(e) >= 3)
    .map(lambda e: Cusp(tuple(e)))
    .filter(lambda family: family.filling_count <= HANDLE_JSON_DIAGRAMS)
)
def test_canonical_and_enumerate_write_the_same_handle_json(family):
    check_handle_json(family)


def test_canonical_and_enumerate_write_the_same_elliptic_handle_json():
    for n in range(1, 41):
        check_handle_json(Elliptic(n))


def test_invariants_euler_example():
    code, payload = run_cli(["invariants", "--cusp", "2,2,3", "--euler", "--sign", "min", "--json"])
    assert code == EXIT_OK
    assert json.loads(payload) == {"is_zero": True, "order": 1, "witness": [1, 1, 1]}
    # --canonical is an accepted spelling of --sign, and inv of invariants
    code2, payload2 = run_cli(["inv", "--cusp", "2,2,3", "--euler", "--canonical", "min", "--json"])
    assert payload2 == payload


def test_invariants_d3():
    code, payload = run_cli(["invariants", "--elliptic", "1", "--d3", "--json"])
    assert json.loads(payload) == {"min": {"num": 1, "den": 2}, "max": {"num": 1, "den": 2}}


def test_invariants_d3_on_cusp_exits_3(capsys):
    assert main(["invariants", "--cusp", "2,2,3", "--d3"]) == EXIT_UNSUPPORTED
    out, err = capsys.readouterr()
    assert out == ""
    reason = "d3 of cusp(2,2,3) waits for the resolution-graph cross-check"
    assert err == f"singlink: unsupported: {reason}\n"


def test_invariants_full_report():
    code, payload = run_cli(["invariants", "--cusp", "2,2,3", "--json"])
    data = json.loads(payload)
    assert data["homology"]["all_equal"] is True
    assert data["homology"]["plumbing"] == {"free_rank": 1, "torsion": [3]}
    assert data["euler"]["min"]["is_zero"] is True
    assert data["d3"] is None

    code, payload = run_cli(["invariants", "--elliptic", "2", "--json"])
    data = json.loads(payload)
    assert data["d3"]["min"] == {"num": 1, "den": 4}


def test_euler_witnesses_are_indexed_as_the_surgery_framings():
    # each printed witness has a 0 per genus 1-handle in front, so it has
    # one entry per surgery framing and the padded presentation maps it to
    # the canonical rot vector with 2 * genus zeros in front
    for family in suite_families():
        flag = family_argv(family)
        _, surgery = run_cli(["surgery", *flag, "--json"])
        framings = json.loads(surgery)["framings"]
        _, report = run_cli(["inv", *flag, "--json"])
        euler = json.loads(report)["euler"]
        _, alone = run_cli(["inv", *flag, "--euler", "--json"])
        assert json.loads(alone) == euler, family
        q = presentation_oracle(family)
        zeros = (0,) * (2 * family.graph().total_genus())
        for sign in ("min", "max"):
            w = euler[sign]["witness"]
            assert len(w) == len(framings), (family, sign)
            rot = canonical_filling(family, sign)
            assert mat_vec(q, w) == zeros + rot, (family, sign)


def test_verify_single_family():
    code, payload = run_cli(["verify", "--elliptic", "5"])
    assert code == EXIT_OK
    assert payload.decode().splitlines()[-1] == "passed"
    code, payload = run_cli(["verify", "--cusp", "3,3", "--json"])
    data = json.loads(payload)
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_emit_behaviour():
    assert emit("json", {"b": 1, "a": 2}) == b'{"a": 2, "b": 1}\n'
    assert emit("text", "hello") == b"hello\n"
    assert emit("text", "") == b""
    assert emit("json", None) == b""
    with pytest.raises(ValueError):
        emit("yaml", {"a": 1})


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x2FFFF)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200)
@given(st.lists(JSON_VALUES, max_size=4) | st.dictionaries(st.text(), JSON_VALUES, max_size=4))
def test_emit_json_is_json_dumps_with_sorted_keys(payload):
    # emit keeps one encoder for every call; it must print what a fresh
    # json.dumps(payload, sort_keys=True) prints, byte for byte
    expected = (json.dumps(payload, sort_keys=True) + "\n").encode()
    assert emit("json", payload) == expected


def test_emit_json_on_a_fixed_nested_payload():
    payload = {
        "z": [None, True, False, 2**64 + 1, -(2**70)],
        "é": {"b": "γ1", "a": ["δ0", {"y": 1, "x": "ü"}]},
        "a": {"m": None, "c": {"k": 3, "j": False}},
    }
    expected = (json.dumps(payload, sort_keys=True) + "\n").encode()
    assert emit("json", payload) == expected
    assert expected.startswith(b'{"a": {"c": {"j": false, "k": 3}, "m": null}')
    assert b"18446744073709551617" in expected and b"\\u03b3" in expected


def test_run_is_deterministic_in_process():
    for args in [
        ["enumerate", "--cusp", "2,3,4", "--json"],
        ["invariants", "--elliptic", "4", "--json"],
        ["graph", "--cusp", "5"],
        ["verify", "--cusp", "4,4"],
    ]:
        assert run_cli(args) == run_cli(args)


def child_env() -> dict:
    """The environment of a fresh interpreter that imports the package from
    wherever this process found it."""
    src = str(Path(singlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_subprocess_deterministic():
    cmd = [sys.executable, "-m", "singlink", "enumerate", "--cusp", "2,2,3", "--json"]
    env = child_env()
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["count"] == 2


# cold start: a subcommand loads only the modules its handler runs
LOADED_BY_CLI = {
    "singlink", "singlink._record", "singlink.cli", "singlink.families", "singlink.sl2z"
}
# the child runs main, then prints the modules it holds as its last stderr line
REPORT_MODULES = """
import json, sys
from singlink.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def loaded_modules(argv, *python_flags) -> tuple[int, set[str], str, str]:
    """main(argv) in a fresh interpreter: its exit code, the modules it then
    holds, its stdout and its stderr before the report."""
    done = subprocess.run(
        [sys.executable, *python_flags, "-c", REPORT_MODULES, *argv],
        capture_output=True,
        env=child_env(),
        text=True,
    )
    assert done.returncode == 0, done.stderr
    *err, report = done.stderr.splitlines(keepends=True)
    code, names = json.loads(report)
    return code, set(names), done.stdout, "".join(err)


@pytest.mark.parametrize(
    "argv, code, extra",
    [
        (["classify", "--matrix", "5,-2,3,-1"], EXIT_OK, set()),
        (["factor", "--matrix", "5,-2,3,-1", "--json"], EXIT_OK, set()),
        (["graph", "--cusp", "2,3,4"], EXIT_OK, {"plumbing"}),
        (["surgery", "--elliptic", "3"], EXIT_OK, {"plumbing"}),
        (["openbook", "--cusp", "2,3,4", "--json"], EXIT_OK, {"linalg", "openbook"}),
        (["enumerate", "--cusp", "2,3,4"], EXIT_OK, {"legendrian"}),
        (["canonical", "--elliptic", "3"], EXIT_OK, {"legendrian"}),
        (["inv", "--cusp", "2,3,4", "--d3"], EXIT_UNSUPPORTED, set()),
    ],
    ids=["classify", "factor", "graph", "surgery", "openbook", "enumerate", "canonical",
         "cusp-d3-refusal"],
)
def test_light_subcommand_loads_only_its_modules(argv, code, extra, capsys):
    # the modules are read after main returns, so a handler's own imports count
    got, names, out, err = loaded_modules(argv)
    assert got == code
    assert {m for m in names if m.split(".")[0] == "singlink"} == LOADED_BY_CLI | {
        f"singlink.{m}" for m in extra
    }
    if code == EXIT_UNSUPPORTED:
        assert out == ""
        assert err.startswith("singlink: unsupported: d3 of cusp(2,3,4) waits for the")
    # the same call in this process, where every module is loaded, prints the same
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "argv, makes_fractions",
    [
        (["classify", "--matrix", "5,-2,3,-1"], False),
        (["factor", "--matrix", "5,-2,3,-1"], False),
        (["graph", "--cusp", "2,3,4"], False),
        (["openbook", "--cusp", "2,3,4"], False),
        (["surgery", "--elliptic", "3"], False),
        (["enumerate", "--cusp", "2,3,4"], False),
        (["canonical", "--elliptic", "3"], False),
        (["inv", "--elliptic", "3", "--euler"], False),
        (["invariants", "--cusp", "2,3,4"], False),
        (["verify", "--cusp", "2,3,4"], False),
        (["invariants", "--elliptic", "3"], True),
        (["inv", "--elliptic", "3", "--d3"], True),
        (["verify", "--elliptic", "3"], True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_no_call_loads_dataclasses_and_only_rational_work_loads_fractions(
    argv, makes_fractions
):
    # -S: no site hook may load these modules before the package does
    code, names, _, _ = loaded_modules(argv, "-S")
    assert code == EXIT_OK
    assert "dataclasses" not in names
    assert "typing" not in names  # the package imports it nowhere
    assert ("fractions" in names) is makes_fractions


STDLIB_ONLY = """
import sys
before = set(sys.modules)
import json
from singlink.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(set(sys.modules) - before)
print(json.dumps([codes, loaded]), file=sys.stderr)
"""


def test_the_package_loads_only_the_standard_library():
    # site is on, so a third-party module that an import falls back from
    # quietly would show; the -S tests above cannot see one
    argvs = [
        ["verify", "--suite"],
        ["enumerate", "--cusp", "2,3,4", "--json"],
        ["inv", "--elliptic", "3"],
        ["canonical", "--elliptic", "3", "--json"],
        ["factor", "--matrix", "5,-2,3,-1"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY, json.dumps(argvs)],
        capture_output=True,
        env=child_env(),
        text=True,
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stderr.splitlines()[-1])
    assert codes == [EXIT_OK] * len(argvs)
    assert "singlink.verify" in loaded and "singlink.legendrian" in loaded
    outside = [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names | {"singlink"}]
    assert outside == []


def _imports(code: types.CodeType) -> list[str]:
    """The modules an import statement in the code object, or in one nested
    in it, names."""
    names = [i.argval for i in dis.get_instructions(code) if i.opname == "IMPORT_NAME"]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names += _imports(const)
    return names


def test_no_import_statement_runs_on_a_per_family_path():
    # an import statement in a function costs about 1 us a call, so the
    # functions verify runs once or more per family import nothing when they
    # run; their modules import what they need when they are loaded.  Exempt:
    # FamilyReduction.d3_invariants imports fractions after the cusp refusal,
    # so only the 10 elliptic families of the suite run that import, and a
    # call that never makes a Fraction never loads the module
    for fn in (
        verify_family,
        openbook.openbook_homology,
        invariants.FamilyReduction.__init__,
        invariants.FamilyReduction.homology,
        invariants.FamilyReduction.euler_classes,
        legendrian.filling_rot_vectors,
        legendrian.canonical_filling,
        legendrian.adjunction_vector,
    ):
        assert _imports(fn.__code__) == [], fn.__qualname__
    assert _imports(invariants.FamilyReduction.d3_invariants.__code__) == ["fractions"]


def test_full_report_reduces_a_cusp_presentation_once(monkeypatch):
    # Q is read off the plumbing graph for both families, so the plumbing
    # H_1, both Euler classes and both elliptic d3 values share its one
    # reduction, and Q's row log is replayed once per canonical vector;
    # A - I and the open-book presentation go to the minors
    reduce = SnfResult.reduce
    replays = []
    monkeypatch.setattr(SnfResult, "reduce", lambda snf, v: replays.append(v) or reduce(snf, v))
    for argv, shapes, minors in (
        (["inv", "--cusp", "2,3,4", "--json"], [(3, 3)], [(2, 2), (3, 2)]),
        (["inv", "--elliptic", "3", "--json"], [(1, 1)], [(2, 2), (3, 1)]),
    ):
        replays.clear()
        with counted_snf() as calls, counted_linalg("two_column_cokernel") as small:
            code, _ = run_cli(argv)
        assert code == EXIT_OK
        assert [(len(m), len(m[0])) for m in calls] == shapes, argv
        assert [(len(m), len(m[0])) for m in small] == minors, argv
        assert len(replays) == 2, argv


def test_d3_call_reduces_q_once_and_takes_one_signature(capsys):
    # both canonical d3 values come from one reduction of Q and one signature;
    # a cusp is refused before Q is reduced, at any length
    for argv, code, shapes, signatures in (
        (["inv", "--elliptic", "3", "--d3"], EXIT_OK, [(1, 1)], 1),
        (["inv", "--cusp", "2,3,4", "--d3"], EXIT_UNSUPPORTED, [], 0),
        (["inv", "--cusp", ",".join(["3"] * 1000), "--d3"], EXIT_UNSUPPORTED, [], 0),
    ):
        with counted_snf() as snfs, counted_linalg("symmetric_signature") as sigmas:
            assert main(argv) == code, argv
        assert [(len(m), len(m[0])) for m in snfs] == shapes, argv
        assert len(sigmas) == signatures, argv
    capsys.readouterr()


def test_no_subcommand_calls_determinant(capsys):
    # verify reads |det Q| off Q's Smith normal form; no handler takes a
    # dense determinant
    matrix = ["--matrix", "3,-1,1,0"]
    with counted_linalg("determinant") as calls:
        for command in ("classify", "factor"):
            assert main([command, *matrix]) == EXIT_OK, command
        commands = ("graph", "openbook", "surgery", "enumerate", "canonical", "inv", "verify")
        for family in (["--cusp", "2,3,4"], ["--elliptic", "3"]):
            for command in commands:
                assert main([command, *family, "--json"]) == EXIT_OK, (command, family)
    assert calls == []
    capsys.readouterr()


def test_json_outputs_are_sorted_and_newline_terminated():
    for args in [
        ["classify", "--matrix", "5,-2,3,-1", "--json"],
        ["openbook", "--elliptic", "2", "--json"],
        ["invariants", "--cusp", "2,3", "--json"],
    ]:
        _, payload = run_cli(args)
        text = payload.decode()
        assert text.endswith("\n")
        assert json.dumps(json.loads(text), sort_keys=True) + "\n" == text


# argv fuzzing: every command, flag and a fixed set of awkward tokens
FUZZ_COMMANDS = {  # each command with the flags it accepts besides --json and --dot
    "classify": ["--matrix"],
    "factor": ["--matrix"],
    "graph": ["--elliptic", "--cusp"],
    "openbook": ["--elliptic", "--cusp"],
    "surgery": ["--elliptic", "--cusp"],
    "enumerate": ["--elliptic", "--cusp"],
    "canonical": ["--elliptic", "--cusp", "--sign", "--canonical"],
    "invariants": ["--elliptic", "--cusp", "--sign", "--canonical", "--euler", "--d3"],
    "inv": ["--elliptic", "--cusp", "--sign", "--canonical", "--euler", "--d3"],
    "verify": ["--elliptic", "--cusp", "--suite"],
}
FUZZ_VALUES = {  # well-formed values, drawn as often as all the tokens together
    "--elliptic": ["1", "2", "5"],
    "--cusp": ["3", "5", "2,3", "3,4,5"],
    "--matrix": ["5,-2,3,-1", "-5,2,-3,1", "1,1,0,1"],
    "--sign": ["min", "max"],
    "--canonical": ["min", "max"],
}
FUZZ_TOKENS = [
    "0", "1", "2", "3", "5", "-1", "-3", "", ",", "2,,3", "1.5", "a", "-",
    "2,3", "3,4,5", "2,2", "min", "max", "5,-2,3,-1", "1,1,0,1", "-5,2,-3,1", "1,2,3",
]
HUGE = "1" + "0" * 24  # 25 digits


def _fuzz_words(flag):
    if flag not in FUZZ_VALUES:
        return st.just([flag])
    values = st.sampled_from(FUZZ_VALUES[flag]) | st.sampled_from(FUZZ_TOKENS)
    return values.map(lambda value: [flag, value])


@st.composite
def fuzz_argv(draw):
    """A command with some of its own flags, plus any flag or token; no --suite."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    own = st.sampled_from(FUZZ_COMMANDS[command] + ["--json", "--dot"])
    every = st.sampled_from(sorted({f for fs in FUZZ_COMMANDS.values() for f in fs} | {"--dot"}))
    stray = st.sampled_from(FUZZ_TOKENS).map(lambda token: [token])
    items = draw(st.lists(own.flatmap(_fuzz_words), min_size=1, max_size=3))
    items += draw(st.lists(every.flatmap(_fuzz_words) | stray, max_size=1))
    items = draw(st.permutations(items))
    return [command] + [word for words in items for word in words]


@st.composite
def huge_argv(draw):
    """25-digit family parameters, and for the commands that build the
    plumbing form a word longer than its vertex limit: answered where their
    cost does not grow with them, refused by a size limit where it would."""
    head = draw(
        st.sampled_from(
            [
                ["canonical"],
                ["inv", "--euler"],
                ["inv", "--d3"],
                ["enumerate"],
                ["openbook"],
                ["verify"],
                ["surgery"],
            ]
        )
    )
    values = [HUGE, f"3,{HUGE}", f"{HUGE},2", f"2,{HUGE},4"]
    if head[0] in ("inv", "verify", "surgery"):
        values.append(LONG_WORD)
    value = draw(st.sampled_from(values))
    items = [head[1:], [draw(st.sampled_from(["--elliptic", "--cusp"])), value]]
    items.append(draw(st.sampled_from([[], ["--json"]])))
    if head[0] in ("canonical", "inv"):
        items.append(draw(st.sampled_from([[], ["--sign", "min"], ["--canonical", "max"]])))
    items.append(draw(st.sampled_from([[], [], ["--dot"], ["--d3"], ["--euler"], ["max"]])))
    items = draw(st.permutations(items))
    return head[:1] + [word for words in items for word in words]


def _run_main(argv):
    out = io.TextIOWrapper(io.BytesIO())
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_fuzzed_argv_exits_with_a_code(argv):
    assert _run_main(argv) in (EXIT_OK, EXIT_INVALID, EXIT_VERIFY_FAILED, EXIT_UNSUPPORTED)


@settings(max_examples=100, deadline=None)
@given(huge_argv())
def test_fuzzed_huge_parameters_exit_with_a_code(argv):
    assert _run_main(argv) in (EXIT_OK, EXIT_INVALID, EXIT_VERIFY_FAILED, EXIT_UNSUPPORTED)
