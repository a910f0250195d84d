import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singlink
from singlink import invariants
from singlink.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY_FAILED,
    CliRequest,
    emit,
    main,
    parse_args,
    run,
)
from singlink.families import Cusp, Elliptic


def run_cli(args):
    request = parse_args(args)
    return run(request)


def test_parse_classify():
    request = parse_args(["classify", "--matrix", "5,-2,3,-1"])
    assert request.command == "classify"
    assert request.matrix.rows() == ((5, -2), (3, -1))


def test_parse_enumerate_json():
    request = parse_args(["enumerate", "--cusp", "2,2,3", "--json"])
    assert request.command == "enumerate"
    assert request.family == Cusp((2, 2, 3))
    assert request.fmt == "json"


def test_parse_rejects_invalid_cycle_word():
    with pytest.raises(ValueError, match=">= 3"):
        parse_args(["enumerate", "--cusp", "2,2"])
    assert main(["enumerate", "--cusp", "2,2"]) == EXIT_INVALID


def test_parse_rejects_bad_matrix():
    with pytest.raises(ValueError):
        parse_args(["classify", "--matrix", "1,2,3"])
    with pytest.raises(ValueError, match="determinant"):
        parse_args(["classify", "--matrix", "1,0,0,2"])


def test_parse_requires_exactly_one_family():
    with pytest.raises(ValueError, match="exactly one"):
        parse_args(["graph", "--elliptic", "3", "--cusp", "2,3"])
    with pytest.raises(ValueError, match="needs"):
        parse_args(["graph"])
    with pytest.raises(ValueError, match="needs"):
        parse_args(["verify"])


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
    assert spaced.matrix.rows() == ((-5, 2), (-3, 1))
    out = run_cli([command, "--matrix", "-1,1,-5,4", "--json"])
    assert out == run_cli([command, "--matrix=-1,1,-5,4", "--json"])
    assert out[0] == EXIT_OK


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as info:
        parse_args(["frobnicate"])
    assert info.value.code == EXIT_INVALID


def test_classify_output():
    code, payload = run_cli(["classify", "--matrix", "5,-2,3,-1", "--json"])
    assert code == EXIT_OK
    data = json.loads(payload)
    assert data == {
        "class": "hyperbolic",
        "trace": 4,
        "is_cusp_link": True,
        "is_elliptic_link": False,
    }


def test_factor_output():
    code, payload = run_cli(["factor", "--matrix", "5,-2,3,-1", "--json"])
    assert code == EXIT_OK and json.loads(payload) == [2, 3]
    code, payload = run_cli(["factor", "--matrix", "5,-2,3,-1"])
    assert payload == b"(2, 3)\n"


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
    d3 = invariants.d3_invariant

    def broken(diagram):
        if diagram.family == Elliptic(3):
            return Fraction(sum(diagram.rot_vector))
        return d3(diagram)

    monkeypatch.setattr(invariants, "d3_invariant", broken)
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


def test_invariants_d3_on_cusp_exits_3():
    assert main(["invariants", "--cusp", "2,2,3", "--d3"]) == EXIT_UNSUPPORTED


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


def test_run_is_deterministic_in_process():
    for args in [
        ["enumerate", "--cusp", "2,3,4", "--json"],
        ["invariants", "--elliptic", "4", "--json"],
        ["graph", "--cusp", "5"],
        ["verify", "--cusp", "4,4"],
    ]:
        assert run_cli(args) == run_cli(args)


def test_cli_subprocess_deterministic():
    cmd = [sys.executable, "-m", "singlink", "enumerate", "--cusp", "2,2,3", "--json"]
    # the child imports the package from wherever this process found it
    src = str(Path(singlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["count"] == 2


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
    "verify": ["--elliptic", "--cusp"],
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
