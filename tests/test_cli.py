import argparse
import io
import json
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torusrep.cli import BRANCH_FLAGS, build_parser, main
from torusrep.reports import DecompositionReport

PKG = Path(__file__).resolve().parents[1]


def run_cli(*args, capsys=None):
    code = main(list(args))
    return code


def test_dims(capsys):
    assert main(["dims", "--N", "2", "--ell", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_verify_duality_exit_zero(capsys):
    code = main(["verify-duality", "--N", "2", "--ell", "1", "--q", "2",
                 "--a", "3", "--n-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["degrees"][0]["table"]["(1)"] == [2, 1]
    assert data["degrees"][0]["lhs"] == 4


def test_main_calls_in_sequence_match_lone_calls(capsys):
    # the parser is built once per process: a usage error, a passing suite
    # and a second subcommand on its defaults, called in sequence, each
    # give the exit code and bytes of the same call on a fresh parser
    argvs = [["dims", "--N", "2"],
             ["verify-hw", "--N", "2", "--ell", "2", "--a", "3,3", "--mu-bound", "1"],
             ["verify-duality"]]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in argvs:
        build_parser.cache_clear()
        alone.append(run(argv))
    build_parser.cache_clear()
    assert [run(argv) for argv in argvs] == alone
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [2, 0, 0]


def test_not_generic_exit_code(capsys):
    code = main(["verify-duality", "--N", "2", "--ell", "2", "--q", "2",
                 "--a", "3,6", "--n-max", "1"])
    assert code == 3
    assert "q^1" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_parameter_length_mismatch_is_usage_error(capsys):
    # --ell and --ellp state the lengths of --a and --b; the CLI checks them
    code = main(["verify-duality", "--N", "2", "--ell", "2", "--q", "2",
                 "--a", "3", "--n-max", "1"])
    assert code == 2
    assert "need 2 parameters, got 1" in capsys.readouterr().err
    assert main(["verify-tensor", "--ellp", "2", "--b", "3,5,7"]) == 2
    assert "need 2 parameters, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-hw", "--seed", "1"],
    ["verify-nilpotency", "--seed", "1"],
    ["verify-duality", "--seed", "1"],
    ["verify-tensor", "--seed", "1"],
    ["verify-levi", "--seed", "1"],
    ["verify-levi", "--N", "3"],
], ids="-".join)
def test_unread_flag_is_usage_error(argv, capsys):
    # these suites draw nothing at random, and verify-levi takes its ranks
    # from --bfN: a flag the run would ignore is refused
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[1:]) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,unread", [
    (["--mode", "diag", "--I", "[[1,2]]", "--mus", "(1,0)", "--xi", "(9,9)"], "--xi"),
    (["--mode", "diag", "--I", "[[1,2]]", "--mus", "(1,0)", "--J", "[[1,2]]"], "--J"),
    (["--mode", "levi", "--I", "[[1],[2]]", "--xi", "(2,0)", "--mu", "(0)",
      "--nu", "(0)", "--mus", "(1,0)"], "--nu --mus"),
    (["--mode", "tensor", "--I", "[[1],[2]]", "--mu", "(1)", "--nu", "(1)",
      "--xi", "(2,0)"], "--xi"),
], ids=["diag-xi", "diag-J", "levi-nu-mus", "tensor-xi"])
def test_flag_unread_by_the_branch_mode_is_usage_error(argv, unread, capsys):
    # diag reads --I and --mus, levi --I, --J, --xi and --mu, tensor --I,
    # --J, --mu and --nu: another flag is refused, not ignored
    assert main(["branch"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--mode {argv[1]} does not read {unread}" in captured.err
    assert "Traceback" not in captured.err


def _subparsers():
    """The parser of each subcommand, by name."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# Small bounds for a fast run of every verify-* subcommand.
QUICK = {
    "verify-bracket": ["--trials", "1"],
    "verify-theta": ["--trials", "2"],
    "verify-module": ["--trials", "1", "--deg-max", "0"],
    "verify-hw": ["--mu-bound", "0"],
    "verify-nilpotency": ["--deg-max", "0"],
    "verify-duality": ["--n-max", "0"],
    "verify-tensor": ["--n-max", "0"],
    "verify-levi": ["--n-max", "0"],
    "verify-lattice": ["--n-max", "0", "--trials", "1"],
}
# Flags that choose where and how the report is written, and --skip-hw,
# which only drops checks.
NOT_IN_CONFIG = {"output", "format", "skip_hw"}


@pytest.mark.parametrize("command", sorted(c for c in _subparsers()
                                            if c.startswith("verify-")))
def test_every_flag_is_recorded_in_the_config(command, capsys):
    # a flag the report config does not name is an input the run ignores
    flags = {a.dest for a in _subparsers()[command]._actions
             if a.option_strings and a.dest != "help"}
    assert main([command] + QUICK[command]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert sorted(flags - NOT_IN_CONFIG - set(config)) == []


@pytest.mark.parametrize("command", ["verify-duality", "verify-tensor",
                                     "verify-levi", "verify-lattice"])
def test_negative_n_max_is_usage_error(command, capsys):
    # a negative degree bound leaves no degree to check
    assert main([command, "--n-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-max" in captured.err


@pytest.mark.parametrize("command,flag,value", [
    ("verify-module", "--deg-max", "-1"),
    ("verify-nilpotency", "--deg-max", "-1"),
    ("verify-hw", "--mu-bound", "-1"),
    ("verify-module", "--trials", "0"),
    ("verify-bracket", "--trials", "0"),
    ("verify-theta", "--trials", "0"),
    ("verify-lattice", "--trials", "0"),
    ("verify-module", "--max-exp", "-1"),
    ("verify-bracket", "--max-exp", "-1"),
    ("verify-theta", "--max-exp", "-1"),
])
def test_empty_check_bound_is_usage_error(command, flag, value, capsys):
    # each bound leaves a check empty (or, for --max-exp, no element to draw)
    assert main([command, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-theta", "--trials", "1"],
    ["verify-theta", "--N", "2", "--q", "2", "--trials", "2", "--seed", "88"],
], ids=" ".join)
def test_empty_central_instance_check_is_usage_error(argv, capsys):
    # the central-instance loop makes trials // 2 draws and skips the draws
    # with (i - j, m0, m1) = 0: here it checks no pair at all
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no central-instance pair" in captured.err


# The smallest value each bound accepts.
SMALLEST = {"trials": "1", "n_max": "0", "deg_max": "0", "mu_bound": "0",
            "max_exp": "0"}


@pytest.mark.parametrize("command", sorted(c for c in _subparsers()
                                            if c.startswith("verify-")))
def test_smallest_bounds_leave_no_case_empty(command, capsys):
    # at its smallest accepted bounds a suite refuses the run (exit 2) or
    # passes with a nonzero total in every case: no passing report holds an
    # empty check
    dests = {a.dest for a in _subparsers()[command]._actions}
    argv = [command]
    for dest, value in SMALLEST.items():
        if dest in dests:
            argv += ["--" + dest.replace("_", "-"), value]
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2), argv
    if code == 0:
        cases = json.loads(out)["degrees"]
        assert cases and all(case["rhs"] for case in cases), argv


@pytest.mark.parametrize("argv", [
    ["verify-bracket", "--q", "1"],
    ["verify-bracket", "--q", "0"],
    ["verify-bracket", "--N", "1"],
    ["verify-theta", "--q", "-1"],
    ["verify-theta", "--N", "1"],
    ["verify-duality", "--a", "1/0"],
    ["verify-bracket", "--q", "1/0"],
    ["branch", "--mode", "levi", "--I", "[[1],[3]]", "--xi", "(1,0)",
     "--mu", "(0)"],
    ["branch", "--mode", "levi", "--I", "[[1],[2]]", "--xi", "(1,x)",
     "--mu", "(0)"],
    ["branch", "--mode", "diag", "--I", "[[1,2]", "--mus", "(1,0)"],
    ["branch", "--mode", "diag", "--I", "[[1,2]]", "--mus", "(1,0);(x)"],
    ["dims", "--N", "2", "--ell", "1", "--n", "-1"],
    ["dims", "--N", "0", "--ell", "1", "--n", "1"],
    ["dims", "--N", "2", "--ell", "0", "--n", "1"],
    ["verify-duality", "--ell", "0", "--a="],
    ["verify-module", "--ell", "0", "--a=", "--trials", "1", "--deg-max", "0"],
    ["verify-hw", "--ell", "0", "--a="],
    ["verify-nilpotency", "--ell", "0", "--a="],
    ["verify-tensor", "--ellp", "0", "--b="],
    ["verify-levi", "--bfN", "0,2", "--n-max", "1"],
    ["verify-lattice", "--M0", "-1"],
    ["branch", "--mode", "levi", "--I", "[[1,2]]", "--J", "[[1],[2]]",
     "--xi", "(1,0)", "--mu", "()"],
    # --mu and --nu together carry one entry per --I index, and --J
    # partitions the --I indices into unions of --I blocks
    ["branch", "--mode", "tensor", "--I", "[[1],[2]]", "--mu", "(1)",
     "--nu", "(1,2)"],
    ["branch", "--mode", "tensor", "--I", "[[1],[2]]", "--mu", "(1,2)",
     "--nu", "(1)"],
    ["branch", "--mode", "tensor", "--I", "[[1],[2]]", "--mu", "(1)",
     "--nu", "()"],
    ["branch", "--mode", "tensor", "--I", "[[1],[2],[3]]", "--mu", "(1)",
     "--nu", "(1)"],
    ["branch", "--mode", "tensor", "--I", "[[1],[2]]", "--J", "[[1],[2],[3]]",
     "--mu", "(1)", "--nu", "(1)"],
    ["branch", "--mode", "levi", "--I", "[[1],[2]]", "--J", "[[1,2,3]]",
     "--xi", "(1,0,0)", "--mu", "(0)"],
    # the square vanishes at level one only
    ["verify-nilpotency", "--ell", "2", "--a", "3,5", "--q", "2", "--deg-max", "0"],
    # a --J block holds at most one --I block on each side of the split
    ["branch", "--mode", "levi", "--I", "[[1],[2],[3]]", "--xi", "(2,1,0)",
     "--mu", "(0)"],
    ["branch", "--mode", "levi", "--I", "[[1],[2]]", "--xi", "(2,0)", "--mu", "()"],
])
def test_bad_input_is_usage_error(argv, capsys):
    # excluded parameters and malformed values: exit 2, never a traceback
    # or a silent pass
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_branch_tensor(capsys):
    code = main(["branch", "--mode", "tensor", "--I", "[[1],[2]]",
                 "--mu", "(1)", "--nu", "(1)"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degrees"][0]["table"] == {"(2,0)": 1, "(1,1)": 1}


def test_branch_rational_q_and_a(capsys):
    code = main(["verify-duality", "--N", "2", "--ell", "1", "--q", "5/2",
                 "--a", "3", "--n-max", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["q"] == "5/2"


def test_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["verify-bracket", "--N", "2", "--q", "2", "--trials",
                     "25", "--seed", "11", "--output", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_recorded(tmp_path):
    out = tmp_path / "r.json"
    main(["verify-module", "--N", "2", "--ell", "1", "--q", "2", "--a", "3",
          "--trials", "5", "--seed", "42", "--output", str(out)])
    data = json.loads(out.read_text())
    assert data["config"]["seed"] == 42


def test_tsv_format(capsys):
    code = main(["verify-duality", "--N", "2", "--ell", "1", "--q", "2",
                 "--a", "3", "--n-max", "0", "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("n\tkey\tlhs\trhs")
    assert "verdict\tpass" in out


def test_failing_report_maps_to_exit_one(capsys, tmp_path):
    # the emit path: a failing verdict must exit 1 and carry its witness
    from torusrep.cli import _emit

    class A:
        output = str(tmp_path / "w.json")
        format = "json"

    rep = DecompositionReport(config={"suite": "x"})
    rep.add_case(0, {"(1)": [1, 2]}, 1, 2)
    rep.fail({"degree": 0, "weight": "(1)", "lhs": 1, "rhs": 2})
    assert _emit(rep, A()) == 1
    data = json.loads((tmp_path / "w.json").read_text())
    assert data["verdict"] == "fail"
    assert data["witness"]["weight"] == "(1)"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "torusrep", "dims", "--N", "2", "--ell", "2",
         "--n", "0"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(PKG / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "16"


def test_verify_lattice_cli(capsys):
    code = main(["verify-lattice", "--N", "2", "--ell", "1", "--M0", "2",
                 "--M1", "1", "--q", "2", "--a", "3", "--n-max", "1",
                 "--trials", "30"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["refolded_a"] == ["3", "3/2"]
    assert data["config"]["refolded_q"] == "4"


# -- the exit-code contract on generated argv ---------------------------------

# Per flag: (values a run may take, values that are out of range or
# malformed).  The degree, trial and window bounds stay small, so every run is
# cheap.
N = (["2"], ["-1", "0", "1", "x"])
Q = (["2", "5/2", "-3"], ["1", "0", "-1", "1/0", "x"])
ELL = (["1", "2"], ["-1", "0", "x"])
A = (["3", "3,5", "3,3", "3,6", "7/2,-3"], ["", "0", "1/0", "x"])
SEED = (["0", "5"], ["x"])
TRIALS = (["1", "3"], ["-1", "0", "x"])
MAX_EXP = (["0", "2"], ["-1", "x"])
DEG_MAX = (["0"], ["-1", "x"])
N_MAX = (["0", "1"], ["-1", "x"])
# A flag the subcommand does not accept: given only as the broken flag, with
# a value other subcommands take.
REFUSED = ([], ["3"])
COMMON = dict(N=N, q=Q, ell=ELL, a=A)
# Per subcommand: the flags always given, and those that may be left at
# their default.
SUBCOMMANDS = {
    "verify-bracket": (dict(trials=TRIALS, max_exp=MAX_EXP),
                       dict(N=(["2", "3"], N[1]), q=Q, seed=SEED)),
    "verify-theta": (dict(trials=TRIALS, max_exp=MAX_EXP),
                     dict(N=(["2", "3"], N[1]), q=Q, seed=SEED)),
    "verify-module": (dict(trials=TRIALS, deg_max=DEG_MAX, max_exp=MAX_EXP),
                      dict(COMMON, seed=SEED)),
    "verify-hw": (dict(mu_bound=(["0", "1"], ["-1", "x"])), dict(COMMON, seed=REFUSED)),
    "verify-nilpotency": (dict(deg_max=DEG_MAX, ell=(["1"], ELL[1])),
                          dict(N=N, q=Q, a=A)),
    "verify-duality": (dict(n_max=N_MAX),
                       dict(COMMON, skip_hw=([None], ["x"]), seed=REFUSED)),
    "verify-tensor": (dict(n_max=N_MAX),
                      dict(COMMON, ellp=(["1"], ["-1", "0", "x"]), b=A, seed=REFUSED)),
    "verify-levi": (dict(n_max=N_MAX),
                    dict(COMMON, N=REFUSED, seed=REFUSED,
                         bfN=(["1,1", "2,1"], ["", "0,2", "1", "-1,3", "x"]))),
    "verify-lattice": (dict(n_max=N_MAX, trials=TRIALS, M0=(["1", "2"], ["-1", "0"]),
                            M1=(["1", "2"], ["-1", "0"])), dict(COMMON, seed=SEED)),
    "dims": (dict(N=N, ell=ELL, n=(["0", "2"], ["-1", "x"])), {}),
    "branch": (dict(mode=(["tensor", "levi", "diag"], ["x"]),
                    I=(["[[1],[2]]", "[[1,2]]"], ["[[1],[3]]", "[[1,2]", "[]"])),
               dict(J=(["[[1,2]]", "[[1],[2]]"], ["[[2]]"]),
                    mu=(["(1)", "(0)"], ["(1,x)", "()"]),
                    nu=(["(1)", "(-1)"], ["(x)"]),
                    xi=(["(1,0)", "(2,-1)", "(0,1)"], ["(1,x)"]),
                    mus=(["(1,0);(0,-1)", "(1,0)"], ["(1)", "", "(x)", "(1,0);(x)"]))),
}


@st.composite
def argvs(draw, command, broken):
    """The required flags, some optional ones and the flag `broken` (if not
    None); `broken` takes a bad value, every other flag a good one (None
    stands for a bare switch).  A flag without good values only ever comes
    as `broken`.  `branch` draws its optional flags only from those its
    drawn mode reads (`BRANCH_FLAGS`); it refuses the others, so they too
    come only as `broken`."""
    required, optional = SUBCOMMANDS[command]
    pools = dict(required, **optional)

    def value(name):
        good, bad = pools[name]
        return draw(st.sampled_from(bad if name == broken else good))

    values = {name: value(name) for name in required}
    reads = BRANCH_FLAGS.get(values["mode"], ()) if command == "branch" else optional
    for k, (good, _) in optional.items():
        if k == broken or (k in reads and good and draw(st.booleans())):
            values[k] = value(k)
    argv = [command]
    for name, v in values.items():
        flag = "--" + name.replace("_", "-")
        argv.append(flag if v is None else f"{flag}={v}")
    return argv


def _run_main(argv):
    """main(argv) as a process would run it: an uncaught exception prints a
    traceback to stderr and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command,broken", [
    (command, broken) for command, (required, optional) in sorted(SUBCOMMANDS.items())
    for broken in [None, *required, *optional]])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_argv_keeps_exit_code_contract(command, broken, data):
    code, out, err = _run_main(data.draw(argvs(command, broken)))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if command == "dims" or code not in (0, 1):
        return
    verdict = json.loads(out)["verdict"]
    assert (code == 1) == (verdict == "fail")
