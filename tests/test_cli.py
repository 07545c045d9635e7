import json
import subprocess
import sys
from pathlib import Path

import pytest

from torusrep.cli import main
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


def test_not_generic_exit_code(capsys):
    code = main(["verify-duality", "--N", "2", "--ell", "2", "--q", "2",
                 "--a", "3,6", "--n-max", "1"])
    assert code == 3
    assert "q^1" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_parameter_length_mismatch_is_usage_error(capsys):
    code = main(["verify-duality", "--N", "2", "--ell", "2", "--q", "2",
                 "--a", "3", "--n-max", "1"])
    assert code == 2
    assert "parameters" in capsys.readouterr().err


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
    ["dims", "--N", "2", "--ell", "1", "--n", "-1"],
    ["dims", "--N", "0", "--ell", "1", "--n", "1"],
    ["dims", "--N", "2", "--ell", "0", "--n", "1"],
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
