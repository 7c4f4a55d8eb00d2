"""Command-line front end: exit codes and output shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import operad_forge
from operad_forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_single(capsys):
    code, out = run(capsys, "criterion", "Zin")
    assert code == 0
    assert "Zin: admits=true" in out


def test_criterion_all_json(capsys):
    code, out = run(capsys, "criterion", "all", "--json")
    assert code == 0
    reports = json.loads(out)
    verdicts = {r["name"]: r["admits"] for r in reports}
    assert verdicts["Bicom"] is True
    assert verdicts["PreLie"] is False


def test_manin_json(capsys):
    code, out = run(capsys, "manin", "Bicom", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["operad"] == "Bicom"
    assert len(payload["white_product_relations"]) == 12
    from operad_forge.arity3 import SINGLE, parse_element, s3_closure
    sym = [parse_element(t, SINGLE) for t in payload["symmetrized_relations"]]
    assert s3_closure(sym, SINGLE).dim == 6


def test_dims_csv(capsys):
    code, out = run(capsys, "dims", "Zin", "--max-n", "6", "--oracle-max", "4",
                    "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,grammar_count,formula,oracle_dim"
    assert lines[3] == "3,5,5,5"
    assert lines[6].startswith("6,132,132")


def test_normal_forms(capsys):
    code, out = run(capsys, "normal-forms", "Flex", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 7


def test_bijection_dump(capsys):
    code, out = run(capsys, "bijection", "Bicom", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 6
    assert ["x(x(1,1),1)", "EENN"] in rows


def test_confluence(capsys):
    code, out = run(capsys, "confluence", "Zin", "--max-arity", "6")
    assert code == 0
    assert "4 overlaps" in out and "all joinable" in out


def test_certify(capsys):
    code, out = run(capsys, "certify", "--max-n", "5", "--oracle-max", "4")
    assert code == 0
    assert "certify: PASS" in out
    # the criterion equivalence, one line per operad of the criterion table
    manin_lines = [l for l in out.splitlines() if l.startswith("manin ")]
    assert len(manin_lines) == 10 and all(l.endswith(" ok") for l in manin_lines)
    assert "manin Leib: sym(As o P) == R is false, admits=false ok" in manin_lines


def test_closed_pipe_exits_1_quietly():
    # the reader is gone before the command writes, so its first write
    # meets a closed pipe, as when `| head` has already exited
    env = {**os.environ, "PYTHONPATH": str(Path(operad_forge.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "operad_forge", "normal-forms", "Zin", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "NotAnOperad"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["normal-forms", "Zin", "0"], "argument n: must be at least 1, got 0"),
    (["bijection", "Zin", "0"], "argument n: must be at least 1, got 0"),
    (["confluence", "Zin", "--max-arity", "2"],
     "argument --max-arity: must be at least 3, got 2"),
    (["dims", "Zin", "--max-n", "-2"], "argument --max-n: must be at least 1, got -2"),
    (["certify", "--max-n", "0", "--oracle-max", "0"],
     "argument --max-n: must be at least 1, got 0"),
    (["dims", "Zin", "--max-n", "4", "--oracle-max", "-1"],
     "argument --oracle-max: must be at least 0, got -1"),
    (["certify", "--oracle-max", "-1"],
     "argument --oracle-max: must be at least 0, got -1"),
])
def test_arity_below_range_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("usage:")]) == 1


def test_criterion_names_are_the_symmetric_catalog():
    from operad_forge.arity3 import CATALOG_NAMES
    from operad_forge.cli import CRITERION_NAMES
    assert CRITERION_NAMES == ("As", "Nov", "Zin", "Bicom", "Alt", "Flex",
                               "AntiFlex", "Leib", "PreLie", "Assosym")
    assert set(CRITERION_NAMES) <= set(CATALOG_NAMES)
