"""Byte-for-byte snapshots of the command-line output.

Each case runs cli.main in-process and compares its stdout with the file of
the same name under tests/golden.  The snapshots pin the printed results of
the criterion, the white products, the dimension tables, the bijections,
the order of every system's normal forms and the overlap listings of the
confluence checks, so a refactor of any layer below the CLI must leave them unchanged.
The demo_<name>.txt files pin the stdout of each demos/<name>.py the same
way; each demo runs in-process as its own __main__.

Regenerate the files (only after a deliberate change of output) with
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from operad_forge.cli import main

GOLDEN = Path(__file__).with_name("golden")
DEMOS = Path(__file__).resolve().parent.parent / "demos"

_MANIN = ("As", "Nov", "Zin", "Bicom", "Alt", "Flex", "AntiFlex", "Leib",
          "PreLie", "Assosym")

CASES = {
    "certify": ["certify"],
    "criterion_all_json": ["criterion", "all", "--json"],
    **{f"manin_{n}_json": ["manin", n, "--json"] for n in _MANIN},
    **{f"dims_{s}_csv": ["dims", s, "--max-n", "8", "--oracle-max", "5", "--csv"]
       for s in ("Zin", "Bicom", "Flex", "AntiFlex")},
    **{f"bijection_{s}_6": ["bijection", s, "6"] for s in ("Zin", "Bicom", "Flex")},
    **{f"normal_forms_{s}_5": ["normal-forms", s, "5"]
       for s in ("Zin", "Bicom", "Flex", "AntiFlex", "L")},
    **{f"confluence_{s}_{a}": ["confluence", s, "--max-arity", str(a)]
       for s, a in (("Zin", 6), ("Flex", 6), ("AntiFlex", 6), ("L", 6),
                    ("Bicom", 7))},
}


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _run_demo(name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out = _run(CASES[name])
    assert code == 0
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert out == want


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_golden_demo(name):
    want = (GOLDEN / f"demo_{name}.txt").read_text(encoding="utf-8")
    assert _run_demo(name) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
        print(f"wrote {name}.txt ({len(out)} bytes)")
    for path in sorted(DEMOS.glob("*.py")):
        out = _run_demo(path.stem)
        (GOLDEN / f"demo_{path.stem}.txt").write_text(out, encoding="utf-8")
        print(f"wrote demo_{path.stem}.txt ({len(out)} bytes)")
