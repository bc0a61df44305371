"""Byte-for-byte golden outputs of the README commands on every fixture.

Each case runs one command line from the README on one file in
``fixtures/`` and compares the exit code, stdout, stderr and any SVG the
command writes with the files under ``tests/golden/``.  The goldens pin
the printed bases and diagrams, so an engine change that alters a pivot
order shows up here.

To record new goldens after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from trusshom.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# (case name, arguments after the file, whether the command takes --svg)
COMMANDS = [
    ("analyze", [], False),
    ("analyze-boundary", ["--boundary"], False),
    ("maxwell-dim3", ["--dim", "3"], False),
    ("selfstress", [], False),
    ("dual-stress0", ["--stress", "0"], True),
    ("rotations", [], False),
    ("relative", [], True),
    ("spline-d1-s0", ["--degree", "1", "--smoothness", "0"], False),
    ("check", [], False),
]

CASES = [
    (f"{fixture.stem}.{name}", [name.split("-")[0], str(fixture), *extra], svg)
    for fixture in sorted(FIXTURES.glob("*.json"))
    for name, extra, svg in COMMANDS
]


def run_case(argv, svg, workdir: Path):
    """Run one command in-process; return (exit code, stdout, stderr, svg text)."""
    svg_path = workdir / "out.svg"
    if svg:
        argv = [*argv, "--svg", str(svg_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    svg_text = svg_path.read_text() if svg_path.exists() else None
    return code, out.getvalue(), err.getvalue(), svg_text


def golden_files(case):
    return {
        "stdout": GOLDEN / f"{case}.out",
        "stderr": GOLDEN / f"{case}.err",
        "svg": GOLDEN / f"{case}.svg",
    }


def _read(path: Path):
    return path.read_text() if path.exists() else None


@pytest.mark.parametrize("case,argv,svg", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(case, argv, svg, tmp_path):
    code, out, err, svg_text = run_case(argv, svg, tmp_path)
    files = golden_files(case)
    assert code == json.loads(EXIT_CODES.read_text())[case]
    assert out == (_read(files["stdout"]) or "")
    assert err == (_read(files["stderr"]) or "")
    assert svg_text == _read(files["svg"])


def record_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv, svg in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err, svg_text = run_case(argv, svg, Path(tmp))
        codes[case] = code
        for kind, text in zip(("stdout", "stderr", "svg"), (out, err, svg_text)):
            path = golden_files(case)[kind]
            if text:
                path.write_text(text)
            elif path.exists():
                path.unlink()
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_goldens()
