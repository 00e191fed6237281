"""The CLI's bytes on the shipped demos, held fixed (tests/golden/).

``lamc run`` (text, ``--json-like``, ``--trace``) and ``lamc stats`` print
the documented output format; the machine's readback and its statistics
must not move them.  Paths in the output are relative to the repository
root, so the CLI runs from there.
"""

import pathlib

import pytest

from lamc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = ("min_principle", "min_principle_c10")


def _runs():
    for demo in DEMOS:
        script = f"demos/{demo}.lc"
        yield f"run_{demo}.txt", ["run", script]
        yield f"run_{demo}.json", ["run", script, "--json-like"]
        yield f"run_{demo}_trace.txt", ["run", script, "--trace"]
        yield f"stats_{demo}.txt", ["stats", script]


RUNS = list(_runs())


@pytest.mark.parametrize("golden, argv", RUNS, ids=[golden for golden, _ in RUNS])
def test_cli_output_is_byte_identical(golden, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.encode("utf-8") == (GOLDEN / golden).read_bytes()
