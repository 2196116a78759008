"""numpy is qpd's only runtime dependency.

Each test runs a fresh interpreter: this one already holds scipy, which
the scalar-map tests import as an oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import fixture_path

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

#: Makes every scipy import fail, as where scipy is not installed.
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"No module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

#: Runs each (label, argv) of argv[1] through qpd.cli.main and saves its
#: exit code, stdout and stderr; prints the scipy modules loaded.
RUN_COMMANDS = """
import contextlib, io, json, sys
import qpd.cli

results = {}
for label, argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qpd.cli.main(argv)
    results[label] = code
    with open(f"{label}.stdout", "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    with open(f"{label}.stderr", "w", encoding="utf-8") as fh:
        fh.write(err.getvalue())
with open("codes.json", "w", encoding="utf-8") as fh:
    json.dump(results, fh)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

SCAN_GRID = ("--rho-min", "2.5", "--rho-max", "3.5", "--step", "0.01")

#: Every subcommand; output files are relative to the working directory.
COMMANDS = [
    ("analyze", ["analyze", str(fixture_path("example3_qp_rho32")),
                 "--verify", "--json", "report.json"]),
    ("scan_period3", ["scan", "--kind", "period3", *SCAN_GRID,
                      "--out", "period3.csv"]),
    ("scan_snapback", ["scan", "--kind", "snapback", *SCAN_GRID,
                       "--out", "snapback.csv"]),
    ("conjugacy", ["conjugacy", str(fixture_path("example1_lv")),
                   "--seed", "1", "--trials", "20", "--steps", "50"]),
    ("simulate", ["simulate", str(fixture_path("example1_lv")),
                  "--x0", "1,1", "--steps", "500", "--out", "orbit.csv"]),
]
OUTPUT_FILES = ("report.json", "period3.csv", "snapback.csv", "orbit.csv")

#: Files with a committed golden: file written here -> golden in tests/data.
GOLDENS = {
    "scan_period3.stdout": "scan_period3_2.5_3.5_0.01.stdout",
    "period3.csv": "scan_period3_2.5_3.5_0.01.csv",
    "scan_snapback.stdout": "scan_snapback_2.5_3.5_0.01.stdout",
    "snapback.csv": "scan_snapback_2.5_3.5_0.01.csv",
    "conjugacy.stdout": "conjugacy_example1_lv_seed1.stdout",
}


def fresh_python(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter that imports qpd from src/."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) if not path
               else f"{SRC}{os.pathsep}{path}")
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    loaded = fresh_python(
        "import sys, json, qpd, qpd.cli; "
        "print(json.dumps([m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')]))")
    assert json.loads(loaded) == []


def test_every_subcommand_runs_without_scipy(tmp_path):
    outputs = {}
    for setting, prelude in (("importable", ""), ("blocked", BLOCK_SCIPY)):
        workdir = tmp_path / setting
        workdir.mkdir()
        loaded = fresh_python(prelude + RUN_COMMANDS, json.dumps(COMMANDS),
                              cwd=workdir)
        assert json.loads(loaded) == []
        codes = json.loads((workdir / "codes.json").read_text())
        assert codes == {label: 0 for label, _ in COMMANDS}
        names = [f"{label}.{stream}" for label, _ in COMMANDS
                 for stream in ("stdout", "stderr")] + list(OUTPUT_FILES)
        outputs[setting] = {name: (workdir / name).read_bytes()
                            for name in names}
        for label, _ in COMMANDS:
            assert outputs[setting][f"{label}.stderr"] == b""
        for name, golden in GOLDENS.items():
            assert outputs[setting][name] == (DATA / golden).read_bytes()
    assert outputs["blocked"] == outputs["importable"]
