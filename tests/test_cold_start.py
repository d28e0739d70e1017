"""Import-path tests, each in a fresh interpreter.

scipy is used only by the eigensolves of `gauss_rule` and `level_set`
(`verify oned`), which import it on first call: the design and study
paths run on numpy alone and must never load scipy, which costs about
0.3 s and 20 MB of every cold start.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy.linalg  # noqa: F401  the in-process runs below have scipy loaded

from cfpdesign.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter with src first on its path; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_design_and_study_paths_never_load_scipy():
    out = _fresh_python(
        """
        import contextlib, io, json, sys

        import cfpdesign.cli as cli

        runs = [
            ["design", "--family", "gaussian", "--degree", "3", "--candidates", "200",
             "--fit", "exp_negsumsq", "-o", "-"],
            ["study", "cond", "--degrees", "2:3", "--trials", "1",
             "--candidates", "200", "-o", "-"],
            ["study", "elliptic", "--degrees", "1:2", "--trials", "1",
             "--candidates", "200", "--validation-samples", "300", "-o", "-"],
        ]
        codes = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({"codes": codes, "scipy": scipy_modules}))
        """
    )
    report = json.loads(out)
    assert report["codes"] == [0, 0, 0]
    assert report["scipy"] == []


@pytest.mark.parametrize("family", ["uniform", "gaussian"])
def test_verify_loads_scipy_lazily_with_identical_output(tmp_path, family):
    fresh = tmp_path / "fresh.csv"
    warm = tmp_path / "warm.csv"
    argv = ["verify", "oned", "--family", family, "--n-max", "6"]
    out = _fresh_python(
        f"""
        import json, sys

        import cfpdesign.cli as cli

        before = "scipy" in sys.modules
        code = cli.main({argv + ["-o", str(fresh)]!r})
        print(json.dumps({{"before": before, "code": code,
                           "after": "scipy.linalg" in sys.modules}}))
        """
    )
    assert json.loads(out) == {"before": False, "code": 0, "after": True}
    assert main(argv + ["-o", str(warm)]) == 0
    assert fresh.read_bytes() == warm.read_bytes()
