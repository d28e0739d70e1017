"""Fresh-interpreter tests: import paths and process settings.

numpy is the only runtime dependency: every command must run in an
interpreter where scipy cannot be imported at all, and a fresh process must
write the same bytes as a warm one, whatever the number of BLAS threads.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cfpdesign.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# a None entry in sys.modules makes every later `import scipy...` raise
NO_SCIPY = 'import sys; sys.modules["scipy"] = None'


def _fresh_python(code: str, **variables: str) -> str:
    """Run code in a new interpreter with src first on its path and the
    given environment variables set; its stdout."""
    env = dict(os.environ, **variables)
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
        f"""
        {NO_SCIPY}
        import contextlib, io, json

        import cfpdesign.cli as cli

        runs = [
            ["design", "--family", "gaussian", "--degree", "3", "--candidates", "200",
             "--fit", "exp_negsumsq", "-o", "-"],
            ["study", "cond", "--degrees", "2:3", "--trials", "1",
             "--candidates", "200", "-o", "-"],
            ["study", "approx", "--degrees", "1:2", "--trials", "1",
             "--candidates", "200", "--validation-samples", "300", "-o", "-"],
            ["study", "elliptic", "--degrees", "1:2", "--trials", "1",
             "--candidates", "200", "--validation-samples", "300", "-o", "-"],
        ]
        codes = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        print(json.dumps(codes))
        """
    )
    assert json.loads(out) == [0, 0, 0, 0]


@pytest.mark.parametrize("family", ["uniform", "gaussian"])
def test_verify_runs_without_scipy_with_identical_output(tmp_path, family):
    fresh = tmp_path / "fresh.csv"
    warm = tmp_path / "warm.csv"
    argv = ["verify", "oned", "--family", family, "--n-max", "6"]
    out = _fresh_python(
        f"""
        {NO_SCIPY}
        import cfpdesign.cli as cli

        print(cli.main({argv + ["-o", str(fresh)]!r}))
        """
    )
    assert out == "0\n"
    assert main(argv + ["-o", str(warm)]) == 0
    assert fresh.read_bytes() == warm.read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
def test_outputs_do_not_depend_on_the_blas_thread_count():
    code = """
        import cfpdesign.cli as cli

        cli.main(["design", "--degree", "15", "-o", "-"])
        cli.main(["study", "cond", "--degrees", "9", "--trials", "1", "-o", "-"])
        """
    one = _fresh_python(code, OPENBLAS_NUM_THREADS="1")
    assert one.count("pivot_order") == 1 and "CFP,9,55,58,mean," in one
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2") == one
