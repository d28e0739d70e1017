"""Fresh-interpreter tests: import paths and process settings.

numpy is the only runtime dependency: every command must run in an
interpreter where scipy cannot be imported at all, and a fresh process must
write the same bytes as a warm one, whatever the number of BLAS threads.
Under another OpenBLAS kernel the selections keep their pivots, though
det and cond may move in their last bits.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cfpdesign.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# a None entry in sys.modules makes every later `import scipy...` raise
NO_SCIPY = 'import sys; sys.modules["scipy"] = None'

NUMPY_CONFIG = np.show_config(mode="dicts")
# OPENBLAS_CORETYPE picks a kernel only in an OpenBLAS built with DYNAMIC_ARCH
BLAS = NUMPY_CONFIG.get("Build Dependencies", {}).get("blas", {})
DYNAMIC_ARCH = "DYNAMIC_ARCH" in BLAS.get("openblas configuration", "")
SIMD = NUMPY_CONFIG.get("SIMD Extensions", {})
# numpy 2.4 names AVX2 within its x86-64-v3 and v4 groups
AVX2 = not {"AVX2", "X86_V3", "X86_V4"}.isdisjoint(
    SIMD.get("baseline", []) + SIMD.get("found", [])
)


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
        print(json.dumps([codes, "numpy.ma" in sys.modules]))
        """
    )
    # np.quantile imports numpy.ma on its first call (through np.unique);
    # the sweeps compute their quantiles without it
    assert json.loads(out) == [[0, 0, 0, 0], False]


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
    """design --degree 15 and study cond --degrees 9 keep every byte. At W =
    495 (d=10 HC 8, seed 0) the SVD diagnostics may move in their last bits
    (numpy's SVD does from N = 210 here), but pivots and traces keep theirs."""
    code = """
        import contextlib, io, json

        import cfpdesign.cli as cli

        cli.main(["design", "--degree", "15", "-o", "-"])
        cli.main(["study", "cond", "--degrees", "9", "--trials", "1", "-o", "-"])
        for method in ("cfp", "afp"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["design", "--dimension", "10", "--rule", "HC",
                          "--degree", "8", "--method", method, "-o", "-"])
            result = json.loads(out.getvalue())
            print(json.dumps([result["pivot_order"], result["objective_trace"]]))
        """
    one = _fresh_python(code, OPENBLAS_NUM_THREADS="1")
    assert one.count("pivot_order") == 1 and "CFP,9,55,58,mean," in one
    assert [len(json.loads(line)[0]) for line in one.splitlines()[-2:]] == [495, 495]
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2") == one


# uniform TD 15 (W = 143), and the design_latency request: Gaussian d=4 HC 8
# (W = 77 Hermite rows, block ends of 1-39 directions at seed 3)
PIVOTS = """
    import contextlib, io, json, os

    import cfpdesign.cli as cli

    requests = {
        "td15": ["--degree", "15"],
        "hc8": ["--family", "gaussian", "--dimension", "4", "--rule", "HC",
                "--degree", "8", "--fit", "exp_negsumsq", "--seed", "3",
                "--surrogate-output", os.devnull],
    }
    pivots = {}
    for name, request in requests.items():
        for method in ("cfp", "afp"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["design", *request, "--method", method, "-o", "-"])
            pivots[f"{name} {method}"] = json.loads(out.getvalue())["pivot_order"]
    print(json.dumps(pivots))
    """


@pytest.fixture(scope="module")
def default_kernel_pivots():
    return json.loads(_fresh_python(PIVOTS))


@pytest.mark.skipif(not DYNAMIC_ARCH, reason="not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Nehalem"])
def test_pivots_do_not_depend_on_the_blas_kernel(coretype, default_kernel_pivots):
    if coretype == "Haswell" and not AVX2:
        pytest.skip("the Haswell kernel needs AVX2")
    pivots = json.loads(_fresh_python(PIVOTS, OPENBLAS_CORETYPE=coretype))
    assert pivots == default_kernel_pivots
    assert {name: len(p) for name, p in pivots.items()} == {
        "td15 cfp": 143, "td15 afp": 143, "hc8 cfp": 77, "hc8 afp": 77
    }
