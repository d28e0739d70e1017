"""The benchmark's workloads: the calls each one makes and how its outputs are checked.

Every workload is a closed loop of in-process `cfpdesign` command-line calls,
one after another, in passes. A pass is a fixed list of calls; pass p of a
run with seed S gives the program seed S * 1000 + p. Pass 0 at seed 0 is
the warm-up of every run, and `reference.json` records its outputs.

The sweeps make one call per (method, degree) cell with one trial. Sub-seeds
inside the program depend only on (seed, stream, method, degree, trial), so
a pass produces the same records as a single call over all methods and
degrees would, one cell per call.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

SEEDS_PER_RUN = 1000

# Every workload process runs BLAS and OpenMP on this many threads. One
# client in one process, single-threaded: steadier on a small shared
# machine, and the outputs do not depend on how a library splits its sums.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    method: str
    degree: int
    seed: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Result:
    op: Op
    seconds: float
    ok: bool
    parsed: object = None
    error: str | None = None


def pass_seed(seed: int, index: int) -> int:
    return seed * SEEDS_PER_RUN + index


def _parse_csv(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    if header != ["method", "degree", "N", "M", "stat", "value"]:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        method, degree, n, m, stat, value = line.split(",")
        rows.append(
            {"method": method, "degree": int(degree), "stat": stat, "value": float(value)}
        )
    return rows


def _mean(rows: list[dict]) -> float:
    return next(r["value"] for r in rows if r["stat"] == "mean")


class Sweep:
    """One `study` call per (method, degree) cell, trials = 1."""

    def __init__(self, name, study, degrees, methods, options, nominal_pass_s):
        self.name = name
        self.study = study
        self.degrees = degrees
        self.methods = methods
        self.options = options
        self.nominal_pass_s = nominal_pass_s

    def _op(self, method: str, degree: int, seed: int) -> Op:
        argv = (
            "study", self.study, *self.options,
            "--degrees", str(degree), "--trials", "1", "--methods", method,
            "--seed", str(seed), "--output", "-",
        )
        return Op(argv, method, degree, seed)

    def pass_ops(self, seed: int) -> list[Op]:
        return [self._op(m, k, seed) for m in self.methods for k in self.degrees]

    def check(self, op: Op, text: str, expected) -> list[dict]:
        rows = _parse_csv(text)
        if len(rows) != 3 or any(
            r["method"] != op.method or r["degree"] != op.degree for r in rows
        ):
            raise ValueError("expected mean, q20 and q80 rows for the cell")
        bad = [r for r in rows if not math.isfinite(r["value"])]
        if bad:
            raise ValueError(f"non-finite value in {bad[0]}")
        if expected is not None:
            self.compare(text, expected)
        return rows

    def reference_record(self, text: str) -> str:
        return text

    def value_records(self, package) -> dict:
        """Program values checked directly, outside the timed calls."""
        return {}

    def compare(self, text: str, expected: str) -> None:
        if text != expected:
            raise ValueError("output differs from the reference CSV")

    def cell_means(self, results: list[Result]) -> dict[tuple[str, int], float]:
        """Per (method, degree) mean of the cells' means over the measured passes."""
        cells: dict[tuple[str, int], list[float]] = {}
        for r in results:
            if r.ok:
                cells.setdefault((r.op.method, r.op.degree), []).append(_mean(r.parsed))
        return {cell: statistics.fmean(v) for cell, v in cells.items()}


class CondSweep(Sweep):
    def finish(self, results: list[Result]) -> dict:
        """CFP mean condition number must not exceed MC's at any degree."""
        means = self.cell_means(results)
        for k in self.degrees:
            cfp, mc = means.get(("CFP", k)), means.get(("MC", k))
            if cfp is not None and mc is not None and cfp > mc:
                for r in results:
                    if r.op.method == "CFP" and r.op.degree == k:
                        r.ok, r.error = False, f"CFP mean kappa {cfp} > MC {mc}"
        cfp = [means[("CFP", k)] for k in self.degrees if ("CFP", k) in means]
        return {
            "cfp_quality": statistics.fmean(cfp),
            "info": {"cfp_kappa_worst": max(cfp)},
        }


# A solver that solves the same discrete problem another way may move the
# elliptic values by about 1e-12 relative; the validation errors in the CSV
# then move by that change times the least-squares amplification. Scaling
# every solve by (1 + 3e-12 * U(-1, 1)) moved them by up to 3.8e-10, and by
# (1 + 1e-11 * U(-1, 1)) by up to 1.3e-9, both at MC degree 8, where the
# error itself is 4.7e-11 at seed 0.
ELLIPTIC_RTOL = 1e-6
ELLIPTIC_ATOL = 1e-8

# The CSV holds only validation errors, which a solver change that scales
# every value would hardly move, so u(1/2, y) itself is also compared on a
# fixed grid of parameters, with room for the same 1e-12 relative change.
ELLIPTIC_VALUES_KEY = "values: solve_bvp_batch on the 5 x 5 grid of [-1, 1]^2"
ELLIPTIC_VALUES_RTOL = 1e-9

# The quality gate is the geometric mean of the CFP errors over these
# degrees. Degrees 7 and 8 are left out: at degree 8 the error (about
# 7e-13) is as small as a legitimate 1e-12 change of the solver. The top
# degree's error is still reported.
ELLIPTIC_QUALITY_DEGREES = range(1, 7)


class EllipticSweep(Sweep):
    def value_records(self, package) -> dict:
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        y = [[a, b] for a in grid for b in grid]
        config = package.EllipticConfig(dimension=2, sigma=1.0, grid_points=1001)
        return {ELLIPTIC_VALUES_KEY: [float(u) for u in package.solve_bvp_batch(config, y)]}

    def compare_values(self, got: list[float], want: list[float]) -> None:
        for a, b in zip(got, want, strict=True):
            if not abs(a - b) <= ELLIPTIC_VALUES_RTOL * abs(b):
                raise ValueError(f"elliptic value {a!r} differs from reference {b!r}")

    def compare(self, text: str, expected: str) -> None:
        got, want = text.splitlines(), expected.splitlines()
        if len(got) != len(want):
            raise ValueError("output has a different number of lines than the reference")
        for g, w in zip(got, want):
            if g == w:
                continue
            g_cells, w_cells = g.rsplit(",", 1), w.rsplit(",", 1)
            if w.startswith("#") or len(w_cells) != 2 or g_cells[0] != w_cells[0]:
                raise ValueError(f"line {g!r} differs from reference {w!r}")
            a, b = float(g_cells[1]), float(w_cells[1])
            if abs(a - b) > ELLIPTIC_RTOL * abs(b) + ELLIPTIC_ATOL:
                raise ValueError(f"value {a!r} differs from reference {b!r}")

    def finish(self, results: list[Result]) -> dict:
        means = self.cell_means(results)
        gated = [means[("CFP", k)] for k in ELLIPTIC_QUALITY_DEGREES if ("CFP", k) in means]
        return {
            "cfp_quality": statistics.geometric_mean(gated),
            "info": {"cfp_err_top": means.get(("CFP", max(self.degrees)))},
        }


class DesignLatency:
    """`design` requests alternating cfp and afp; a pass is `pairs` seeds of both."""

    name = "design_latency"
    options = (
        "--family", "gaussian", "--dimension", "4", "--rule", "HC",
        "--degree", "8", "--fit", "exp_negsumsq",
    )
    degree = 8
    pairs = 8
    nominal_pass_s = 3.2

    def _op(self, method: str, seed: int) -> Op:
        argv = (
            "design", *self.options, "--method", method, "--seed", str(seed),
            "--output", "-", "--surrogate-output", "-",
        )
        return Op(argv, method.upper(), self.degree, seed)

    def pass_ops(self, seed: int) -> list[Op]:
        seeds = range(seed * self.pairs, (seed + 1) * self.pairs)
        return [self._op(m, s) for s in seeds for m in ("cfp", "afp")]

    def check(self, op: Op, text: str, expected) -> dict:
        design, end = json.JSONDecoder().raw_decode(text)
        surrogate = json.loads(text[end:])
        pivots = design["pivot_order"]
        if len(pivots) != design["config"]["m_points"] or len(set(pivots)) != len(pivots):
            raise ValueError("pivot_order is not m_points distinct candidates")
        numbers = [design["det_modulus"], design["condition_number"]]
        numbers += [x for row in design["points"] for x in row]
        numbers += surrogate["coefficients"]
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError("non-finite value in the design or surrogate")
        if expected is not None and pivots != expected["pivot_order"]:
            raise ValueError("pivot_order differs from the reference")
        return design

    def reference_record(self, text: str) -> dict:
        design, _ = json.JSONDecoder().raw_decode(text)
        return {"pivot_order": design["pivot_order"]}

    def value_records(self, package) -> dict:
        return {}

    def finish(self, results: list[Result]) -> dict:
        kappas = [r.parsed["condition_number"] for r in results if r.ok and r.op.method == "CFP"]
        return {"cfp_quality": statistics.median(kappas), "info": {}}


WORKLOADS = {
    "cond_sweep": CondSweep(
        "cond_sweep",
        "cond",
        degrees=tuple(range(2, 16)),
        methods=("CFP", "AFP", "MC"),
        options=(
            "--family", "uniform", "--dimension", "2", "--rule", "TD",
            "--candidates", "10000",
        ),
        nominal_pass_s=5.0,
    ),
    "elliptic_sweep": EllipticSweep(
        "elliptic_sweep",
        "elliptic",
        degrees=tuple(range(1, 9)),
        methods=("CFP", "AFP", "MC"),
        options=(
            "--family", "uniform", "--dimension", "2", "--rule", "TD",
            "--candidates", "2000", "--validation-samples", "1000",
            "--elliptic-sigma", "1.0", "--elliptic-grid-points", "1001",
        ),
        nominal_pass_s=2.8,
    ),
    "design_latency": DesignLatency(),
}
