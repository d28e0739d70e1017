"""Span recorder that times cfpdesign's layers from outside the package.

Public functions are replaced by timing wrappers at every name that binds
them: the defining module and each module that did `from .x import f`.
Spans stay in memory and are written out once, when the run ends.

Every wrapped function belongs to exactly one group (a layer or a stage of
one). A group's inclusive time counts only its outermost spans, so nested
calls inside one group are not counted twice; self time is a span's
duration minus the time its direct children cover, so the self times of
all groups add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _rows(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rows(args, kwargs, result) -> dict:
    return {"rows": _rows(_arg(args, kwargs, 1, "points"))}


def _count_y(args, kwargs, result) -> dict:
    return {"rows": _rows(_arg(args, kwargs, 1, "y"))}


def _count_select(args, kwargs, result) -> dict:
    return {
        "m_points": int(_arg(args, kwargs, 2, "m_points")),
        "width": len(_arg(args, kwargs, 1, "index_set")),
    }


def _count_bvp_batch(args, kwargs, result) -> dict:
    config = _arg(args, kwargs, 0, "config")
    return {"points": _rows(_arg(args, kwargs, 1, "y")) * config.grid_points}


def _count_bvp(args, kwargs, result) -> dict:
    return {"points": _arg(args, kwargs, 0, "config").grid_points}


# (module, public function, group, work counter)
WRAPPED = (
    ("cli", "main", "cli", None),
    ("studies", "study_condition", "studies", None),
    ("studies", "study_approx", "studies", None),
    ("studies", "verify_oned", "studies", None),
    ("studies", "resolve_target", "studies", None),
    ("studies", "config_echo", "studies", None),
    ("studies", "render_csv", "studies", None),
    ("design", "candidate_set", "design.candidate_set", None),
    ("design", "cfp_select", "design.select", _count_select),
    ("design", "afp_select", "design.select", _count_select),
    ("design", "greedy_select_reference", "design.oracle", None),
    ("design", "global_select_oracle", "design.oracle", None),
    ("basis", "eval_rows", "basis.eval_rows", _count_rows),
    ("basis", "eval_row", "basis.eval_rows", _count_y),
    ("basis", "vandermonde", "basis.eval_rows", _count_rows),
    ("basis", "christoffel", "basis.eval_rows", _count_y),
    ("basis", "det_modulus", "basis.svd", None),
    ("basis", "condition_number", "basis.svd", None),
    ("multiindex", "total_degree", "multiindex", None),
    ("multiindex", "hyperbolic_cross", "multiindex", None),
    ("multiindex", "enrich", "multiindex", None),
    ("multiindex", "is_downward_closed", "multiindex", None),
    ("orthopoly", "recurrence_coefficients", "orthopoly", None),
    ("orthopoly", "eval_phi", "orthopoly", None),
    ("orthopoly", "eval_phi_sequence", "orthopoly", None),
    ("orthopoly", "gauss_rule", "orthopoly", None),
    ("orthopoly", "r_ratio", "orthopoly", None),
    ("orthopoly", "level_set", "orthopoly", None),
    ("orthopoly", "level_set_bisection", "orthopoly", None),
    ("orthopoly", "quadrature_exactness_report", "orthopoly", None),
    ("orthopoly", "sample_density", "orthopoly", None),
    ("lsq", "solve_weighted", "lsq.solve", _count_rows),
    ("lsq", "solve_unweighted", "lsq.solve", _count_rows),
    ("lsq", "eval_surrogate", "lsq.validation", None),
    ("lsq", "validation_error", "lsq.validation", None),
    ("elliptic", "solve_bvp_batch", "elliptic.solve", _count_bvp_batch),
    ("elliptic", "solve_bvp", "elliptic.solve", _count_bvp),
    ("elliptic", "diffusivity", "elliptic.solve", None),
)

# groups reported as per-layer metrics, in report order
GROUPS = (
    "design.select",
    "design.candidate_set",
    "basis.eval_rows",
    "basis.svd",
    "multiindex",
    "orthopoly",
    "lsq.solve",
    "lsq.validation",
    "elliptic.solve",
    "studies",
    "cli",
)

OUTSIDE = "outside"  # floating-point warnings raised with no span open


class Span:
    __slots__ = ("name", "group", "start", "end", "parent", "op", "counts")

    def __init__(self, name, group, parent, op):
        self.name = name
        self.group = group
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.counts = None


class Tracer:
    """Collects spans for one process; `op` tags spans with the current call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.fp_warnings: Counter = Counter()

    def wrap(self, fn, name: str, group: str, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, group, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in WRAPPED at each name bound to it."""
        modules = [package] + [
            mod
            for name, mod in sys.modules.items()
            if name.startswith(package.__name__ + ".")
        ]
        for modname, fname, group, counter in WRAPPED:
            original = getattr(getattr(package, modname), fname)
            wrapper = self.wrap(original, f"{modname}.{fname}", group, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        np.seterrcall(self._on_fp_error)
        np.seterr(over="call", divide="call", invalid="call")

    def _on_fp_error(self, kind, flag) -> None:
        group = self.spans[self.stack[-1]].group if self.stack else OUTSIDE
        self.fp_warnings[group] += 1

    def summary(self) -> dict:
        """Per-group inclusive time, outermost calls, self time, work counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        groups: dict[str, dict] = {}
        for i, span in enumerate(spans):
            g = groups.setdefault(
                span.group, {"s": 0.0, "calls": 0, "self_s": 0.0, "counts": Counter()}
            )
            duration = span.end - span.start
            g["self_s"] += duration - child_time[i]
            if self._outermost_in_group(i):
                g["s"] += duration
                g["calls"] += 1
                if span.counts:
                    g["counts"].update(span.counts)
        pivot_row_ops = 0
        for i, span in enumerate(spans):
            if span.group == "basis.eval_rows" and span.parent >= 0:
                parent = spans[span.parent]
                if parent.group == "design.select":
                    c = parent.counts
                    pivot_row_ops += c["m_points"] * span.counts["rows"] * c["width"]
        roots = sum(s.end - s.start for s in spans if s.parent < 0)
        return {
            "groups": {
                name: {**g, "counts": dict(g["counts"])} for name, g in groups.items()
            },
            "pivot_row_ops": pivot_row_ops,
            "root_s": roots,
            "fp_warnings": dict(self.fp_warnings),
        }

    def _outermost_in_group(self, i: int) -> bool:
        group = self.spans[i].group
        parent = self.spans[i].parent
        while parent >= 0:
            if self.spans[parent].group == group:
                return False
            parent = self.spans[parent].parent
        return True

    def write(self, path, ops: list) -> None:
        """Spans as [name, start, end, parent, op]; ops[op] is the call's argv."""
        records = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"ops": ops, "spans": records}, handle)
