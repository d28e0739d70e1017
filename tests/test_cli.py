"""Command-line interface tests.

Everything runs in-process through main(argv); files go to tmp_path and
stdout is captured. Reruns with the same options must produce identical
bytes, since the CSV text is part of the reproducibility contract.
"""

import io
import json

import numpy as np
import pytest

from cfpdesign import (
    DensitySpec,
    Surrogate,
    __version__,
    afp_select,
    candidate_set,
    cfp_select,
    enrich,
    hyperbolic_cross,
    total_degree,
)
from cfpdesign import basis as basis_module
from cfpdesign import cli, design, multiindex, studies
from cfpdesign.cli import _build_parser, main


def _exit_code(argv):
    """main's return value, or the code of the usage error argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _fails_with(capsys, argv, message):
    """main refuses argv: exit 2, nothing on stdout and the one line
    `error: <message>` on stderr."""
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _reject_constant(name):
    raise AssertionError(f"bare {name} token is not valid JSON")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_bad_choice_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["design", "--family", "triangular"])
    assert info.value.code == 2


def test_design_json_to_stdout(capsys):
    code = main(
        ["design", "--degree", "2", "--candidates", "200", "--seed", "1", "-o", "-"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    n = len(total_degree(2, 2))
    assert len(payload["points"]) == 7  # ceil(1.05 * 6)
    assert len(payload["pivot_order"]) == 7
    assert payload["space"] == "Q"
    assert payload["seed"] == 1
    cfg = payload["config"]
    assert cfg["version"] == __version__
    assert cfg["family"] == "uniform"
    assert cfg["rule"] == "TD"
    assert cfg["degree"] == 2
    assert cfg["method"] == "cfp"
    assert cfg["basis_size"] == len(enrich(total_degree(2, 2), 7 - n))  # enriched to M
    assert payload["det_modulus"] <= 1.0 + 1e-12


def test_design_reruns_are_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    argv = ["design", "--degree", "3", "--candidates", "300", "--seed", "4"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["design", "--degree", "3", "--candidates", "300", "--seed", "5", "-o", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_design_afp_method(capsys):
    argv = ["design", "--degree", "1", "--dimension", "1", "--samples", "2",
            "--candidates", "100", "-o", "-", "--method"]
    assert main(argv + ["afp"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["space"] == "P"
    assert payload["config"]["method"] == "afp"
    # the method is read in any case, as --methods is
    assert main(argv + ["AFP"]) == 0
    assert capsys.readouterr().out == out


def test_design_with_surrogate_fit(tmp_path):
    design_path = tmp_path / "design.json"
    fit_path = tmp_path / "fit.json"
    code = main(
        ["design", "--degree", "2", "--candidates", "200", "--fit",
         "exp_negsumsq", "--surrogate-output", str(fit_path), "-o", str(design_path)]
    )
    assert code == 0
    blob = json.loads(fit_path.read_text())
    assert blob["target"] == "exp_negsumsq"
    assert blob["version"] == __version__
    assert len(blob["coefficients"]) == len(total_degree(2, 2))
    surrogate = Surrogate.from_json(blob)
    assert len(surrogate.coefficients) == 6


def test_study_cond_csv(tmp_path):
    out = tmp_path / "cond.csv"
    argv = [
        "study", "cond", "--degrees", "2", "--trials", "2",
        "--candidates", "100", "-o", str(out),
    ]
    assert main(argv) == 0
    text = out.read_text()
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert f"# version = {__version__}" == comments[0]
    assert "# study = cond" in comments
    assert "# degrees = 2" in comments
    header = lines[len(comments)]
    assert header == "method,degree,N,M,stat,value"
    rows = lines[len(comments) + 1 :]
    assert len(rows) == 9  # 3 methods x 1 degree x 3 stats
    assert text.endswith("\n")

    again = tmp_path / "again.csv"
    assert main(argv[:-1] + [str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_study_approx_with_target(capsys):
    code = main(
        ["study", "approx", "--target", "exp_negsum", "--family", "gaussian",
         "--degrees", "1", "--trials", "2", "--candidates", "100",
         "--validation-samples", "50", "--methods", "CFP", "-o", "-"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "# target = exp_negsum" in text
    assert "# family = gaussian" in text
    assert "CFP,1," in text


def test_study_elliptic(tmp_path):
    out = tmp_path / "elliptic.csv"
    code = main(
        ["study", "elliptic", "--degrees", "1", "--trials", "2",
         "--candidates", "100", "--validation-samples", "20",
         "--elliptic-grid-points", "101", "--methods", "CFP,MC",
         "-o", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "# target = elliptic" in text
    assert "# elliptic_grid_points = 101" in text
    rows = [ln for ln in text.splitlines() if ln.startswith(("CFP", "MC"))]
    assert len(rows) == 6


def test_degrees_parser_through_echo(capsys):
    argv = ["study", "cond", "--trials", "1", "--candidates", "100",
            "--methods", "CFP", "-o", "-"]
    assert main(argv + ["--degrees", "2:4"]) == 0
    assert "# degrees = 2,3,4" in capsys.readouterr().out
    assert main(argv + ["--degrees", "1,3"]) == 0
    assert "# degrees = 1,3" in capsys.readouterr().out


def test_verify_oned_cli(capsys):
    code = main(["verify", "oned", "--family", "gaussian", "--n-max", "2", "-o", "-"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# report = oned" in lines
    assert "# n_max = 2" in lines
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "family,N,start,check,value,threshold,status"
    rows = lines[header_at + 1 :]
    assert len(rows) == 2 * (6 * 6 + 2)
    assert all(row.endswith(",PASS") for row in rows)


def test_config_file_fills_unset_options(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# sweep setup\n"
        "degrees = 2\n"
        "trials = 3\n"
        "candidates = 100\n"
        "methods = CFP\n"
        "seed = 3\n"
        "validation_samples = 40\n"
    )
    code = main(
        ["study", "approx", "--config", str(cfg), "--trials", "1", "-o", "-"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "# trials = 1" in text  # explicit flag beats the file
    assert "# seed = 3" in text
    assert "# validation_samples = 40" in text


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # the parser is built once per process; a usage error, a config file and
    # plain flags before a call must not change what that call prints
    cfg = tmp_path / "design.cfg"
    cfg.write_text("degree = 2\ncandidates = 200\nmethod = afp\nseed = 3\n")
    calls = [
        ["design", "--family", "triangular"],
        ["design", "--config", str(cfg), "-o", "-"],
        ["design", "--degree", "3", "--candidates", "300", "--seed", "2", "-o", "-"],
        ["study", "cond", "--degrees", "2:3", "--trials", "2", "--candidates", "200"],
    ]

    def run(fresh_parser):
        results = []
        for argv in calls:
            if fresh_parser:
                _build_parser.cache_clear()
            code = _exit_code(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    fresh = run(fresh_parser=True)
    _build_parser.cache_clear()
    parser = _build_parser()
    reused = run(fresh_parser=False)
    assert _build_parser() is parser
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [2, 0, 0, 0]
    assert all(out for _, out, _ in reused[1:])
    assert reused == fresh


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    argv = ["study", "cond", "--config", str(cfg)]
    cfg.write_text("mystery = 4\n")
    _fails_with(capsys, argv, "unknown config key 'mystery'")
    cfg.write_text("degree = 3\n")  # argparse alone would read it as --degrees
    _fails_with(capsys, argv, "unknown config key 'degree'")
    # names the parser holds that are no option of the command: a nested
    # config file would go unread, and the subcommand words are not flags
    verify = ["verify", "oned", "--config", str(cfg)]
    for command, key in [
        (argv, "config"), (argv, "command"), (argv, "study-kind"),
        (verify, "verify-kind"),
    ]:
        cfg.write_text(f"{key} = other\n")
        _fails_with(capsys, command, f"unknown config key {key!r}")


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no assignment\n")
    argv = ["study", "cond", "--config", str(cfg)]
    _fails_with(capsys, argv, f"{cfg}:1: expected 'key = value'")


def test_config_file_missing(capsys):
    _fails_with(
        capsys,
        ["study", "cond", "--config", "/nonexistent/path.cfg"],
        "[Errno 2] No such file or directory: '/nonexistent/path.cfg'",
    )


def test_design_with_too_few_candidates(capsys):
    _fails_with(
        capsys,
        ["design", "--samples", "50", "--candidates", "10"],
        "only 10 candidates for 50 points",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["design", "--degree", "2", "--samples", "9000000"],
         "only 100 candidates for 9000000 points"),
        (["study", "cond", "--oversampling", "100000"],
         "CFP degree 2 trial 0: only 100 candidates for 600000 points"),
        # a hyperbolic cross's M is known once the set is built (N = 1141)
        (["study", "cond", "--rule", "HC", "--dimension", "10", "--degrees", "12",
          "--methods", "CFP"],
         "CFP degree 12 trial 0: only 100 candidates for 1199 points"),
    ],
)
def test_too_few_candidates_fail_before_enrichment(monkeypatch, capsys, argv, message):
    """M is checked against the candidates before the index set is enriched
    to M indices, which at 9e6 would take seconds and most of a GB."""
    monkeypatch.setattr(studies, "enrich", lambda *args: pytest.fail("enriched"))
    _fails_with(capsys, argv + ["--candidates", "100", "-o", "-"], message)


def test_total_degree_design_with_too_few_candidates_fails_before_the_set(
    monkeypatch, capsys
):
    """d = 200 degree 3 asks for comb(203, 3) = 1,373,701 indices and
    M = 1,442,387 points. A total-degree set's size is known before it is
    built, so M meets the candidates first; building the set took half a
    minute and 2.3 GB."""
    monkeypatch.setattr(multiindex, "total_degree", lambda *args: pytest.fail("built"))
    _fails_with(
        capsys,
        ["design", "--dimension", "200", "--degree", "3", "-o", "-"],
        "only 10000 candidates for 1442387 points",
    )


def test_study_cell_with_too_few_candidates_fails_before_the_set(monkeypatch, capsys):
    """d = 100 degree 3 asks for comb(103, 3) = 176,851 indices and
    M = 185,694 points; a CFP cell refuses them under its trial-0 prefix
    before the set is built, as a design does."""
    monkeypatch.setattr(multiindex, "total_degree", lambda *args: pytest.fail("built"))
    _fails_with(
        capsys,
        ["study", "cond", "--dimension", "100", "--degrees", "3", "--methods", "CFP",
         "--trials", "1", "-o", "-"],
        "CFP degree 3 trial 0: only 10000 candidates for 185694 points",
    )


def _options(parser):
    return {s for a in parser._actions for s in a.option_strings if s.startswith("--")}


def _subcommands(parser):
    return parser._subparsers._group_actions[0].choices


def test_each_command_takes_only_the_options_it_reads():
    """study cond reads no validation or elliptic setting, and study approx
    no elliptic one; the elliptic target is study elliptic."""
    commands = _subcommands(_build_parser())
    shared = {"--help", "--config", "--family", "--output"}
    sampling = shared | {"--dimension", "--rule", "--oversampling", "--candidates", "--seed"}
    sweep = sampling | {"--degrees", "--trials", "--methods"}
    expected = {
        "design": sampling | {
            "--degree", "--samples", "--method", "--fit", "--surrogate-output"
        },
        "study cond": sweep,
        "study approx": sweep | {"--validation-samples", "--target"},
        "study elliptic": sweep | {
            "--validation-samples", "--elliptic-sigma", "--elliptic-grid-points"
        },
        "verify oned": shared | {"--n-max"},
    }
    found = {"design": _options(commands["design"])}
    for command in ("study", "verify"):
        for kind, sub in _subcommands(commands[command]).items():
            found[f"{command} {kind}"] = _options(sub)
    assert found == expected
    # settable values, --help aside
    counts = {name: len(options) - 1 for name, options in found.items()}
    assert counts == {
        "design": 13, "study cond": 11, "study approx": 13,
        "study elliptic": 14, "verify oned": 4,
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["study", "cond", "--validation-samples", "5"], "unrecognized arguments"),
        (["study", "approx", "--target", "elliptic"],
         "argument --target: invalid choice: 'elliptic'"),
        (["study", "approx", "--elliptic-sigma", "0.5"], "unrecognized arguments"),
        (["study", "cond", "--config", "CONFIG"],
         "error: unknown config key 'validation-samples'"),
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cond.cfg"
    cfg.write_text("degrees = 2\nvalidation_samples = 5\n")
    argv = [str(cfg) if word == "CONFIG" else word for word in argv]
    assert _exit_code(argv + ["-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.skipif(design.resource is None, reason="no address-space limit")
def test_design_beyond_the_address_space_limit_exits_2(monkeypatch, capsys):
    """At degree 120 (W = 7751, M = 7751) the rows of 20000 candidates take
    1.24 GB and the whole selection, with one chunk of recurrence sequences,
    1.83 GB: under a 1.5 GB limit the request is refused with one error line
    before a row is evaluated."""
    monkeypatch.setattr(design.resource, "getrlimit", lambda which: (1_500_000_000, -1))
    monkeypatch.setattr(design, "open", lambda path: io.StringIO("0\n"), raising=False)
    monkeypatch.setattr(
        basis_module, "_rows", lambda *args: pytest.fail("rows evaluated")
    )
    _fails_with(
        capsys,
        ["design", "--degree", "120", "--candidates", "20000", "-o", "-"],
        "the selection needs 1.83 GB, more than the 1.50 GB left under the "
        "process's address-space limit; use fewer candidates (--candidates) or "
        "a lower degree (--degree)",
    )


@pytest.mark.skipif(design.resource is None, reason="no address-space limit")
@pytest.mark.parametrize(
    "argv, where",
    [
        (["design", "--degree", "2"], ""),
        (["study", "cond", "--methods", "CFP", "--degrees", "2", "--trials", "1"],
         "CFP degree 2 trial 0: "),
    ],
    ids=["design", "study cond"],
)
def test_candidate_draw_beyond_the_address_space_limit_exits_2(
    monkeypatch, capsys, argv, where
):
    """1e8 two-dimensional candidates: the two halves, their stack and the
    set's copy take 3 * 1.6 GB and the draw 8 MiB more, so under a 1.5 GB
    limit the request is refused with one error line before a point is
    drawn."""
    monkeypatch.setattr(design.resource, "getrlimit", lambda which: (1_500_000_000, -1))
    monkeypatch.setattr(design, "open", lambda path: io.StringIO("0\n"), raising=False)
    monkeypatch.setattr(
        design, "_sample_points", lambda *args: pytest.fail("candidates drawn")
    )
    _fails_with(
        capsys,
        [*argv, "--candidates", "100000000", "-o", "-"],
        f"{where}the candidate draw needs 4.81 GB, more than the 1.50 GB left "
        "under the process's address-space limit; use fewer candidates "
        "(--candidates)",
    )


@pytest.mark.skipif(design.resource is None, reason="no address-space limit")
def test_fit_beyond_the_address_space_limit_exits_2(monkeypatch, capsys):
    """d = 40 degree 3: the rows of 12959 Monte Carlo points on N = 12341
    take 1.28 GB and lstsq's copy as much again, so under a 1.5 GB limit the
    fit is refused with one error line before a row is evaluated, where
    numpy's xGELSD set-up printed a line of its own before the error."""
    monkeypatch.setattr(design.resource, "getrlimit", lambda which: (1_500_000_000, -1))
    monkeypatch.setattr(design, "open", lambda path: io.StringIO("0\n"), raising=False)
    monkeypatch.setattr(
        basis_module, "_rows", lambda *args: pytest.fail("rows evaluated")
    )
    argv = ["study", "approx", "--methods", "MC", "--dimension", "40"]
    _fails_with(
        capsys,
        [*argv, "--degrees", "3", "--trials", "1", "-o", "-"],
        "MC degree 3 trial 0: the fit needs 2.59 GB, more than the 1.50 GB left "
        "under the process's address-space limit; use a lower degree or dimension",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "gaussian", "--degree", "2", "--fit", "elliptic"],
         "the elliptic benchmark needs uniform parameters in [-1, 1]^d"),
        (["--samples", "3", "--degree", "4", "--fit", "exp_negsumsq", "-o", "-"],
         "need at least 15 samples, got 3"),
    ],
    ids=["argv0-needs uniform parameters", "argv1-need at least 15 samples, got 3"],
)
def test_design_fit_that_cannot_run_writes_nothing(capsys, argv, message):
    argv = ["design", "--candidates", "200", "--surrogate-output", "-", *argv]
    _fails_with(capsys, argv, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--degree", "15", "--samples", "100", "--fit", "exp_negsumsq"],
         "need at least 136 samples, got 100"),
        (["--family", "gaussian", "--dimension", "4", "--rule", "HC", "--degree", "8",
          "--samples", "60", "--fit", "exp_negsumsq"],
         "need at least 73 samples, got 60"),
        (["--degree", "3", "--samples", "5", "--fit", "exp_negsumsq"],
         "need at least 10 samples, got 5"),
        (["--samples", "0"], "m_points must be positive"),
        (["--samples", "-4"], "m_points must be positive"),
    ],
)
def test_design_count_refusals_come_before_the_draw(monkeypatch, capsys, argv, message):
    """M and N are known before any candidate is drawn, so a fit with fewer
    samples than basis functions and a design of fewer than one point are
    refused with no draw."""
    monkeypatch.setattr(studies, "candidate_set", lambda *args: pytest.fail("drawn"))
    _fails_with(capsys, ["design", *argv, "-o", "-"], message)


def test_study_cell_enriches_its_set_once(monkeypatch):
    """A CFP or AFP cell builds its enriched set once for all its trials, and
    a Monte Carlo cell builds none: two degrees, three trials, 4 builds."""
    calls = []

    def counted(*args, _enrich=studies.enrich):
        calls.append(args[1])
        return _enrich(*args)

    monkeypatch.setattr(studies, "enrich", counted)
    argv = ["study", "cond", "--degrees", "2,3", "--trials", "3", "-o", "-"]
    assert main(argv) == 0
    assert calls == [1, 1, 1, 1]  # M - N: 7 - 6 and 11 - 10, CFP then AFP


@pytest.mark.parametrize("study", ["cond", "approx", "elliptic"])
def test_negative_seed_is_a_usage_error(capsys, study):
    argv = ["study", study, "--degrees", "1", "--trials", "1", "--candidates", "200"]
    _fails_with(capsys, argv + ["--seed", "-1", "-o", "-"], "seed must be nonnegative")


def test_repeated_degrees_or_methods_are_a_usage_error(capsys):
    """The CLI upper-cases methods, so CFP,cfp names one method twice."""
    argv = ["study", "cond", "--trials", "1", "--candidates", "200", "-o", "-"]
    for extra, message in (
        (["--degrees", "2,2"], "degrees has a duplicate: 2"),
        (["--degrees", "2", "--methods", "CFP,cfp"], "methods has a duplicate: 'CFP'"),
    ):
        _fails_with(capsys, argv + extra, message)


def test_study_error_names_its_cell(capsys):
    """Plain Hermite rows at 10k candidates span so many orders of magnitude
    that AFP reaches the rank floor early at degree 30; the message says
    which cell and trial failed."""
    argv = [
        "study", "cond", "--family", "gaussian", "--dimension", "1",
        "--degrees", "30", "--methods", "AFP", "--trials", "1", "-o", "-",
    ]
    _fails_with(
        capsys, argv,
        "AFP degree 30 trial 0: candidate rows reached rank 24 before 33 pivots",
    )


@pytest.mark.parametrize(
    "shape, cause",
    [((2**28, 2**28), "Unable to allocate "), (None, "out of memory")],
    ids=["numpy allocation", "bare MemoryError"],
)
def test_study_cell_out_of_memory_exits_2_naming_the_cell(
    monkeypatch, capsys, shape, cause
):
    """A Monte Carlo cell draws no candidates, so no size check runs before
    its rows; running out of memory there exits 2 with one line naming the
    cell. numpy's allocation error cannot be built from a message, and a
    bare MemoryError has none."""

    def out_of_memory(rows):
        if shape is None:
            raise MemoryError
        np.empty(shape)

    monkeypatch.setattr(studies, "condition_number", out_of_memory)
    argv = ["study", "cond", "--methods", "MC", "--degrees", "3", "--trials", "1"]
    assert _exit_code(argv + ["-o", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: MC degree 3 trial 0: {cause}")
    assert captured.err.count("\n") == 1


def test_design_fit_out_of_memory_exits_2(monkeypatch, capsys):
    def solve(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "_solver", lambda method: solve)
    argv = ["design", "--candidates", "200", "--fit", "exp_negsumsq", "-o", "-"]
    _fails_with(capsys, argv, "out of memory")


def test_study_with_bad_degree_budget(capsys):
    _fails_with(
        capsys,
        ["study", "cond", "--degrees", "9", "--candidates", "10", "-o", "-"],
        "CFP degree 9 trial 0: only 10 candidates for 58 points",
    )


@pytest.mark.parametrize(
    "line, option",
    [("rule = td", "--rule"), ("method = MC", "--method")],
)
def test_design_config_values_meet_flag_choices(tmp_path, capsys, line, option):
    cfg = tmp_path / "design.cfg"
    cfg.write_text(f"degree = 2\ncandidates = 200\n{line}\n")
    out = tmp_path / "design.json"
    assert _exit_code(["design", "--config", str(cfg), "-o", str(out)]) == 2
    assert f"argument {option}: invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("trials = many", "argument --trials: invalid int value"),
        ("degrees = 2:x", "argument --degrees: expected e.g. 2:15 or 2,4,8"),
    ],
)
def test_config_value_meets_flag_type(tmp_path, capsys, line, message):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(line + "\n")
    assert _exit_code(["study", "cond", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_design_negative_degree_is_refused_by_the_index_set(capsys):
    """design has one --degree, which total_degree checks; it is
    not a one-degree study, so the message names no --degrees."""
    _fails_with(
        capsys, ["design", "--degree", "-1", "-o", "-"],
        "need dimension >= 1 and degree >= 0",
    )


def test_design_checks_oversampling_like_study(capsys):
    argv = ["design", "--degree", "2", "--candidates", "200", "--oversampling", "0.99"]
    _fails_with(capsys, argv, "oversampling factor must be at least 1")


@pytest.mark.parametrize("factor", ["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["design", "--degree", "2"],
        ["study", "cond", "--degrees", "2", "--trials", "1"],
    ],
)
def test_nonfinite_oversampling_is_a_usage_error(capsys, command, factor):
    argv = command + ["--candidates", "200", "--oversampling", factor, "-o", "-"]
    _fails_with(capsys, argv, f"oversampling factor must be finite, got {factor}")


@pytest.mark.parametrize(
    "command",
    [
        ["design", "--degree", "2"],
        ["study", "cond", "--degrees", "2", "--trials", "1"],
    ],
)
def test_overflowing_oversampling_is_a_usage_error(capsys, command):
    argv = command + ["--candidates", "200", "--oversampling", "1e308", "-o", "-"]
    _fails_with(
        capsys, argv,
        "oversampling 1e+308 asks for inf points, more than the size guard of 10000000",
    )


def test_oversampling_meets_the_size_guard_read_in_multiindex(monkeypatch, capsys):
    """The study reads the set-size guard in multiindex at each call, so a
    guard patched there refuses M = ceil(30 * 6) before the set is enriched."""
    monkeypatch.setattr(multiindex, "MAX_SET_SIZE", 100)
    _fails_with(
        capsys,
        ["study", "cond", "--degrees", "2", "--oversampling", "30", "--methods", "CFP",
         "--trials", "1", "-o", "-"],
        "oversampling 30.0 asks for 180 points, more than the size guard of 100",
    )


def test_design_json_is_strict_when_det_overflows(capsys):
    code = main(
        ["design", "--family", "gaussian", "--dimension", "4", "--rule", "HC",
         "--degree", "16", "--method", "afp", "--candidates", "1000", "-o", "-"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["det_modulus"] is None  # beyond the float range
    assert None in payload["objective_trace"]
    finite = [v for v in payload["objective_trace"] if v is not None]
    assert finite and all(v > 0 for v in finite)


@pytest.mark.parametrize(
    "family, dimension, rule, degree, method, sizing, m_points",
    [
        # --samples is the exact count, whatever the oversampling
        ("uniform", 2, "TD", 4, "cfp", ["--oversampling", "1.5", "--samples", "20"], 20),
        ("uniform", 2, "HC", 6, "cfp", ["--oversampling", "1.3"], 21),  # ceil(1.3 * 16)
        ("gaussian", 3, "TD", 2, "afp", ["--oversampling", "1.5"], 15),
        ("gaussian", 2, "HC", 5, "cfp", ["--samples", "14"], 14),  # M = N, no enrichment
    ],
)
def test_design_matches_library_selection(
    capsys, family, dimension, rule, degree, method, sizing, m_points
):
    seed, n_candidates = 17, 600
    code = main(
        ["design", "--family", family, "--dimension", str(dimension),
         "--rule", rule, "--degree", str(degree), "--method", method,
         "--candidates", str(n_candidates), "--seed", str(seed), *sizing,
         "-o", "-"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)

    build = total_degree if rule == "TD" else hyperbolic_cross
    lam = build(dimension, degree)
    # a second, library-level derivation of the CLI's enriched space, on purpose
    lam_tilde = enrich(lam, m_points - len(lam)) if m_points > len(lam) else lam
    cands = candidate_set(
        DensitySpec(family), dimension, n_candidates, lam_tilde.max_degree, seed
    )
    select = cfp_select if method == "cfp" else afp_select
    expected = select(cands, lam_tilde, m_points)
    assert payload["pivot_order"] == list(expected.pivot_order)
    assert payload["seed"] == seed  # the candidate seed is --seed itself
