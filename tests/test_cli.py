import dataclasses

import numpy as np
import pytest

from pbemoc import cli
from pbemoc.cli import EXIT_CFL, EXIT_CONFIG, EXIT_OK, EXIT_USAGE, _build_parser, _parse, cli_main


def table_rows(path):
    """Data rows of a table written with --out, each as its list of fields."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def test_convergence_study_writes_csv(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = cli_main(
        [
            "--study", "convergence",
            "--element", "p1",
            "--levels", "1,2",
            "--coupling", "h2",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = table_rows(out)
    assert len(rows) == 2
    assert float(rows[0][0]) == 0.5 and float(rows[1][0]) == 0.25
    stdout = capsys.readouterr().out
    assert "l2_error" in stdout
    # the file holds the printed table, byte for byte
    assert stdout == out.read_text() + f"wrote {out}\n"


def test_single_run_with_workers(capsys):
    code = cli_main(
        ["--study", "single", "--h", "0.25", "--tau", "0.0625", "--iota", "0.0625", "--workers", "2"]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "2 pipelined workers" in stdout
    assert "L2 error" in stdout and "H1 error" in stdout


@pytest.mark.parametrize("workers, mode", [(None, "sequential"), ("1", "sequential"), ("2", "2 pipelined workers")])
def test_single_run_labels_the_mode_it_runs(capsys, workers, mode):
    # run_single runs a count of one sequentially, and the label says so
    args = ["--study", "single", "--h", "0.5", "--tau", "0.25", "--iota", "0.25"]
    assert cli_main(args + ([] if workers is None else ["--workers", workers])) == EXIT_OK
    assert f"single run ({mode}):" in capsys.readouterr().out


def test_cfl_violation_exits_nonzero(capsys):
    code = cli_main(
        ["--study", "single", "--h", "0.25", "--tau", "0.5", "--iota", "0.001"]
    )
    assert code == EXIT_CFL
    err = capsys.readouterr().err
    assert "stability bound" in err


def test_initial_data_that_do_not_vanish_on_the_boundary_are_a_configuration_error(capsys, monkeypatch):
    # slice m=2 (l = 0.5) of the initial data is 1 everywhere, the boundary included
    problem = cli.mms_problem()
    bad = dataclasses.replace(problem, z_init=lambda l, x, y: np.where(l == 0.5, 1.0, problem.z_init(l, x, y)))
    monkeypatch.setattr(cli, "mms_problem", lambda: bad)
    assert cli_main(["--study", "single", "--h", "0.25", "--tau", "0.25", "--iota", "0.25"]) == EXIT_CONFIG
    assert "projected data must vanish on the boundary" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero(capsys):
    code = cli_main(["--study", "single", "--frobnicate"])
    assert code != 0


def test_missing_required_parameters(capsys):
    assert cli_main(["--study", "single"]) == EXIT_CONFIG
    assert cli_main([]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--study", "single", "--element", "p1", "--h", "1", "--tau", "0.25", "--iota", "0.25"],
        ["--study", "convergence", "--element", "p1", "--levels", "0,1", "--coupling", "equal"],
    ],
    ids=["single", "convergence"],
)
def test_a_mesh_with_no_free_dof_is_a_configuration_error(capsys, args):
    # P1 with h = 1 has all 4 nodes on the boundary
    assert cli_main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "the order-1 mesh of h=1 has no free DOF: all 4 nodes lie on the boundary" in err


def test_characteristics_requires_quadratic(capsys):
    # the study fixes P2 with tau = iota = h, so neither flag is read, whatever its value
    for flag, value in (("--element", "p1"), ("--element", "p2"), ("--coupling", "equal")):
        code = cli_main(["--study", "characteristics", flag, value, "--levels", "1,2"])
        assert code == EXIT_CONFIG
        assert f"the characteristics study does not read {flag}" in capsys.readouterr().err


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# benchmark configuration\n"
        "study = convergence\n"
        "element = p1\n"
        "levels = 1\n"
        "coupling = h2\n"
    )
    out = tmp_path / "out.csv"
    code = cli_main(["--config", str(cfg), "--levels", "2", "--out", str(out)])
    assert code == EXIT_OK
    rows = table_rows(out)
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.25  # the explicit flag overrode the file's level 1


@pytest.mark.parametrize(
    "entries, code",
    [
        # file values reach the study with the flags' types
        ({"study": "single", "h": "0.5", "tau": "0.25", "iota": "0.25"}, EXIT_OK),
        # and are checked against the flags' choices
        ({"study": "banana"}, EXIT_USAGE),
        ({"study": "single", "element": "p3"}, EXIT_USAGE),
    ],
    ids=["numbers", "bad-study", "bad-element"],
)
def test_config_file_values_behave_like_the_same_flags(tmp_path, capsys, entries, code):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    assert cli_main(["--config", str(cfg)]) == code
    from_file = capsys.readouterr()
    flags = [token for key, value in entries.items() for token in (f"--{key}", value)]
    assert cli_main(flags) == code
    from_flags = capsys.readouterr()
    assert (from_file.out, from_file.err) == (from_flags.out, from_flags.err)


OPTIONS = [a for a in _build_parser()._actions if a.option_strings and a.dest not in ("help", "config")]


@pytest.mark.parametrize("action", OPTIONS, ids=[a.dest for a in OPTIONS])
def test_every_option_parses_the_same_from_a_config_file(tmp_path, action):
    # "3" is a valid value of every option without choices
    value = action.choices[-1] if action.choices else "3"
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{action.dest} = {value}\n")
    parser = _build_parser()
    from_file = vars(_parse(parser, ["--config", str(cfg)]))
    from_flag = vars(_parse(parser, [action.option_strings[-1], value]))
    assert from_file.pop("config") == str(cfg) and from_flag.pop("config") is None
    assert from_file == from_flag
    assert from_file[action.dest] != parser.get_default(action.dest)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("studyy = single\n")
    assert cli_main(["--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err


def test_snapshots_written_for_single_run(tmp_path, capsys):
    code = cli_main(
        [
            "--study", "single",
            "--h", "0.5",
            "--tau", "0.25",
            "--iota", "0.25",
            "--snapshots", "0,4",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["surface_n00000.txt", "surface_n00004.txt"]
    first = (tmp_path / "surface_n00000.txt").read_text().splitlines()[0].split()
    assert len(first) == 3


def test_snapshots_with_workers_exit_with_a_configuration_error(tmp_path, capsys):
    code = cli_main(
        [
            "--study", "single",
            "--h", "0.5",
            "--tau", "0.25",
            "--iota", "0.25",
            "--workers", "2",
            "--snapshots", "0,4",
            "--out", str(tmp_path / "snapshots"),
        ]
    )
    assert code == EXIT_CONFIG
    assert "sequential" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # not even the output directory


def test_final_time_flag_reaches_convergence_studies(capsys):
    args = ["--study", "convergence", "--element", "p1", "--levels", "1,2", "--coupling", "equal"]
    tables = []
    for extra in ([], ["--T", "1"], ["--T", "0.5"]):
        assert cli_main(args + extra) == EXIT_OK
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]  # the problem's final time is 1
    assert tables[2] != tables[1]


def test_scaling_study_csv(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    code = cli_main(
        [
            "--study", "scaling",
            "--workers", "1,2",
            "--h", "0.25",
            "--iota", "0.0625",
            "--steps", "4",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = table_rows(out)
    assert [int(r[0]) for r in rows] == [1, 2]
    assert float(rows[0][2]) == pytest.approx(1.0)
    # the file holds the printed table, byte for byte
    assert capsys.readouterr().out == out.read_text() + f"wrote {out}\n"


def test_scaling_with_a_non_dividing_iota_exits_with_a_configuration_error(capsys):
    # 0.3 does not divide [0, 1]; the run must not fall back to another spacing
    code = cli_main(
        ["--study", "scaling", "--workers", "1", "--h", "0.5", "--iota", "0.3", "--steps", "1"]
    )
    assert code == EXIT_CONFIG
    assert "iota=0.3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "steps, named",
    [
        (["--h", "0.5", "--tau", "5e-324", "--iota", "0.25"], "tau=5e-324"),
        (["--h", "0.5", "--tau", "0.25", "--iota", "5e-324"], "iota=5e-324"),
        (["--h", "1e-300", "--tau", "0.25", "--iota", "0.25"], "h=1e-300"),
    ],
    ids=["tau", "iota", "h"],
)
def test_a_step_above_the_count_cap_exits_with_a_configuration_error_naming_it(capsys, steps, named):
    assert cli_main(["--study", "single", *steps]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"pbemoc: configuration error: {named} makes ")
    assert "at most 2147483648 are allowed" in captured.err and captured.out == ""


@pytest.mark.parametrize("flag", ["--steps", "--block"])
def test_a_count_below_one_is_a_usage_error_naming_the_flag(capsys, flag):
    args = ["--study", "scaling", "--mode", "weak", "--h", "0.5", "--steps", "1", flag, "0"]
    assert cli_main(args) == EXIT_USAGE
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--study", "single", "--h", "0.5", "--tau", "0.25", "--iota", "0.25", "--workers=-2"],
        ["--study", "single", "--h", "0.5", "--tau", "0.25", "--iota", "0.25", "--workers", "0"],
        ["--study", "convergence", "--levels", "1", "--workers=-1"],
        ["--study", "scaling", "--h", "0.5", "--steps", "1", "--workers", "1,0"],
    ],
    ids=["single-negative", "single-zero", "convergence", "scaling"],
)
def test_a_worker_count_below_one_is_a_usage_error_naming_the_flag(capsys, args):
    assert cli_main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "argument --workers: must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--workers", "abc"),
        ("--workers", "2,x"),
        ("--steps", "1.5"),
        ("--block", "two"),
        ("--snapshots", "0,abc"),
        ("--levels", "2,k"),
    ],
)
def test_a_non_integer_is_a_usage_error_naming_only_the_flag(capsys, flag, value):
    args = ["--study", "scaling", "--h", "0.5", "--steps", "1", f"{flag}={value}"]
    assert cli_main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    bad = value.split(",")[-1]
    assert f"argument {flag}: expected an integer, got {bad!r}" in captured.err
    assert "_count" not in captured.err and "_int" not in captured.err and "invalid" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["--study", "single", "--h", "0.5", "--tau", "0.25", "--iota", "0.25", "--workers", "2,3"],
        ["--study", "convergence", "--levels", "1,2", "--workers", "1,2"],
        ["--study", "characteristics", "--levels", "1,2", "--workers", "1,2"],
    ],
    ids=["single", "convergence", "characteristics"],
)
def test_several_worker_counts_outside_scaling_exit_with_a_configuration_error(capsys, args):
    assert cli_main(args) == EXIT_CONFIG
    assert "workers" in capsys.readouterr().err


def test_iterative_solver_flag(capsys):
    code = cli_main(
        [
            "--study", "single",
            "--h", "0.25",
            "--tau", "0.125",
            "--iota", "0.125",
            "--solver", "iterative",
            "--solver-tol", "1e-10",
        ]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("source", ["flags", "config"])
def test_a_tolerance_for_the_direct_solver_is_a_configuration_error_naming_the_flag(tmp_path, capsys, source):
    run = ["--study", "single", "--h", "0.25", "--tau", "0.125", "--iota", "0.125"]
    if source == "flags":
        args = run + ["--solver", "direct", "--solver-tol", "1e-8"]
    else:
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("solver = direct\nsolver-tol = 1e-8\n")
        args = run + ["--config", str(cfg)]
    assert cli_main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--solver-tol" in captured.err and captured.out == ""


def test_list_flags_skip_empty_entries():
    args = _parse(_build_parser(), ["--levels", "2,3,", "--workers", "1,2,", "--snapshots", "0,4,"])
    assert args.levels == (0.25, 0.125)
    assert args.workers == (1, 2)
    assert args.snapshots == (0, 4)


# a value every study that reads the flag accepts; out is a path under tmp_path
VALID = {
    "element": "p1",
    "h": "0.5",
    "tau": "0.25",
    "iota": "0.25",
    "levels": "1",
    "coupling": "equal",
    "workers": "1",
    "T": "1",
    "snapshots": "0",
    "mode": "weak",
    "block": "2",
    "steps": "1",
    "solver": "iterative",
    "solver_tol": "1e-10",
}


def flag_args(dest, value):
    return ["--" + dest.replace("_", "-"), value]


@pytest.mark.parametrize("study", sorted(cli.STUDY_FLAGS))
def test_a_study_runs_with_every_flag_it_reads_and_rejects_every_other(tmp_path, capsys, study):
    words = study.split()  # "strong scaling" is --study scaling --mode strong
    values = dict(VALID, study=words[-1], mode=words[0], out=str(tmp_path / "out"))
    read = cli.STUDY_FLAGS[study] - {"config"}
    args = [token for dest in sorted(read) for token in flag_args(dest, values[dest])]
    assert cli_main(args) == EXIT_OK, capsys.readouterr().err
    capsys.readouterr()
    others = sorted(set(VALID) - read)
    assert others  # every study leaves some flag unread
    for dest in others:
        flag = "--" + dest.replace("_", "-")
        assert cli_main(args + flag_args(dest, VALID[dest])) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"the {study} study does not read {flag}" in captured.err, dest
        assert captured.out == ""
        # a config file goes through the same table
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(f"{dest} = {VALID[dest]}\n")
        assert cli_main(args + ["--config", str(cfg)]) == EXIT_CONFIG
        assert f"does not read {flag}" in capsys.readouterr().err


def test_study_flags_are_the_flags_of_the_study_function_s_parameters():
    own = {"study", "config", "out"}  # the CLI's; --out sets a single run's snapshot_dir
    solver = {"solver", "solver_tol"}
    assert cli.STUDY_FLAGS == {
        "single": own | solver | {"element", "h", "tau", "iota", "workers", "T", "snapshots"},
        "convergence": own | solver | {"element", "levels", "coupling", "workers", "T"},
        "characteristics": own | solver | {"levels", "workers", "T"},
        "strong scaling": own | solver | {"mode", "element", "workers", "h", "iota", "steps"},
        "weak scaling": own | solver | {"mode", "element", "workers", "h", "block", "steps"},
    }


def test_every_flag_given_that_the_study_does_not_read_is_named(capsys):
    args = ["--study", "scaling", "--workers", "1", "--h", "0.5", "--iota", "0.25", "--steps", "1"]
    extra = ["--T", "5", "--tau", "0.3", "--levels", "3", "--snapshots", "1"]
    assert cli_main(args + extra) == EXIT_CONFIG
    assert "the strong scaling study does not read --tau, --levels, --T, --snapshots" in capsys.readouterr().err


SINGLE = ["--study", "single", "--h", "0.5", "--tau", "0.25", "--iota", "0.25"]


def test_a_single_run_s_out_without_snapshots_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "snapshots"
    assert cli_main(SINGLE + ["--out", str(out)]) == EXIT_CONFIG
    assert "given without steps (--snapshots)" in capsys.readouterr().err
    assert not out.exists()


def test_snapshot_steps_outside_the_time_grid_are_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "snapshots"
    assert cli_main(SINGLE + ["--snapshots", "0,4,7,-1", "--out", str(out)]) == EXIT_CONFIG
    assert "snapshot steps [-1, 7] lie outside 0..4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--study", "single", "--h", "0.5", "--tau", "0", "--iota", "0.25"], "tau=0.0 must be positive"),
        (["--study", "single", "--h", "0.5", "--tau", "0.25", "--iota", "0"], "iota=0.0 must be positive"),
        (["--study", "single", "--h", "0.5", "--tau", "nan", "--iota", "0.25"], "tau=nan must be positive"),
        (["--study", "single", "--h", "0", "--tau", "0.25", "--iota", "0.25"], "h=0.0 must be positive"),
        (["--study", "scaling", "--workers", "1", "--h", "0.5", "--iota", "0", "--steps", "1"], "iota=0.0 must be positive"),
    ],
    ids=["single-tau", "single-iota", "single-tau-nan", "single-h", "scaling-iota"],
)
def test_a_step_that_is_not_positive_is_a_configuration_error_naming_it(capsys, args, message):
    assert cli_main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"pbemoc: configuration error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("T", ["inf", "nan"])
@pytest.mark.parametrize(
    "args",
    [
        ["--study", "single", "--h", "0.5", "--tau", "0.25", "--iota", "0.25"],
        ["--study", "convergence", "--levels", "1"],
    ],
    ids=["single", "convergence"],
)
def test_a_final_time_that_is_not_finite_is_a_configuration_error_naming_it(capsys, args, T):
    assert cli_main(args + ["--T", T]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"pbemoc: configuration error: the final time {T} must be finite and positive\n"
    assert captured.out == ""
