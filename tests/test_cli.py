import numpy as np
import pytest

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


def test_cfl_violation_exits_nonzero(capsys):
    code = cli_main(
        ["--study", "single", "--h", "0.25", "--tau", "0.5", "--iota", "0.001"]
    )
    assert code == EXIT_CFL
    err = capsys.readouterr().err
    assert "stability bound" in err


def test_unknown_flag_exits_nonzero(capsys):
    code = cli_main(["--study", "single", "--frobnicate"])
    assert code != 0


def test_missing_required_parameters(capsys):
    assert cli_main(["--study", "single"]) == EXIT_CONFIG
    assert cli_main([]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_characteristics_requires_quadratic(capsys):
    code = cli_main(["--study", "characteristics", "--element", "p1", "--levels", "1,2"])
    assert code == EXIT_CONFIG


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
