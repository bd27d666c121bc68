"""Command line driver for the studies.

Examples
--------
Convergence table for linear elements (mesh sizes 2^-2..2^-4, tau = iota = h^2):

    pbemoc --study convergence --element p1 --levels 2,3,4 --coupling h2 --out t1.csv

One run with four pipelined workers:

    pbemoc --study single --h 0.125 --tau 0.0625 --iota 0.0625 --workers 4

Flags may also be given in a plain `key = value` config file; each entry is
parsed as the flag `--key=value` ahead of the command line, so file values
are checked like flags and explicit flags win.  A study reads the flags of
its function's parameters (STUDY_FLAGS) and rejects any other flag, from the
command line or from a file.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .characteristics import CflViolationError
from .fem import SolveFailure, SolverConfig
from .harness import (
    characteristics_study,
    convergence_study,
    format_convergence_rows,
    format_scaling_rows,
    mms_problem,
    run_single,
    strong_scaling_study,
    weak_scaling_study,
)
from .pipeline import PipelineError

__all__ = ["cli_main", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CFL = 3
EXIT_SOLVER = 4
EXIT_CONFIG = 5


def _int(text: str) -> int:
    """An integer, or a usage error that argparse reports under the flag's name."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_int(v) for v in text.split(",") if v.strip())


def _count(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _count_list(text: str) -> tuple[int, ...]:
    return tuple(_count(v) for v in text.split(",") if v.strip())


def _mesh_levels(text: str) -> tuple[float, ...]:
    """Exponents k1,k2,... as the mesh sizes 2^-k."""
    return tuple(2.0 ** -k for k in _int_list(text))


STUDIES = {
    "single": run_single,
    "convergence": convergence_study,
    "characteristics": characteristics_study,
    "strong scaling": strong_scaling_study,
    "weak scaling": weak_scaling_study,
}
PARAMETERS = {study: inspect.signature(function).parameters for study, function in STUDIES.items()}
DEFAULT_MODE = "strong"

# the study parameter each flag sets, by parser dest.  --out is a single
# run's snapshot directory and the table file of every other study.
PARAMETER_OF = dict(
    {dest: dest for dest in ("h", "tau", "iota", "levels", "coupling", "workers", "T", "block", "steps")},
    element="order", snapshots="snapshot_steps", out="snapshot_dir", solver="solver", solver_tol="solver",
)


def _scaling_default(name: str):
    return PARAMETERS["weak scaling"][name].default


# the flags each study reads: those that set one of its function's
# parameters, the CLI's own --study, --config and --out, and --mode for
# scaling.  Any other flag given, on the command line or in a config file,
# is a configuration error.
STUDY_FLAGS = {
    study: {dest for dest, name in PARAMETER_OF.items() if name in PARAMETERS[study]}
    | {"study", "config", "out"}
    | ({"mode"} if study.endswith("scaling") else set())
    for study in STUDIES
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pbemoc",
        description="Population balance solver studies on the built-in benchmark problem.",
    )
    p.add_argument("--study", choices=["single", "convergence", "characteristics", "scaling"])
    p.add_argument("--element", choices=["p1", "p2"], help="element order (default p1)")
    p.add_argument("--h", type=float, help="mesh size for single/scaling runs")
    p.add_argument("--tau", type=float, help="time step for single runs")
    p.add_argument("--iota", type=float, help="internal-coordinate spacing")
    p.add_argument("--levels", type=_mesh_levels, help="comma-separated exponents k meaning h = 2^-k")
    p.add_argument("--coupling", choices=["h2", "h3", "equal"], help="rule for (tau, iota) from h")
    p.add_argument("--workers", type=_count_list, help="worker count, or comma list for scaling")
    p.add_argument("--T", type=float, help="final time of single and convergence runs (default 1)")
    p.add_argument("--out", help="file for the printed table (single runs: snapshot directory)")
    p.add_argument("--config", help="key = value file supplying defaults for the study's flags")
    p.add_argument("--snapshots", type=_int_list, help="time-step indices to export (sequential runs)")
    p.add_argument("--mode", choices=["strong", "weak"], help=f"scaling mode (default {DEFAULT_MODE})")
    p.add_argument("--block", type=_count, help=f"per-worker block for weak scaling (default {_scaling_default('block')})")
    p.add_argument("--steps", type=_count, help=f"time steps of scaling runs (default {_scaling_default('steps')})")
    p.add_argument("--solver", choices=["direct", "iterative"], help="linear solver (default direct)")
    p.add_argument("--solver-tol", type=float, help="iterative solver tolerance (default 1e-10)")
    return p


def _check_flags_read(args, study: str) -> None:
    """Raise ValueError naming every flag given that the study does not read."""
    unread = [dest for dest, value in vars(args).items() if value is not None and dest not in STUDY_FLAGS[study]]
    if unread:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in unread)
        raise ValueError(f"the {study} study does not read {flags}")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; with --config, again with the file's entries as flags ahead of argv.

    File values thus pass the flags' types and choices, and a flag on the
    command line wins because argparse keeps the last occurrence.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    flags = {a.dest: a.option_strings[-1] for a in parser._actions if a.dest not in ("help", "config")}
    file_values = _read_config_file(args.config)
    unknown = set(file_values) - set(flags)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return parser.parse_args([f"{flags[key]}={value}" for key, value in file_values.items()] + argv)


def cli_main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(_parse(parser, argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"pbemoc: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CflViolationError as exc:
        print(f"pbemoc: stability bound violated: {exc}", file=sys.stderr)
        return EXIT_CFL
    except (SolveFailure, PipelineError) as exc:
        print(f"pbemoc: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _solver_from(args) -> SolverConfig | None:
    if args.solver is None and args.solver_tol is None:
        return None
    if args.solver == "direct" and args.solver_tol is not None:
        raise ValueError(
            f"--solver-tol={args.solver_tol:g} applies to the iterative solver, not --solver=direct"
        )
    tol = {} if args.solver_tol is None else {"tol": args.solver_tol}
    return SolverConfig(mode=args.solver or "iterative", **tol)


def _emit(text: str, out: str | None) -> int:
    """Print a study table and, with --out, write the same text to that file."""
    print(text, end="")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    return EXIT_OK


def _study_arguments(args, study: str) -> dict:
    """The flags given that set a parameter of the study's function, as its
    keyword arguments; ValueError naming the flags of a missing one."""
    parameters = PARAMETERS[study]
    given = {
        PARAMETER_OF[dest]: value
        for dest, value in vars(args).items()
        if value is not None and PARAMETER_OF.get(dest) in parameters
    }
    missing = [
        "--" + dest
        for dest, name in PARAMETER_OF.items()
        if name in parameters and parameters[name].default is inspect.Parameter.empty and name not in given
    ]
    if missing:
        raise ValueError(f"{study} study requires {', '.join(missing)}")
    if "order" in given:
        given["order"] = {"p1": 1, "p2": 2}[given["order"]]
    if "solver" in given:
        given["solver"] = _solver_from(args)
    if "workers" in given and not study.endswith("scaling"):
        counts = given["workers"]
        if len(counts) > 1:
            raise ValueError(f"--workers={','.join(map(str, counts))}: only scaling studies take several counts")
        given["workers"] = counts[0] if counts else None
    return given


def _dispatch(args) -> int:
    if args.study is None:
        raise ValueError("--study is required (single, convergence, characteristics, scaling)")
    study = f"{args.mode or DEFAULT_MODE} scaling" if args.study == "scaling" else args.study
    _check_flags_read(args, study)
    given = _study_arguments(args, study)
    result = STUDIES[study](problem=mms_problem(), **given)
    if study == "single":
        l2, h1 = result
        # run_single's rule: a count of 1 runs sequentially
        workers = given.get("workers")
        mode = f"{workers} pipelined workers" if workers not in (None, 1) else "sequential"
        print(f"single run ({mode}): h={args.h:g} tau={args.tau:g} iota={args.iota:g}")
        print(f"  worst-slice L2 error: {l2:.6E}")
        print(f"  worst-slice H1 error: {h1:.6E}")
        return EXIT_OK
    table = format_scaling_rows if args.study == "scaling" else format_convergence_rows
    return _emit(table(result), args.out)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
