"""Command line driver for the studies.

Examples
--------
Convergence table for linear elements (mesh sizes 2^-2..2^-4, tau = iota = h^2):

    pbemoc --study convergence --element p1 --levels 2,3,4 --coupling h2 --out t1.csv

One run with four pipelined workers:

    pbemoc --study single --h 0.125 --tau 0.0625 --iota 0.0625 --workers 4

Flags may also be given in a plain `key = value` config file; each entry is
parsed as the flag `--key=value` ahead of the command line, so file values
are checked like flags and explicit flags win.  A study rejects any flag it
does not read (STUDY_FLAGS), from the command line or from a file.
"""

from __future__ import annotations

import argparse
import sys

from .characteristics import CflViolationError
from .fem import SolveFailure, SolverConfig
from .harness import (
    StudyConfig,
    characteristics_study,
    convergence_study,
    format_convergence_rows,
    format_scaling_rows,
    mms_problem,
    run_single,
    scaling_study,
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
    p.add_argument("--mode", choices=["strong", "weak"], help=f"scaling mode (default {StudyConfig.scaling_mode})")
    p.add_argument("--block", type=_count, help=f"per-worker block for weak scaling (default {StudyConfig.block})")
    p.add_argument("--steps", type=_count, help=f"time steps of scaling runs (default {StudyConfig.n_steps})")
    p.add_argument("--solver", choices=["direct", "iterative"], help="linear solver (default direct)")
    p.add_argument("--solver-tol", type=float, help="iterative solver tolerance (default 1e-10)")
    return p


# the flags each study reads, by parser dest; scaling by mode.  Any other
# flag given, on the command line or in a config file, is a configuration error.
_EVERY_STUDY = {"study", "config", "element", "workers", "out", "solver", "solver_tol"}
STUDY_FLAGS = {
    "single": _EVERY_STUDY | {"h", "tau", "iota", "T", "snapshots"},
    "convergence": _EVERY_STUDY | {"levels", "coupling", "T"},
    "characteristics": _EVERY_STUDY | {"levels", "coupling", "T"},
    "strong scaling": _EVERY_STUDY | {"mode", "h", "iota", "steps"},
    "weak scaling": _EVERY_STUDY | {"mode", "h", "block", "steps"},
}


def _check_flags_read(args) -> None:
    """Raise ValueError naming every flag given that the chosen study does not read."""
    study = f"{args.mode or StudyConfig.scaling_mode} scaling" if args.study == "scaling" else args.study
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


def _dispatch(args) -> int:
    if args.study is None:
        raise ValueError("--study is required (single, convergence, characteristics, scaling)")
    _check_flags_read(args)
    study = args.study
    order = {"p1": 1, "p2": 2, None: 1}[args.element]
    solver = _solver_from(args)

    if study == "single":
        if args.h is None or args.tau is None or args.iota is None:
            raise ValueError("single study requires --h, --tau and --iota")
        if args.workers and len(args.workers) > 1:
            counts = ",".join(map(str, args.workers))
            raise ValueError(f"--workers={counts}: only scaling studies take several counts")
        workers = args.workers[0] if args.workers else None
        l2, h1 = run_single(
            mms_problem(),
            args.h,
            args.tau,
            args.iota,
            order,
            workers,
            T=args.T,
            solver=solver,
            snapshot_steps=args.snapshots or (),
            snapshot_dir=args.out,
        )
        # run_single's rule: a count of 1 runs sequentially
        mode = f"{workers} pipelined workers" if workers not in (None, 1) else "sequential"
        print(f"single run ({mode}): h={args.h:g} tau={args.tau:g} iota={args.iota:g}")
        print(f"  worst-slice L2 error: {l2:.6E}")
        print(f"  worst-slice H1 error: {h1:.6E}")
        return EXIT_OK

    if study in ("convergence", "characteristics"):
        if not args.levels:
            raise ValueError(f"{study} study requires --levels")
        coupling = args.coupling or ("equal" if study == "characteristics" else "h2")
        if study == "characteristics":
            order = 2 if args.element is None else order
        config = StudyConfig(
            element_order=order,
            levels=args.levels,
            coupling=coupling,
            workers=args.workers or (),
            T=args.T,
            solver=solver,
        )
        rows = characteristics_study(config) if study == "characteristics" else convergence_study(config)
        return _emit(format_convergence_rows(rows), args.out)

    # scaling: StudyConfig holds the defaults of the flags not given
    given = dict(scaling_mode=args.mode, block=args.block, n_steps=args.steps)
    config = StudyConfig(
        element_order=order, workers=args.workers or (), h=args.h, iota=args.iota, solver=solver,
        **{key: value for key, value in given.items() if value is not None},
    )
    return _emit(format_scaling_rows(scaling_study(config)), args.out)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
