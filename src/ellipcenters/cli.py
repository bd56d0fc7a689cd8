"""Command-line front end.

Subcommands::

    run      one experiment (instance + requested solvers), traces to --out
    compare  all four solvers on one instance, comparison table to stdout
    verify   fresh experiment + full audit suite, report to stdout
    gen      emit a problem instance file

Every flag can also be supplied through a JSON config file (--config);
explicit flags win on conflict.  Exit codes: 0 success, 1 solver failure,
2 audit failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .harness import (ExperimentSpec, build_problem, run_experiment,
                      verify_experiment)
from .objectives import save_logreg, save_quadratic
from .solvers import RunStatus, SolverConfig, SolverId

USAGE_ERROR = 64

_DEFAULTS = {
    "problem": "logreg",
    "n": 100,
    "m": None,
    "kappa": 10.0,
    "seed": 0,
    "solver": None,
    "eps": 1e-6,
    "max_outer": 100000,
    "out": None,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors surface as exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--problem", choices=["quadratic", "logreg"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--solver", action="append",
                   choices=[s.value for s in SolverId])
    p.add_argument("--eps", type=float)
    p.add_argument("--max-outer", type=int, dest="max_outer")
    p.add_argument("--out", type=Path)
    p.add_argument("--config", type=Path,
                   help="JSON file mirroring the flags; flags win on conflict")


def build_parser() -> _Parser:
    parser = _Parser(prog="ellipcenters",
                     description="Ellipcenter solver experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [("run", "run one experiment"),
                       ("compare", "multi-solver comparison table"),
                       ("verify", "run the full diagnostics audit suite"),
                       ("gen", "emit a problem instance file")]:
        _add_common_flags(sub.add_parser(name, help=desc))
    return parser


def _resolve(args) -> dict:
    settings = dict(_DEFAULTS)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file: {exc}")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in settings:
                raise _UsageError(f"unknown config key {key!r}")
            settings[key] = value
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    kappa, eps = settings["kappa"], settings["eps"]
    if kappa is None or not (1.0 < kappa < math.inf):
        raise _UsageError(f"--kappa must exceed 1 and be finite, got {kappa}")
    if settings["n"] is None or settings["n"] < 1:
        raise _UsageError(f"--n must be positive, got {settings['n']}")
    if not (0.0 < eps < math.inf) or settings["max_outer"] < 1:
        raise _UsageError("--eps must be positive and finite and --max-outer "
                          f"at least 1, got {eps} and {settings['max_outer']}")
    return settings


def _make_spec(settings: dict, default_solvers: list[SolverId]) -> ExperimentSpec:
    solvers = settings["solver"] or default_solvers
    return ExperimentSpec(
        problem=settings["problem"], n=settings["n"], m=settings["m"],
        kappa=settings["kappa"], seed=settings["seed"],
        solvers=[SolverId(s) for s in solvers],
        config=SolverConfig(eps=settings["eps"],
                            max_outer=settings["max_outer"]),
        output_dir=settings["out"])


def _cmd_run(settings: dict) -> int:
    spec = _make_spec(settings, [SolverId.ME])
    result = run_experiment(spec)
    print(result.summary_text())
    ok = all(t.status is RunStatus.CONVERGED for t in result.traces.values())
    return 0 if ok else 1


def _cmd_compare(settings: dict) -> int:
    spec = _make_spec(settings, list(SolverId))
    result = run_experiment(spec)
    print(result.summary_text())
    if result.reference.quality_warning:
        print(f"warning: reference residual {result.reference.residual:.3e} "
              "exceeds 1e-10; terminal gaps are approximate")
    ok = all(t.status is RunStatus.CONVERGED for t in result.traces.values())
    return 0 if ok else 1


def _cmd_verify(settings: dict) -> int:
    spec = _make_spec(settings, [SolverId.ME])
    result, report = verify_experiment(spec)
    print(result.summary_text())
    print()
    print(report.to_text())
    if spec.output_dir is not None:
        import csv
        path = spec.output_dir / "audit.csv"
        rows = report.to_csv_rows()
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path}")
    trace = result.traces[SolverId.ME.value]
    if trace.status is not RunStatus.CONVERGED:
        return 1
    return 0 if report.passed else 2


def _cmd_gen(settings: dict) -> int:
    spec = _make_spec(settings, [SolverId.ME])
    _, prob = build_problem(spec)
    out = settings["out"] or Path(f"{spec.problem}_n{spec.n}_seed{spec.seed}.txt")
    if spec.problem == "logreg":
        save_logreg(prob, out)
    else:
        save_quadratic(prob, out)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _resolve(args)
        handler = {"run": _cmd_run, "compare": _cmd_compare,
                   "verify": _cmd_verify, "gen": _cmd_gen}[args.command]
        return handler(settings)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
