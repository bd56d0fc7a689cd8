"""Command-line front end.

Subcommands::

    run      one experiment (instance + requested solvers), traces to --out
    compare  all four solvers on one instance, comparison table to stdout
    verify   fresh experiment + full audit suite, report to stdout
    gen      emit a problem instance file

Every flag can also be supplied through a JSON config file (--config),
under its name with ``-`` or ``_``; explicit flags win on conflict.  Exit
codes: 0 success, 1 solver failure, 2 audit failure, 64 usage error (a bad
flag or config file, input the library rejects, or an --out that cannot be
written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (ExperimentSpec, build_problem, run_experiment,
                      verify_experiment)
from .objectives import save_logreg, save_quadratic
from .solvers import RunStatus, SolverConfig, SolverId

USAGE_ERROR = 64

# Each setting once: its default, its flag's argparse options, and the JSON
# types a config file may give it, with their name for messages (a bool
# counts as no number).  Every subcommand takes every flag, in this order.
_SETTINGS = {
    "problem": ("logreg", {"choices": ["quadratic", "logreg"]}, str,
                "a string"),
    "n": (100, {"type": int}, int, "an integer"),
    "m": (None, {"type": int}, (int, type(None)), "an integer or null"),
    "kappa": (10.0, {"type": float}, (int, float), "a number"),
    "seed": (0, {"type": int}, int, "an integer"),
    "solver": (None, {"action": "append",
                      "choices": [s.value for s in SolverId]},
               (list, type(None)), "a list of solver names or null"),
    "eps": (SolverConfig.eps, {"type": float}, (int, float), "a number"),
    "max_outer": (SolverConfig.max_outer, {"type": int}, int, "an integer"),
    "out": (None, {"type": Path}, (str, type(None)), "a string or null"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors surface as exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="ellipcenters",
                     description="Ellipcenter solver experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [("run", "run one experiment"),
                       ("compare", "multi-solver comparison table"),
                       ("verify", "run the full diagnostics audit suite"),
                       ("gen", "emit a problem instance file")]:
        p = sub.add_parser(name, help=desc)
        for key, (_, options, _, _) in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, **options)
        p.add_argument("--config", type=Path,
                       help="JSON file mirroring the flags; flags win on conflict")
    return parser


def _resolve(args, default_solvers: list[SolverId]) -> ExperimentSpec:
    settings = {key: spec[0] for key, spec in _SETTINGS.items()}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            raise _UsageError("config file must hold a JSON object, got "
                              f"{json.dumps(loaded)}")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in settings:
                raise _UsageError(f"unknown config key {key!r}")
            _, _, types, name = _SETTINGS[key]
            if isinstance(value, bool) or not isinstance(value, types):
                raise _UsageError(f"config key {key!r} must be {name}, got "
                                  f"{json.dumps(value)}")
            settings[key] = value
    for key in settings:
        flag_value = getattr(args, key)
        if flag_value is not None:
            settings[key] = flag_value
    return ExperimentSpec(
        problem=settings["problem"], n=settings["n"], m=settings["m"],
        kappa=settings["kappa"], seed=settings["seed"],
        solvers=settings["solver"] or default_solvers,
        config=SolverConfig(eps=settings["eps"],
                            max_outer=settings["max_outer"]),
        output_dir=settings["out"])


def _summarize(result) -> int:
    """Print the summary table, and a warning on a poor reference; 0 when
    every run converged, else 1."""
    print(result.summary_text())
    if result.reference.quality_warning:
        print(f"warning: reference residual {result.reference.residual:.3e} "
              "exceeds 1e-10; terminal gaps are approximate")
    ok = all(t.status is RunStatus.CONVERGED for t in result.traces.values())
    return 0 if ok else 1


def _cmd_verify(spec: ExperimentSpec) -> int:
    result, report = verify_experiment(spec)
    code = _summarize(result)
    print()
    print(report.to_text())
    if result.written:
        print(f"wrote {result.written[-1]}")
    return code or (0 if report.passed else 2)


def _cmd_gen(spec: ExperimentSpec) -> int:
    prob = build_problem(spec)
    out = spec.output_dir or Path(f"{spec.problem}_n{spec.n}_seed{spec.seed}.txt")
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
        spec = _resolve(args, list(SolverId) if args.command == "compare"
                        else [SolverId.ME])
        if args.command == "verify":
            return _cmd_verify(spec)
        if args.command == "gen":
            return _cmd_gen(spec)
        return _summarize(run_experiment(spec))  # run and compare
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
