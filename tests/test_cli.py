import csv
import io
import json
from dataclasses import fields, replace

import pytest

from ellipcenters import SolverConfig, cli, harness
from ellipcenters.cli import main
from ellipcenters.harness import compute_reference, verify_experiment
from ellipcenters.objectives import load_logreg, load_quadratic


def test_run_quadratic_two_dim(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["run", "--problem", "quadratic", "--n", "2", "--kappa", "10",
                 "--seed", "1", "--solver", "me", "--out", str(out)])
    assert code == 0
    lines = (out / "trace_me.csv").read_text().strip().splitlines()
    assert len(lines) - 1 <= 2
    assert "me" in capsys.readouterr().out


def test_verify_passes(capsys):
    code = main(["verify", "--problem", "logreg", "--n", "50", "--m", "25",
                 "--kappa", "20", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_quadratic_verify_audits_exact_gaps(capsys):
    """The rate audits of a quadratic read 1/2 <x_k - x*, grad f(x_k)>: with
    f_k - f* they failed on this seed, where f_k, taken from a carried data
    product, jumps by ~4e-14 when the product is formed exactly again."""
    code = main(["verify", "--problem", "quadratic", "--n", "500",
                 "--kappa", "1e3", "--seed", "0"])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("problem", ["logreg", "quadratic"])
def test_audit_csv_is_the_dict_writer_rendering(problem, tmp_path, monkeypatch,
                                                capsys):
    """``verify --out`` writes audit.csv byte for byte as a csv.DictWriter
    renders the report's rows: header name,step,value,bound,passed, floats
    as .17g and passed as true/false."""
    reports = []

    def keep(spec):
        result, report = verify_experiment(spec)
        reports.append(report)
        return result, report

    monkeypatch.setattr(cli, "verify_experiment", keep)
    code = main(["verify", "--problem", problem, "--n", "30", "--kappa", "1e3",
                 "--seed", "4", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=["name", "step", "value", "bound",
                                             "passed"])
    writer.writeheader()
    writer.writerows({"name": r.name, "step": r.step,
                      "value": format(r.value, ".17g"),
                      "bound": format(r.bound, ".17g"),
                      "passed": "true" if r.passed else "false"}
                     for r in reports[0].rows)
    assert len(reports[0].rows) > 100
    assert (tmp_path / "audit.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("command", ["run", "compare", "verify"])
def test_verify_warns_on_a_poor_reference(monkeypatch, capsys, command):
    """Every command that prints terminal gaps reports a reference residual
    above 1e-10; the audits and the exit code stay as they are."""
    def poor_reference(f):
        return replace(compute_reference(f), residual=1e-9)

    monkeypatch.setattr(harness, "compute_reference", poor_reference)
    code = main([command, "--problem", "logreg", "--n", "50", "--m", "25",
                 "--kappa", "20", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning: reference residual 1.000e-09 exceeds 1e-10" in out
    assert ("overall: PASS" in out) == (command == "verify")


def test_compare_prints_all_solvers(capsys):
    code = main(["compare", "--problem", "logreg", "--n", "40",
                 "--kappa", "10", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    for solver in ("me", "gd_l", "gd_exact", "fast_gd"):
        assert solver in out


def test_a_repeated_solver_runs_once(tmp_path, capsys):
    """``--solver me --solver me`` runs ``me`` once: one printed row and one
    summary.csv row, in the order first given."""
    code = main(["compare", "--problem", "quadratic", "--n", "6",
                 "--kappa", "10", "--seed", "2", "--solver", "me",
                 "--solver", "gd_l", "--solver", "me", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["solver"] for row in csv.DictReader(fh)] == ["me", "gd_l"]
    assert [ln.split()[0] for ln in out.splitlines()
            if ln.split()[:1] in (["me"], ["gd_l"])] == ["me", "gd_l"]
    spec = harness.ExperimentSpec(problem="quadratic", n=6, kappa=10.0,
                                  seed=2, solvers=["me", "me"])
    assert spec.solvers == ["me"]


def test_bad_kappa_is_usage_error():
    assert main(["run", "--problem", "quadratic", "--n", "4",
                 "--kappa", "0.5", "--seed", "1"]) == 64


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "missing.json"], "cannot read config file"),
    (["run", "--problem", "quadratic", "--n", "0"], "n must be positive"),
    (["run", "--problem", "logreg", "--n", "10", "--m", "0"],
     "n and m must be at least 1"),
    (["gen", "--problem", "quadratic", "--n", "4", "--out", "missing/x.txt"],
     "No such file or directory"),
    (["verify", "--problem", "quadratic", "--n", "4", "--out", "a_file/sub"],
     "Not a directory"),
], ids=["unreadable-config", "n-zero", "library-value-error",
        "gen-out-in-missing-dir", "verify-out-under-a-file"])
def test_bad_input_is_a_usage_error(argv, message, tmp_path, monkeypatch,
                                    capsys):
    """Input the command line or the library rejects, and an ``--out`` that
    cannot be written, exit 64 with one ``error:`` line and no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("")
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err.splitlines()[0]


def test_verify_exits_1_when_me_does_not_converge(capsys):
    assert main(["verify", "--problem", "quadratic", "--n", "20", "--kappa",
                 "1e2", "--max-outer", "1"]) == 1
    assert "max_iterations" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--frobnicate", "3"]) == 64
    assert "usage" in capsys.readouterr().err


def test_gen_logreg_roundtrip(tmp_path):
    path = tmp_path / "inst.txt"
    code = main(["gen", "--problem", "logreg", "--n", "6", "--m", "4",
                 "--kappa", "5", "--seed", "9", "--out", str(path)])
    assert code == 0
    p = load_logreg(path)
    assert p.n == 6 and p.m == 4


@pytest.mark.parametrize("problem, load", [("logreg", load_logreg),
                                           ("quadratic", load_quadratic)])
def test_gen_without_out_writes_its_default_name(problem, load, tmp_path,
                                                 monkeypatch, capsys):
    """``gen`` with no ``--out`` writes ``<problem>_n<n>_seed<seed>.txt`` in
    the working directory, and the file loads back."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--problem", problem, "--n", "5", "--kappa", "7",
                 "--seed", "3"]) == 0
    name = f"{problem}_n5_seed3.txt"
    assert capsys.readouterr().out == f"wrote {name}\n"
    assert load(tmp_path / name).dim == 5


def test_gen_quadratic_roundtrip(tmp_path):
    path = tmp_path / "quad.txt"
    code = main(["gen", "--problem", "quadratic", "--n", "4", "--kappa", "7",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    q = load_quadratic(path)
    assert q.dim == 4


# A non-default value of each setting that is no ``SolverConfig`` field, and
# the field of the experiment it reaches, read back in the setting's form
REACHES = {"problem": ("quadratic", lambda spec: spec.problem),
           "n": (7, lambda spec: spec.n),
           "m": (3, lambda spec: spec.m),
           "kappa": (20.0, lambda spec: spec.kappa),
           "seed": (5, lambda spec: spec.seed),
           "solver": (["gd_l"], lambda spec: spec.solvers),
           "out": ("exp", lambda spec: str(spec.output_dir))}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_every_solver_setting_has_a_caller(source, tmp_path):
    """Each setting can be set by its flag and by its key in a ``--config``
    file, spelt with ``_`` or ``-``, and reaches its field of the
    experiment: a setting that neither sets is a knob with no caller.
    Every ``SolverConfig`` field is a setting, and reaches the config."""
    values = {key: value for key, (value, _) in REACHES.items()}
    reached = {key: read for key, (_, read) in REACHES.items()}
    for field in fields(SolverConfig):
        values[field.name] = 2 * field.default
        reached[field.name] = lambda spec, name=field.name: getattr(
            spec.config, name)
    assert sorted(values) == sorted(cli._SETTINGS)
    for key, value in values.items():
        assert value != cli._SETTINGS[key][0], key
        if source == "flag":
            argvs = [["run", f"--{key.replace('_', '-')}",
                      *map(str, value if isinstance(value, list) else [value])]]
        else:
            argvs = []
            for spelling in dict.fromkeys([key, key.replace("_", "-")]):
                path = tmp_path / f"{spelling}.json"
                path.write_text(json.dumps({spelling: value}))
                argvs.append(["run", "--config", str(path)])
        for argv in argvs:
            spec = cli._resolve(cli.build_parser().parse_args(argv), [])
            assert reached[key](spec) == value, argv


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "logreg", "n": 40, "kappa": 10.0,
                               "seed": 2, "solver": ["gd_l"]}))
    code = main(["run", "--config", str(cfg), "--solver", "me"])
    out = capsys.readouterr().out
    assert code == 0
    assert "me" in out and "gd_l" not in out


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["run", "--config", str(cfg)]) == 64


@pytest.mark.parametrize("config, key", [
    ({"n": "20"}, "'n'"),
    ({"kappa": "10"}, "'kappa'"),
    ({"seed": "3"}, "'seed'"),
    ({"n": 20.5}, "'n'"),
    ({"n": True}, "'n'"),
    ({"solver": "me"}, "'solver'"),
    ([1, 2], "JSON object"),
], ids=["n-str", "kappa-str", "seed-str", "n-float", "n-bool", "solver-str",
        "not-an-object"])
def test_config_file_wrong_type_is_usage_error(config, key, tmp_path, capsys):
    """A wrongly typed config value is a usage error, reported in one line
    that names the key, and no traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err.splitlines()[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("eps, message", [
    pytest.param(eps, "eps must be positive and finite", id=eps)
    for eps in ("nan", "inf", "0")] + [
    # argparse takes "-1e-6" for an option and never hands it to --eps
    pytest.param("-1e-6", "argument --eps: expected one argument",
                 id="-1e-6")])
def test_bad_eps_is_usage_error(eps, message, capsys):
    assert main(["run", "--problem", "quadratic", "--n", "10", "--kappa", "10",
                 "--eps", eps]) == 64
    assert message in capsys.readouterr().err


def test_nan_kappa_is_usage_error():
    assert main(["run", "--problem", "quadratic", "--n", "10",
                 "--kappa", "nan"]) == 64
