import json
from dataclasses import replace

import pytest

from ellipcenters import harness
from ellipcenters.cli import main
from ellipcenters.harness import compute_reference
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


def test_verify_warns_on_a_poor_reference(monkeypatch, capsys):
    """A reference residual above 1e-10 is reported, as by compare; the
    audits and the exit code stay as they are."""
    def poor_reference(f):
        return replace(compute_reference(f), residual=1e-9)

    monkeypatch.setattr(harness, "compute_reference", poor_reference)
    code = main(["verify", "--problem", "logreg", "--n", "50", "--m", "25",
                 "--kappa", "20", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning: reference residual 1.000e-09 exceeds 1e-10" in out
    assert "overall: PASS" in out


def test_compare_prints_all_solvers(capsys):
    code = main(["compare", "--problem", "logreg", "--n", "40",
                 "--kappa", "10", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    for solver in ("me", "gd_l", "gd_exact", "fast_gd"):
        assert solver in out


def test_bad_kappa_is_usage_error():
    assert main(["run", "--problem", "quadratic", "--n", "4",
                 "--kappa", "0.5", "--seed", "1"]) == 64


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


def test_gen_quadratic_roundtrip(tmp_path):
    path = tmp_path / "quad.txt"
    code = main(["gen", "--problem", "quadratic", "--n", "4", "--kappa", "7",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    q = load_quadratic(path)
    assert q.dim == 4


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


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1e-6"])
def test_bad_eps_is_usage_error(eps, capsys):
    assert main(["run", "--problem", "quadratic", "--n", "10", "--kappa", "10",
                 "--eps", eps]) == 64
    assert "--eps" in capsys.readouterr().err


def test_nan_kappa_is_usage_error():
    assert main(["run", "--problem", "quadratic", "--n", "10",
                 "--kappa", "nan"]) == 64
