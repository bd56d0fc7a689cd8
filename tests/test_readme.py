"""The README's python blocks run, in order, against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    flags=re.M | re.S)


def test_readme_blocks_run(tmp_path):
    assert len(BLOCKS) >= 2
    script = tmp_path / "readme.py"
    script.write_text("\n".join(BLOCKS))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def table_rows(heading: str) -> dict:
    """The rows of the first table after the README line ``heading``, by
    their first cell with its backticks removed; each row's other cells."""
    text = (ROOT / "README.md").read_text()
    lines = text[text.index(heading):].splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("|"))
    rows = {}
    for ln in lines[start + 2:]:  # past the header and its rule
        if not ln.startswith("|"):
            break
        first, *rest = [cell.strip() for cell in ln.strip("|").split("|")]
        assert first.strip("`") not in rows, f"{first} is listed twice"
        rows[first.strip("`")] = rest
    return rows


def test_status_table_lists_every_status_once():
    from ellipcenters import RunStatus
    rows = table_rows("| status | meaning |")
    assert sorted(rows) == sorted(s.value for s in RunStatus)


def test_tolerance_table_lists_every_setting_with_its_default():
    from dataclasses import fields

    from ellipcenters import SolverConfig
    rows = table_rows("## Tolerances")
    assert sorted(rows) == sorted(f.name for f in fields(SolverConfig))
    for f in fields(SolverConfig):
        assert float(rows[f.name][0]) == f.default, f.name


def test_constant_table_gives_each_constant_its_value():
    """Every row of the constant table is ``module.NAME`` in the package,
    with the value it has there; the inner searches' tolerances and caps
    are among them."""
    import importlib
    rows = table_rows("| constant | value | meaning |")
    for name, (value, _) in rows.items():
        module, attr = name.split(".")
        actual = getattr(importlib.import_module(f"ellipcenters.{module}"), attr)
        assert float(value) == actual, name
    assert {"companion.TOL", "plane2d.MAX_NEWTON", "plane2d.INNER_TOL",
            "plane2d.LD_THRESHOLD"} <= set(rows)


def test_working_set_table_is_the_memory_budgets():
    from test_memory import WORKING_SET
    rows = table_rows("| solver | quadratic, n-vectors |")
    assert {sid: tuple(map(int, cells)) for sid, cells in rows.items()} == \
        WORKING_SET


def test_telemetry_bound_is_the_memory_test_s():
    """README's bytes per iterate for ``gd_l`` are the bound that
    ``test_gd_l_telemetry_per_iterate`` enforces, and its measured figures
    lie within it."""
    from test_memory import TELEMETRY_BYTES
    text = " ".join((ROOT / "README.md").read_text().split())
    bound = re.search(r"holds `gd_l` to (\d+) B per iterate", text)
    assert bound and int(bound[1]) == TELEMETRY_BYTES
    measured = re.search(r"peaks at ([\d.]+) B per iterate for `gd_l`", text)
    assert measured and float(measured[1]) <= TELEMETRY_BYTES
