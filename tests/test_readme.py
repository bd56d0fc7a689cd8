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
