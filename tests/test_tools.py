"""The scripts in tools/ behave as command-line tools."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_size_is_quiet_when_its_reader_stops_early():
    """``tools/src_size.py | head -1`` exits 0 with nothing on stderr: a
    reader that closes the pipe before the tool writes is no error."""
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / "src_size.py")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err.decode()
    assert err == b""


def test_src_size_module_lines_sum_to_the_totals():
    """After the three summary lines, one line per module under ``src/``;
    its lines and code lines add up to the printed totals."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_size.py")],
                         capture_output=True, text=True, check=True).stdout
    head, modules = out.splitlines()[:3], out.splitlines()[3:]
    assert [line.split()[0] for line in head] == ["src", "code", "exports"]
    fields = [line.split() for line in modules]
    assert [f[0] for f in fields] == sorted(
        p.relative_to(ROOT / "src").as_posix()
        for p in (ROOT / "src").rglob("*.py"))
    total = int(head[0].split()[-1].replace(",", ""))
    code = int(head[1].split()[-1].replace(",", ""))
    assert sum(int(f[2].replace(",", "")) for f in fields) == total
    assert sum(int(f[4].replace(",", "")) for f in fields) == code
