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
