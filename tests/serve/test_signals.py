"""Exit-status contract of ``sealpaa serve`` under signals.

Both signals drain the same way ("draining..." then "stopped"); the
exit status tells them apart.  SIGTERM is an orderly shutdown (0);
SIGINT is Ctrl-C, which every ``sealpaa`` command reports as 130.
Checked against a real ``python -m repro serve`` subprocess, because
signal delivery faked in-process proves nothing.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import AnalysisClient

SRC = Path(__file__).resolve().parents[2] / "src"

_BANNER = re.compile(r"serving on (http://[\d.]+:\d+)")


def _boot(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--batch-window-ms", "1", "--drain-grace", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=str(tmp_path))
    line = proc.stdout.readline()
    match = _BANNER.search(line)
    if match is None:
        proc.kill()
        proc.wait()
        pytest.fail(f"unexpected banner: {line!r}")
    return proc, match.group(1)


@pytest.mark.parametrize("signum, status", [
    (signal.SIGTERM, 0),
    (signal.SIGINT, 130),
], ids=["sigterm-exits-0", "sigint-exits-130"])
def test_signal_drains_then_exits_with_its_status(tmp_path, signum, status):
    proc, base_url = _boot(tmp_path)
    try:
        with AnalysisClient(base_url, total_deadline_s=30.0) as client:
            answer = client.analyze({"cell": "LPAA 1", "width": 4})
        assert "p_error" in answer
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == status
    assert "draining..." in out
    assert out.rstrip().endswith("stopped")
