"""``repro-tpp serve`` drains and exits 0 when it is told to stop.

The server is a real subprocess.  Each case waits for its ``serving ...``
line, sends the signal and expects exit status 0, ``draining...`` on
stderr and the stats line on stdout.  SIGINT is also sent to a server that
inherited SIGINT as ignored, as any ``cmd &`` from a non-interactive shell
does: the CLI installs its own handler, so that server drains too.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signals"
)


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _edge_list(tmp_path: Path) -> Path:
    """A 20-node ring with chords: a session that builds in milliseconds."""
    lines = [f"{u} {(u + 1) % 20}" for u in range(20)]
    lines += [f"{u} {(u + 3) % 20}" for u in range(0, 20, 2)]
    path = tmp_path / "ring.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "signum, inherit_ignored_sigint",
    [
        (signal.SIGTERM, False),
        (signal.SIGINT, False),
        (signal.SIGINT, True),
    ],
    ids=["SIGTERM", "SIGINT", "SIGINT-inherited-ignored"],
)
def test_serve_drains_on_signal(tmp_path, signum, inherit_ignored_sigint):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--edge-list",
            str(_edge_list(tmp_path)),
            "--targets",
            "3",
            "--port",
            "0",
            "--solver-threads",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=_ignore_sigint if inherit_ignored_sigint else None,
    )
    lines: "queue.Queue[str]" = queue.Queue()
    reader = threading.Thread(
        target=lambda: [lines.put(line) for line in process.stdout], daemon=True
    )
    reader.start()
    try:
        while True:
            line = lines.get(timeout=60)
            if line.startswith("serving "):
                break
        process.send_signal(signum)
        returncode = process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    reader.join(timeout=10)
    stderr = process.stderr.read()
    process.stdout.close()
    process.stderr.close()
    stdout = []
    while not lines.empty():
        stdout.append(lines.get())
    assert returncode == 0, stderr
    assert "draining..." in stderr
    assert any(line.startswith("served 0 queries") for line in stdout), stdout
