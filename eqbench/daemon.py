"""Start, drive and stop one ``repro serve --workers 1`` daemon.

The daemon runs in its own process group, so after SIGTERM the benchmark can
prove that nothing it spawned is left behind.  Every socket read carries a
deadline; a daemon that stops answering fails the run instead of hanging it.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from .inputs import Family

#: Seconds any single wire read, daemon start or shutdown may take.
DEADLINE_S = 30.0


class PremiseError(RuntimeError):
    """A premise the benchmark's figures rest on does not hold."""


class Wire:
    """One TCP connection speaking the daemon's newline-delimited JSON."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=DEADLINE_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not self.sock.gettimeout():
            raise PremiseError("socket reads have no deadline")
        self.reader = self.sock.makefile("rb")

    def exchange(self, line: bytes) -> bytes:
        """Send one request line and return the response line (deadline bound)."""
        self.sock.sendall(line)
        response = self.reader.readline()
        if not response.endswith(b"\n"):
            raise ConnectionError("daemon closed the connection mid-response")
        return response

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Daemon:
    """A ``repro serve --workers 1`` child process over one family's Σ."""

    def __init__(self, root: Path, family: Family):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = [
            sys.executable, "-m", "repro", "serve",
            "--workers", "1", "--port", "0",
            "--dependencies", family.sigma_text,
        ]
        if family.set_valued:
            command += ["--set-valued", ",".join(family.set_valued)]
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + DEADLINE_S
        stdout = self.process.stdout
        assert stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PremiseError("daemon did not report its port in time")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(f"daemon exited early with code {self.process.wait()}")
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The daemon's own high-water resident size in MiB (``VmHWM``).

        Not ``RUSAGE_CHILDREN``: a spawned child's ``ru_maxrss`` starts from
        the resident size of the parent that forked it, so it would report
        the benchmark process whenever that is the larger one.
        """
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the daemon's /proc status")

    def stop(self) -> None:
        """SIGTERM, wait for a clean exit, and prove the process group is empty."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise PremiseError("daemon ignored SIGTERM") from None
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            pass
        else:
            os.killpg(process.pid, signal.SIGKILL)
            raise PremiseError("SIGTERM left a daemon child process behind")
        if process.returncode != 0:
            raise PremiseError(f"daemon exited with code {process.returncode} on SIGTERM")

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
