"""Start, probe and stop a ``repro serve`` process for one load phase."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import time
from dataclasses import dataclass

from openloop import get_json

STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 120.0
_URL = re.compile(r"on http://([\d.]+):(\d+)")


def repro_env() -> dict:
    """The environment for a child that imports ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class Stopped:
    exit_code: int
    stop_s: float  # signal -> process exit
    peak_rss_mb: float  # ru_maxrss of the server process
    cpu_s: float  # user + system CPU seconds over the process's life
    stdout: str
    stderr: str


class Server:
    """One ``repro serve`` child process, spawned from the checkout root.

    ``launcher`` is the argv prefix that runs the ``repro`` CLI.
    """

    def __init__(self, launcher: list[str], serve_args: list[str], workdir: str):
        self._stderr_path = os.path.join(workdir, f"serve-{time.monotonic_ns()}.err")
        self._stderr = open(self._stderr_path, "w")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [*launcher, "serve", *serve_args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=repro_env(),
        )
        self._stdout: list[str] = []
        try:
            self.host, self.port = self._await_url()
            self._await_health()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - self.spawned

    def _await_url(self) -> tuple[str, int]:
        deadline = self.spawned + STARTUP_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        buffer = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.05)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffer += chunk
            match = _URL.search(buffer.decode("utf-8", "replace"))
            if match:
                self._stdout.append(buffer.decode("utf-8", "replace"))
                return match.group(1), int(match.group(2))
        raise RuntimeError(f"server did not start: {self._read_stderr()[-2000:]}")

    def _await_health(self) -> None:
        deadline = self.spawned + STARTUP_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if get_json(self.host, self.port, "/healthz", timeout=2.0).get("ok"):
                    return
            except (ConnectionError, OSError, ValueError):
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def _read_stderr(self) -> str:
        with open(self._stderr_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()

    def cpu_s(self) -> float:
        """CPU seconds the live server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def stop(self, sig: int = signal.SIGTERM) -> Stopped:
        """Signal the server and wait for it to exit (SIGTERM drains)."""
        start = time.perf_counter()
        self.proc.send_signal(sig)
        out = self._collect_stdout(start + STOP_TIMEOUT_S)
        _, status, usage = os.wait4(self.proc.pid, 0)
        stop_s = time.perf_counter() - start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._stderr.close()
        return Stopped(
            exit_code=self.proc.returncode,
            stop_s=stop_s,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            stdout="".join(self._stdout) + out,
            stderr=self._read_stderr(),
        )

    def _collect_stdout(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        chunks = []
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.proc.kill()
                remaining = 5.0
            ready, _, _ = select.select([fd], [], [], min(remaining, 1.0))
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode("utf-8", "replace")

    def kill(self) -> None:
        """Hard stop (cleanup path); reaps the process."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout and not self.proc.stdout.closed:
            self.proc.stdout.close()
        if not self._stderr.closed:
            self._stderr.close()
