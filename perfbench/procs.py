"""Process hygiene: server lifecycle and the leftover checks.

Every server runs in its own session, so it and its pool workers share
one process group.  Stopping sends SIGINT (the server's clean shutdown),
waits, then kills the whole group as a backstop.  Before the benchmark
exits, on every path, :func:`leftovers` looks for any descendant process,
any listening port the benchmark opened and any non-daemon thread; the
run fails if one survives.  A benchmark killed outright (SIGKILL) runs
none of that, so each server also asks the kernel for a SIGINT when the
benchmark dies, and shuts itself and its pool down.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Seconds a server gets to start listening or to exit after SIGINT.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
#: Seconds between reads of a starting server's log.
POLL_S = 0.005
#: ``prctl`` option: the signal a child gets when its parent dies (Linux).
PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None, use_errno=True)


def _interrupt_with_parent() -> None:
    """Run in the forked child before ``exec``: SIGINT it when the benchmark dies."""
    _LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGINT)


class BenchError(RuntimeError):
    """A benchmark failure that must end the run without a result."""


class Server:
    """One ``python -m repro.service`` process in its own session."""

    #: Every server started in this process, so that cleanup paths can
    #: find servers whose owner never got to stop them.
    started: list["Server"] = []

    def __init__(self, root: Path, args: list[str], log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # The server prints its address without flushing; unbuffered output
        # lets the log show it at once whatever the caller's environment.
        env["PYTHONUNBUFFERED"] = "1"
        log.parent.mkdir(parents=True, exist_ok=True)
        self.log = log
        # Output goes to a file, not a pipe, so no thread has to drain it.
        with log.open("w") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--host", "127.0.0.1", "--port", "0", *args],
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=sink,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                preexec_fn=_interrupt_with_parent,
            )
        Server.started.append(self)
        self.pgid = self.proc.pid
        self.port = 0

    def wait_listening(self) -> int:
        """Block until the server logs its address; returns the port."""
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log.read_text()
            found = re.search(r"listening on [^\s:]+:(\d+)", text)
            if found:
                self.port = int(found.group(1))
                return self.port
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during start: {text}")
            time.sleep(POLL_S)
        raise BenchError("server did not start listening in time")

    def stop(self) -> int | None:
        """SIGINT, wait, then kill the process group; returns the exit code."""
        if self.proc.poll() is None:
            try:
                os.kill(self.proc.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return self.proc.wait(STOP_TIMEOUT)


def _proc_stat(pid: int) -> tuple[int, int] | None:
    """``(ppid, pgid)`` of a live process, or ``None`` once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text[text.rfind(")") + 2 :].split()
    if fields[0] == "Z":
        return None
    return int(fields[1]), int(fields[2])


def descendants(root_pid: int, groups: set[int]) -> list[int]:
    """Live processes below ``root_pid`` or in one of ``groups``."""
    table: dict[int, tuple[int, int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None:
                table[int(entry)] = stat
    found = {pid for pid, (_, pgid) in table.items() if pgid in groups}
    frontier = [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, _) in table.items():
            if ppid == parent and pid not in found:
                found.add(pid)
                frontier.append(pid)
    found.discard(root_pid)
    return sorted(found)


def listening(ports: set[int]) -> list[int]:
    """Which of ``ports`` still have a listening TCP socket on this host."""
    alive: set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            port = int(fields[1].rsplit(":", 1)[1], 16)
            if fields[3] == "0A" and port in ports:
                alive.add(port)
    return sorted(alive)


def leftovers() -> list[str]:
    """Everything this benchmark started that is still alive."""
    problems: list[str] = []
    groups = {server.pgid for server in Server.started}
    pids = descendants(os.getpid(), groups)
    if pids:
        problems.append(f"processes still running: {pids}")
    ports = listening({server.port for server in Server.started if server.port})
    if ports:
        problems.append(f"ports still listening: {ports}")
    threads = [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and not thread.daemon and thread.is_alive()
    ]
    if threads:
        problems.append(f"non-daemon threads alive: {threads}")
    return problems


def cleanup() -> None:
    """Stop every server and kill every descendant (error and timeout paths)."""
    for server in Server.started:
        try:
            server.stop()
        except (OSError, subprocess.TimeoutExpired):
            pass
    groups = {server.pgid for server in Server.started}
    for pid in descendants(os.getpid(), groups):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + STOP_TIMEOUT
    while descendants(os.getpid(), groups) and time.monotonic() < deadline:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.05)
