"""One timed ``repro study`` pass: a child process, or an in-process call.

A child pass is what a user runs: a fresh interpreter executing
``python -m repro study ...``.  Its wall time runs from just before the
process is spawned until it has been reaped, and its memory is the peak,
over samples every 20 ms, of the summed resident set of the child and its
pool workers (they share its process group), never below the kernel's own
high-water mark of the largest of them.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List

#: A pass still running after this many seconds is killed and fails.
PASS_TIMEOUT_S = 120.0
_SAMPLE_INTERVAL_S = 0.02
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


@dataclass
class PassResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str


def _group_rss_bytes(group: int) -> int:
    """Summed resident set of every process in one process group.

    The group's processes were all forked after its leader, so lower pids
    are skipped unread (a pid wrap-around would only lose a sample).
    """
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) < group:
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
            # Fields after the parenthesised command name; pgrp is the 3rd.
            fields = stat[stat.rindex(b")") + 2:].split()
            if int(fields[2]) != group:
                continue
            with open(f"/proc/{entry}/statm", "rb") as handle:
                total += int(handle.read().split()[1]) * _PAGE_BYTES
        except (OSError, ValueError, IndexError):
            continue  # the process ended between listing and reading
    return total


def run_child(args: List[str], env: dict, cwd: str,
              stderr_path: str) -> PassResult:
    """Run ``python -m repro <args>`` to completion and measure it."""
    peak = 0
    done = threading.Event()
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=env,
            cwd=cwd,
            start_new_session=True,
        )

        def sample() -> None:
            nonlocal peak
            while not done.wait(_SAMPLE_INTERVAL_S):
                peak = max(peak, _group_rss_bytes(child.pid))
                if time.perf_counter() - started > PASS_TIMEOUT_S:
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(child.pid, signal.SIGKILL)
                    return

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        finally:
            done.set()
            sampler.join()
        wall_s = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        # Pool workers outlive the child only if it crashed; stop them too.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    # ru_maxrss is in KiB on Linux.
    peak = max(peak, usage.ru_maxrss * 1024)
    with open(stderr_path, "r", encoding="utf-8", errors="replace") as handle:
        message = handle.read()
    return PassResult(wall_s, peak / 2**20, child.returncode, message)


def run_in_process(args: List[str]) -> float:
    """Run ``repro.cli.main(args)`` here, output discarded; return seconds."""
    from repro.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        code = main(args)
        wall_s = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} exited {code}: {sink.getvalue()[-500:]}"
        )
    return wall_s
