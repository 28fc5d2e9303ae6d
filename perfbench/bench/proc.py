"""Run one child process and measure it from outside.

Wall time runs from just before the spawn to the reap. CPU time and
peak RSS come from the kernel's accounting of that one child, returned
by `wait4(2)`: `ru_utime + ru_stime`, and `ru_maxrss` (KiB on Linux).
"""

import os
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Child:
    exit_code: int
    wall_s: float
    # Spawn to the first stderr line `banner` matched; None if none did.
    setup_s: float
    cpu_s: float
    peak_rss_mib: float
    stderr: bytes


def usage_from_rusage(ru):
    """(cpu_s, peak_rss_mib) of a `resource.struct_rusage`-like record."""
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_child(argv, cwd, banner=None, timeout_s=170.0, env=None):
    """Run `argv` to completion with stdout discarded.

    `banner` is a compiled bytes regex; the time its first match appears
    on stderr is the child's set-up time. A child still running after
    `timeout_s` is killed (and reported with its non-zero status)."""
    with open(os.devnull, "wb") as devnull:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=devnull, stderr=subprocess.PIPE, env=env)
        banner_at = []
        lines = []

        def pump():
            for line in proc.stderr:
                if banner is not None and not banner_at and banner.match(line):
                    banner_at.append(time.perf_counter())
                lines.append(line)

        reader = threading.Thread(target=pump)
        reader.start()
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        reader.join()
        proc.stderr.close()
    cpu_s, peak_rss_mib = usage_from_rusage(ru)
    return Child(
        exit_code=proc.returncode,
        wall_s=t1 - t0,
        setup_s=(banner_at[0] - t0) if banner_at else None,
        cpu_s=cpu_s,
        peak_rss_mib=peak_rss_mib,
        stderr=b"".join(lines),
    )
