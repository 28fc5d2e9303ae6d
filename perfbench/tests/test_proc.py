"""Tests of how the benchmark reads a child's CPU time, peak RSS and
set-up time from `wait4(2)` rusage and its stderr.

    python3 -m unittest discover -s perfbench/tests -t perfbench
"""

import re
import sys
import unittest
from types import SimpleNamespace

from bench.proc import run_child, usage_from_rusage


class Rusage(unittest.TestCase):
    def test_cpu_is_user_plus_system_and_rss_is_kib(self):
        ru = SimpleNamespace(ru_utime=1.25, ru_stime=0.5, ru_maxrss=2048)
        self.assertEqual(usage_from_rusage(ru), (1.75, 2.0))


class Child(unittest.TestCase):
    def run_python(self, code, **kw):
        return run_child([sys.executable, "-c", code], cwd=".", **kw)

    def test_peak_rss_is_the_childs_own(self):
        # 64 MiB touched page by page: the child's ru_maxrss must see it.
        child = self.run_python("b = bytearray(64 << 20)\nfor i in range(0, len(b), 4096): b[i] = 1")
        self.assertEqual(child.exit_code, 0)
        self.assertGreater(child.peak_rss_mib, 64)
        self.assertLess(child.peak_rss_mib, 512)

    def test_cpu_time_counts_the_childs_work(self):
        child = self.run_python(
            "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass"
        )
        self.assertGreaterEqual(child.cpu_s, 0.25)
        self.assertGreaterEqual(child.wall_s, child.cpu_s * 0.9)

    def test_setup_time_ends_at_the_banner(self):
        banner = re.compile(rb"== \d+ experiment\(s\)")
        child = self.run_python(
            "import sys, time\n"
            "print('building', file=sys.stderr, flush=True)\n"
            "time.sleep(0.2)\n"
            "print('== 3 experiment(s), --jobs 2', file=sys.stderr, flush=True)\n"
            "time.sleep(0.3)",
            banner=banner,
        )
        self.assertGreaterEqual(child.setup_s, 0.2)
        self.assertLess(child.setup_s, child.wall_s - 0.25)
        self.assertIn(b"building", child.stderr)

    def test_no_banner_means_no_setup_time(self):
        child = self.run_python("pass", banner=re.compile(rb"== "))
        self.assertIsNone(child.setup_s)

    def test_exit_status_is_reported(self):
        self.assertEqual(self.run_python("raise SystemExit(3)").exit_code, 3)

    def test_a_hung_child_is_killed(self):
        child = self.run_python("import time; time.sleep(30)", timeout_s=0.5)
        self.assertNotEqual(child.exit_code, 0)
        self.assertLess(child.wall_s, 10)


if __name__ == "__main__":
    unittest.main()
