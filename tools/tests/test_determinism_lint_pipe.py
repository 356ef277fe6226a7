#!/usr/bin/env python3
"""The determinism linter outlives a reader that closes its pipe early
(``determinism_lint.py src | head -1``): it finishes the run without a
traceback and exits with the status the whole run earns, 1 when there
are findings.

The linted tree is a generated file with more findings than a pipe
holds, so the linter is still writing when the reader hangs up and the
closed pipe is hit on every run, not only when the timing allows.

Stdlib-only (unittest, no pytest) so it runs in the bare CI image;
registered with ctest by the top-level CMakeLists.
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

LINT = pathlib.Path(__file__).resolve().parents[1] / "lint" / \
    "determinism_lint.py"

# Each finding prints ~150 bytes; 2000 of them overflow a 64 KiB pipe.
FINDINGS = 2000


class ClosedPipeTest(unittest.TestCase):
    def test_reader_closing_early_gets_no_traceback(self):
        with tempfile.TemporaryDirectory() as tree:
            flood = pathlib.Path(tree) / "flood.cc"
            flood.write_text("int f() {\n"
                             + "    rand();\n" * FINDINGS
                             + "    return 0;\n}\n")
            lint = subprocess.Popen(
                [sys.executable, str(LINT), tree],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            first = lint.stdout.readline()
            lint.stdout.close()
            stderr = lint.stderr.read().decode()
            lint.stderr.close()
            status = lint.wait(timeout=60)

        self.assertIn(b"[rng]", first)
        self.assertNotIn("Traceback", stderr)
        self.assertEqual(stderr, "")
        self.assertEqual(status, 1, "findings exit 1, as a full run does")


if __name__ == "__main__":
    unittest.main()
