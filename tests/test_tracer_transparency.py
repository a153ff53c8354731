"""The benchmark's tracer changes nothing it traces.

perfbench/test_tracer.py runs the first operations of every workload with
and without the tracer's wrappers and compares outputs, digests, counts
and leftover wrappers.  It is a script that imports its neighbours in
perfbench/ and patches the package's functions while it runs, so this
test runs it in a process of its own.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "test_tracer.py"


def test_tracer_transparency_script_passes():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "tracer transparency: ok" in done.stdout.splitlines()
