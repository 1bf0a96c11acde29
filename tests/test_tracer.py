"""The benchmark's layer tracer runs the CLI and sees the zoo constructors.

`perfbench/launch.py` wraps `kahlerid.cli.Workspace` and, with TRACE=1,
`perfbench/tracer.py` rebinds the package's functions and the `__init__` of
`dirac.CliffordZoo`, `zoo.ExteriorZoo` and `verifier.Workspace`.  A rename
of any name they bind fails every traced benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = ROOT / "perfbench" / "launch.py"


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "t2", "--suite", "all", "--exact"],
    ["verify", "--model", "t2", "--suite", "all", "--float"],
    ["table", "--model", "t2", "--which", "both"],
    # n = 3: the stacked table products reach sizes where BLAS may use threads
    ["table", "--model", "nil6", "--which", "both"],
], ids=["verify-exact", "verify-float", "table", "table-nil6"])
def test_traced_cli_invocation(argv, tmp_path):
    timing = tmp_path / "timing.json"
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), str(SRC), str(timing), "1", "--", *argv,
         "--out", str(tmp_path / "report.json")],
        cwd=ROOT, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    rec = json.loads(timing.read_text())
    assert rec["exit"] == 0
    assert len(rec["ws_ready"]) == 1
    spans = rec["trace"]["spans"]
    for name in ("dirac.CliffordZoo", "zoo.ExteriorZoo", "verifier.Workspace"):
        assert spans[name]["calls"] == 1, name
