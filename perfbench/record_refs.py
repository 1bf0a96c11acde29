"""Record the seed-0 output references of every workload into refs.json.

    python3 perfbench/record_refs.py

Exact verify reports keep both their SHA-256 (seed 0 must match byte for
byte) and their frame-independent view (what a frame-permuted seed must
reproduce); float reports keep only the view, so residual digits never
matter; tables keep their SHA-256, which every seed must reproduce.  Rerun
only when an output is meant to change, and say why in the commit.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.OUT / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env()
    refs: dict[str, dict] = {"verify": {}, "float": {}, "table": {}}
    for workload in run.WORKLOADS:
        for inv in run.invocations(workload, 0, work):
            r = run.run_invocation(inv, False, 600, env)
            if "error" in r:
                print(f"{inv.key} ({inv.kind}): {r['error']}", file=sys.stderr)
                return 1
            data = inv.out.read_bytes()
            if inv.kind == "table":
                refs["table"][inv.key] = run.sha256(data)
            elif inv.kind == "float":
                refs["float"][inv.key] = run.report_view(data.decode())
            else:
                refs["verify"][inv.key] = {"sha256": run.sha256(data),
                                           "view": run.report_view(data.decode())}
    run.REFS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
