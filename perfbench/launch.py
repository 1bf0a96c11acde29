"""Run one kahlerid CLI invocation in this fresh interpreter and record its
boundary timestamps.

    python3 launch.py SRC_DIR TIMING_FILE TRACE -- <kahlerid argv...>

`kahlerid.cli.main` is called with the argv a user would type.  Before that,
the name `Workspace` in `kahlerid.cli` is replaced by a thin wrapper that
notes the moment each workspace is ready.  With TRACE=1 the layer tracer in
`tracer.py` also wraps the package's public functions.  Timestamps come from
CLOCK_MONOTONIC, which is shared with the parent process, so the parent can
subtract its own invocation-start stamp.  The record is written as JSON to
TIMING_FILE; the report itself goes wherever the argv sends it.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    if sys.argv[4:5] != ["--"]:
        sys.exit("usage: launch.py SRC_DIR TIMING_FILE TRACE -- <kahlerid argv...>")
    src, timing_file, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[5:]
    sys.path.insert(0, src)

    import kahlerid.cli as cli

    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.install()

    record = {"ws_ready": [], "ws_maxrss_kb": []}
    workspace = cli.Workspace

    def timed_workspace(*args, **kwargs):
        ws = workspace(*args, **kwargs)
        record["ws_ready"].append(time.monotonic())
        record["ws_maxrss_kb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return ws

    cli.Workspace = timed_workspace
    code = cli.main(argv)
    record["done"] = time.monotonic()
    record["exit"] = code
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    with open(timing_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
