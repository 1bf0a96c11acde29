"""Write the outputs a refactor must keep byte for byte: validation, exact
verify, float verify and both tables as JSON, and exact verify and both
tables as markdown, for the seven built-in models, big32 and nil8
(`reference.EXTRA_MODELS`), and validation alone for two invalid algebras.

    PYTHONPATH=src python tests/snapshot.py OUT_DIR

Run it on two checkouts and compare with `diff -r OUT_A OUT_B`: empty output
means every file is byte-identical.  pytest does not collect this file.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from kahlerid.cli import EXIT_VALIDATION, main
from reference import EXTRA_MODELS, model_spec

BUILTINS = ("t2", "t4", "kt4", "hopf4", "t6", "iwa6", "nil6")
# validated only, each exiting 2: [e1, e2] = e3 and [e3, e4] = e1 fail
# Jacobi on two triples, and [e1, e2] = e2 is not unimodular
INVALID_FILES = {
    "jacobi2": (2, {(1, 2): {3: 1}, (3, 4): {1: 1}}),
    "nonunimodular": (2, {(1, 2): {2: 1}}),
}
# run: (argv, formats)
RUNS = {
    "validate": (["validate"], ("json",)),
    "verify-exact": (["verify", "--suite", "all", "--exact"], ("json", "md")),
    "verify-float": (["verify", "--suite", "all", "--float"], ("json",)),
    "tables": (["table", "--which", "both"], ("json", "md")),
}


def snapshot(out_dir: Path) -> list[Path]:
    """Write <model>.<run>.<format> into out_dir for every model, run and
    format; the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        models = {name: name for name in BUILTINS}
        for name, (n, brackets) in {**EXTRA_MODELS, **INVALID_FILES}.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(model_spec(name, n, brackets)))
            models[name] = str(path)
        for name, spec in models.items():
            invalid = name in INVALID_FILES
            for run, (argv, formats) in RUNS.items():
                if invalid and run != "validate":
                    continue
                for fmt in formats:
                    dest = out_dir / f"{name}.{run}.{fmt}"
                    code = main([*argv, "--model", spec, "--format", fmt, "--out", str(dest)])
                    if code != (EXIT_VALIDATION if invalid else 0):
                        raise SystemExit(f"{name} {run} {fmt}: exit {code}")
                    written.append(dest)
    return written


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print(f"wrote {len(snapshot(Path(sys.argv[1])))} files")
