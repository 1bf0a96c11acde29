"""kahlerid benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 3

Every invocation is `kahlerid.cli.main` with the argv a user would type, in a
fresh interpreter started through `launch.py`, one after another (a closed
loop with one client).  A pass runs every invocation of the workload once,
heaviest first.  The first pass always runs whole; after it, an invocation
starts only while it is expected to end within `--seconds` (its previous run
is the estimate), so the last pass may be cut short.  Each output
is checked against the references in `refs.json`; an invocation that exits
nonzero, raises, times out or fails the check is counted as failed and its
timings are dropped.

With `--trace 0` each end-to-end time is the sum, over the workload's
invocations, of that invocation's median over the passes; `peak_rss_mb` is
the highest such median.  With `--trace 1` untraced and traced passes
alternate; the per-layer metrics are medians over traced passes, and
`trace.overhead_s` is the same wall-time sum, traced minus untraced.  A
human-readable table goes first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  A full result file with
the environment is written under `.perfbench/results/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import frames

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFS = HERE / "refs.json"
RUN_LIMIT_S = 170  # a run must end within 180 s
MODELS = ("t2", "t4", "kt4", "hopf4", "t6", "iwa6", "nil6")
WORKLOADS = ("verify-all", "tables-all", "stress-n4")
KIND_METRIC = {"verify": "verify_s", "float": "float_verify_s", "table": "table_s"}

# (name, unit): the end-to-end metrics of one pass, in print order
PASS_METRICS = (
    ("wall_s", "s"), ("setup_s", "s"), ("check_s", "s"), ("verify_s", "s"),
    ("float_verify_s", "s"), ("table_s", "s"), ("peak_rss_mb", "MB"),
)
END_TO_END = ("wall_s", "setup_s", "check_s", "peak_rss_mb")

# per-layer spans reported by a traced run, and which stats of each
SPAN_STATS = {
    "models.geometry": ("calls", "busy_s", "self_s"),
    "operators.blade_structure": ("calls", "busy_s"),
    "operators.operator_from_blade_action": ("calls", "busy_s"),
    "operators.bidegree_decompose": ("calls", "busy_s"),
    "dirac.CliffordZoo": ("busy_s", "self_s"),
    "zoo.ExteriorZoo": ("busy_s", "self_s"),
    "zoo.assemble": ("busy_s", "self_s"),
    "verifier.Workspace": ("calls", "busy_s"),
    "operators.measured_bidegree": ("calls", "busy_s"),
    "operators.derivation_rebuild": ("calls", "busy_s"),
    "operators.supercommutator": ("calls", "busy_s"),
    "operators.compose": ("calls", "busy_s"),
    "verifier.verify": ("calls", "busy_s", "self_s"),
    "verifier.emit_commutator_table": ("calls", "busy_s", "self_s"),
    "verifier.emit_bidegree_table": ("calls", "busy_s"),
    "matrices.solve_exact": ("calls", "busy_s"),
    "matrices.frobenius_inner": ("calls", "busy_s"),
    "matrices.matmul_i64": ("calls", "busy_s"),
    "matrices.matmul_obj": ("calls", "busy_s"),
    "matrices.add": ("calls", "busy_s"),
    "matrices.float_matmul": ("calls", "busy_s"),
    "cli.main": ("calls", "self_s"),
}
LAYER_EXTRA = (
    ("matrices.matmul.mnk", "count"), ("matrices.matmul.zero_frac", "ratio"),
    ("matrices.promotions", "count"), ("verifier.Workspace.maxrss_mb", "MB"),
    ("trace.overhead_s", "s"),
)


# Spans some workload never calls.  Their times are printed and stored, but
# left out of the JSON line: a time that is 0.0 on every run reads as constant.
SOMETIMES_IDLE = (
    "verifier.verify", "verifier.emit_commutator_table", "verifier.emit_bidegree_table",
    "matrices.solve_exact", "matrices.frobenius_inner", "matrices.matmul_obj",
    "matrices.float_matmul", "operators.derivation_rebuild", "operators.compose",
)


def layer_units() -> dict[str, str]:
    units = {f"{span}.{stat}": ("count" if stat == "calls" else "s")
             for span, stats in SPAN_STATS.items() for stat in stats}
    units.update(LAYER_EXTRA)
    return units


def per_layer_names() -> list[str]:
    """The per-layer metrics of the JSON line (and of BENCHMARK.json)."""
    return [name for name, unit in layer_units().items()
            if unit != "s" or name.rsplit(".", 1)[0] not in SOMETIMES_IDLE]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    kind: str  # "verify", "float" or "table"
    key: str  # reference key: model and suite
    argv: list[str]
    out: Path


def model_spec(name: str, seed: int, work: Path) -> str:
    """A built-in name at seed 0, otherwise a model file in the seed's frame."""
    if name != "nil8" and seed == 0:
        return name
    base = frames.NIL8 if name == "nil8" else frames.builtin_dict(name)
    path = work / f"{name}.model.json"
    path.write_text(json.dumps(frames.permuted(base, seed), indent=2) + "\n")
    return str(path)


def invocations(workload: str, seed: int, work: Path) -> list[Invocation]:
    out = []
    # heaviest models first: a run's last, cut-short pass repeats those
    if workload == "verify-all":
        for m in reversed(MODELS):
            spec = model_spec(m, seed, work)
            for kind, flag in (("verify", "--exact"), ("float", "--float")):
                path = work / f"{m}.{kind}.json"
                out.append(Invocation(kind, f"{m}:all", [
                    "verify", "--model", spec, "--suite", "all", flag,
                    "--format", "json", "--out", str(path)], path))
    elif workload == "tables-all":
        for m in reversed(MODELS):
            path = work / f"{m}.table.json"
            out.append(Invocation("table", m, [
                "table", "--model", model_spec(m, seed, work), "--which", "both",
                "--format", "json", "--out", str(path)], path))
    elif workload == "stress-n4":
        path = work / "nil8.verify.json"
        out.append(Invocation("verify", "nil8:exterior", [
            "verify", "--model", model_spec("nil8", seed, work), "--suite", "exterior",
            "--exact", "--format", "json", "--out", str(path)], path))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# ---------------------------------------------------------------------------
# output oracle
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_view(text: str) -> dict:
    """What a verify report must keep under a change of frame or float mode:
    everything but the per-entry residuals and exercised flags."""
    rep = json.loads(text)
    statuses = "".join(f"{e['id']} {e['status']}\n" for e in rep["entries"])
    view = {k: rep[k] for k in ("model", "n", "dimension", "mode", "suite",
                                "tolerance", "properties", "summary")}
    view["statuses_sha256"] = sha256(statuses.encode())
    return view


def check_output(inv: Invocation, seed: int, refs: dict) -> str:
    """'' when the output matches the references, else the reason."""
    try:
        data = inv.out.read_bytes()
        if inv.kind == "table":
            ok = sha256(data) == refs["table"][inv.key]
        elif inv.kind == "float":
            ok = report_view(data.decode()) == refs["float"][inv.key]
        elif seed == 0:
            ok = sha256(data) == refs["verify"][inv.key]["sha256"]
        else:
            ok = report_view(data.decode()) == refs["verify"][inv.key]["view"]
    except (OSError, ValueError, KeyError) as e:
        return f"{inv.kind} output for {inv.key} unreadable: {e!r}"
    return "" if ok else f"{inv.kind} output for {inv.key} differs from the reference"


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_invocation(inv: Invocation, trace: bool, timeout: float, env: dict) -> dict:
    """Run one invocation; returns its timings, or 'error' when it failed."""
    timing = inv.out.with_suffix(".timing.json")
    for stale in (timing, inv.out):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(SRC), str(timing),
           "1" if trace else "0", "--", *inv.argv]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timeout after {timeout:.0f} s"}
    end = time.monotonic()
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    rec = json.loads(timing.read_text())
    if len(rec["ws_ready"]) != 1:
        return {"error": f"{len(rec['ws_ready'])} workspaces built, expected 1"}
    ready = rec["ws_ready"][0]
    return {
        "wall_s": end - start,
        "setup_s": ready - start,
        "check_s": rec["done"] - ready,
        "maxrss_mb": rec["maxrss_kb"] / 1024,
        "ws_maxrss_mb": rec["ws_maxrss_kb"][0] / 1024,
        "trace": rec.get("trace"),
    }


def pass_metrics(results: list[tuple[Invocation, dict]]) -> dict:
    ok = [(inv, r) for inv, r in results if "error" not in r]
    m = {"wall_s": sum(r["wall_s"] for _, r in ok),
         "setup_s": sum(r["setup_s"] for _, r in ok),
         "check_s": sum(r["check_s"] for _, r in ok),
         "peak_rss_mb": max((r["maxrss_mb"] for _, r in ok), default=0.0)}
    for inv, r in ok:
        name = KIND_METRIC[inv.kind]
        m[name] = m.get(name, 0.0) + r["check_s"]
    return m


def layer_metrics(results: list[tuple[Invocation, dict]]) -> dict:
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for _, r in results:
        if "error" in r:
            continue
        for name, st in r["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for name, v in r["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + v
    m = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            m[f"{span}.{stat}"] = spans.get(span, {}).get(stat, 0)
    exact = (spans.get("matrices.matmul_i64", {}).get("calls", 0)
             + spans.get("matrices.matmul_obj", {}).get("calls", 0))
    m["matrices.matmul.mnk"] = counters.get("matrices.matmul.mnk", 0)
    m["matrices.matmul.zero_frac"] = (
        counters.get("matrices.matmul.zero", 0) / exact if exact else 0.0)
    m["matrices.promotions"] = counters.get("matrices.promotions", 0)
    m["verifier.Workspace.maxrss_mb"] = max(
        (r["ws_maxrss_mb"] for _, r in results if "error" not in r), default=0.0)
    return m


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def invocation_medians(passes: list[list[tuple[Invocation, dict]]]) -> dict:
    """Each invocation's median over the passes in which it succeeded, summed
    over invocations (the highest for peak_rss_mb).  A cut-short pass adds a
    sample to the invocations it ran."""
    m: dict[str, float] = {}
    for i in range(max(map(len, passes))):
        samples = [p[i] for p in passes if len(p) > i]
        ok = [r for _, r in samples if "error" not in r]
        if not ok:
            continue
        for name, key in (("wall_s", "wall_s"), ("setup_s", "setup_s"),
                          ("check_s", "check_s"), (KIND_METRIC[samples[0][0].kind], "check_s")):
            m[name] = m.get(name, 0.0) + statistics.median(r[key] for r in ok)
        rss = statistics.median(r["maxrss_mb"] for r in ok)
        m["peak_rss_mb"] = max(m.get("peak_rss_mb", 0.0), rss)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = json.loads(REFS.read_text())
    invs = invocations(workload, seed, work)
    env = child_env()
    began = time.monotonic()
    # warm-up: byte-compile the package and load numpy once, untimed
    subprocess.run([sys.executable, "-m", "kahlerid.cli", "models"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)

    plain, traced, records = [], [], []
    partial: list[tuple[Invocation, dict]] = []  # the run's last, cut-short untraced pass
    took = [0.0] * len(invs)  # wall time of each invocation's latest run
    attempted = failed = 0
    done = False
    while not done:
        traced_pass = trace and len(plain) > len(traced)
        # the first untraced pass, and with --trace 1 the first traced one, run whole
        whole = not plain or (trace and not traced)
        results = []
        for i, inv in enumerate(invs):
            elapsed = time.monotonic() - began
            # start an invocation only while it is expected to end within --seconds
            if not whole and (elapsed + took[i] > seconds or elapsed >= RUN_LIMIT_S / 2):
                done = True
                break
            r = run_invocation(inv, traced_pass, max(RUN_LIMIT_S - elapsed, 1.0), env)
            took[i] = time.monotonic() - began - elapsed
            if "error" not in r:
                reason = check_output(inv, seed, refs)
                if reason:
                    r = {"error": reason}
            attempted += 1
            failed += "error" in r
            results.append((inv, r))
            records.append({"pass": len(plain) + len(traced), "traced": traced_pass,
                            "kind": inv.kind, "model": inv.key, "argv": inv.argv,
                            **{k: v for k, v in r.items() if k != "trace"}})
        if len(results) == len(invs):
            (traced if traced_pass else plain).append(results)
        elif not traced_pass:
            partial = results

    e2e = {}
    medians = invocation_medians([*plain, partial])
    for name, unit in PASS_METRICS:
        values = [m[name] for m in map(pass_metrics, plain) if name in m]
        if values:
            e2e[name] = {"unit": unit, "value": medians[name], **summarize(values)}
    layers = {}
    if traced:
        per_pass = [layer_metrics(p) for p in traced]
        for name, unit in layer_units().items():
            if name == "trace.overhead_s":
                value = invocation_medians(traced)["wall_s"] - medians["wall_s"]
            else:
                value = statistics.median(m[name] for m in per_pass)
            layers[name] = {"value": value, "unit": unit}
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "passes": len(plain), "traced_passes": len(traced),
            "attempted": attempted, "failed": failed, "end_to_end": e2e,
            "per_layer": layers, "invocations": records}


# ---------------------------------------------------------------------------
# environment and reporting
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": blas_threads(),
        "git_commit": commit, "src_sha256": src_digest(), "seed": seed,
    }


def print_summary(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}"
          f"  passes {res['passes']}  traced passes {res['traced_passes']}")
    print(f"  {'metric':<16}{'unit':<7}{'value':>11}   per pass:{'median':>9}{'q1':>11}"
          f"{'q3':>11}{'n':>4}")
    for name, st in res["end_to_end"].items():
        print(f"  {name:<16}{st['unit']:<7}{st['value']:>11.4f}{'':>12}{st['median']:>9.4f}"
              f"{st['q1']:>11.4f}{st['q3']:>11.4f}{st['n']:>4}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<16}{'ratio':<7}{frac:>11.4f}"
          f"  ({res['failed']} of {res['attempted']} invocations)")
    for rec in res["invocations"]:
        if "error" in rec:
            print(f"  FAILED {rec['kind']} {rec['model']}: {rec['error']}")
    for name, m in res["per_layer"].items():
        print(f"  {name:<48}{m['unit']:<7}{m['value']:>14.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "kahlerid" / "cli.py").is_file():
        print(f"error: kahlerid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        res["environment"] = env
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=2) + "\n")
        print_summary(res)
        if args.trace:
            metrics = {k: res["per_layer"][k] for k in per_layer_names()}
        else:
            metrics = {k: {"value": res["end_to_end"][k]["value"],
                           "unit": res["end_to_end"][k]["unit"]}
                       for k in END_TO_END if k in res["end_to_end"]}
        print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
