"""Self-checks of the benchmark itself (not part of the Tier-1 suite).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import frames  # noqa: E402
import run  # noqa: E402
from kahlerid.cli import main as cli_main  # noqa: E402

SEEDS = (1, 2, 7)
MODELS = (*run.MODELS, "nil8")


def _model(name: str) -> dict:
    return frames.NIL8 if name == "nil8" else frames.builtin_dict(name)


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_is_a_j_commuting_signed_permutation(seed):
    import random

    for n in (1, 2, 3, 4):
        frame = frames.signed_frame(n, random.Random(seed))
        assert sorted(pi for _, pi in frame) == list(range(1, 2 * n + 1))
        for a in range(n):
            # J(s e_b) = s e_{b+n} for b <= n and -s e_{b-n} otherwise
            s, b = frame[a]
            j_image = (s, b + n) if b <= n else (-s, b - n)
            assert frame[a + n] == j_image


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", MODELS)
def test_generated_models_validate(seed, name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(frames.permuted(_model(name), seed)))
    assert cli_main(["validate", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"model": name, "ok": True, "failures": []}


def test_seed_zero_is_the_model_itself():
    assert frames.permuted(frames.NIL8, 0) is frames.NIL8


@pytest.mark.parametrize("seed", (0, 2))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_outputs_match_references(workload, seed, tmp_path):
    """Seed 0 byte-identical; seed >= 1 reproduces counts, properties,
    statuses and byte-identical tables (the oracle in run.check_output)."""
    res = run.run_workload(workload, seed, seconds=0, trace=False)
    failures = [r["error"] for r in res["invocations"] if "error" in r]
    assert res["attempted"] == len(run.invocations(workload, 0, tmp_path)) and not failures


def test_invocation_medians_take_cut_short_passes():
    a, b = (run.Invocation("table", k, [], Path(k)) for k in "ab")

    def ok(wall, rss):
        return {"wall_s": wall, "setup_s": wall / 4, "check_s": wall / 2, "maxrss_mb": rss}

    passes = [[(a, ok(4.0, 50.0)), (b, ok(1.0, 70.0))],
              [(a, ok(8.0, 52.0)), (b, {"error": "timeout"})],
              [(a, ok(5.0, 54.0))]]
    m = run.invocation_medians(passes)
    assert m["wall_s"] == 5.0 + 1.0
    assert m["setup_s"] == m["wall_s"] / 4
    assert m["check_s"] == m["table_s"] == m["wall_s"] / 2
    assert m["peak_rss_mb"] == 70.0


IMPORT_SITES = {
    "operator_from_blade_action": ("operators", "zoo", "dirac", "models"),
    "blade_structure": ("operators", "zoo", "dirac", "models", "verifier"),
    "solve_exact": ("matrices", "verifier"),
    "measured_bidegree": ("operators", "verifier"),
    "derivation_rebuild": ("operators", "verifier"),
    "geometry": ("models", "verifier"),
    "assemble": ("zoo", "verifier"),
    "bidegree_decompose": ("operators", "zoo"),
}


def test_tracer_rebinds_every_import_site():
    script = (
        "import sys, tracer\n"
        "tracer.install()\n"
        f"for fn, mods in {IMPORT_SITES!r}.items():\n"
        "    for m in mods:\n"
        "        obj = getattr(sys.modules['kahlerid.' + m], fn)\n"
        "        assert obj.__code__.co_name == 'traced', (m, fn)\n"
    )
    got = subprocess.run([sys.executable, "-c", script], cwd=HERE, env=run.child_env(),
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr


def _launch(argv: list[str], tmp: Path, tag: str, trace: bool) -> tuple[bytes, dict]:
    out = tmp / f"{tag}.json"
    inv = run.Invocation("x", tag, [*argv, "--out", str(out)], out)
    rec = run.run_invocation(inv, trace, 300, run.child_env())
    assert "error" not in rec, rec
    return out.read_bytes(), rec["trace"]


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "nil6", "--exact"],
    ["verify", "--model", "kt4", "--float"],
    ["table", "--model", "hopf4"],
], ids=["verify-exact", "verify-float", "table"])
def test_tracing_changes_no_output_and_counts_repeat(argv, tmp_path):
    plain, _ = _launch(argv, tmp_path, "plain", False)
    first, t1 = _launch(argv, tmp_path, "traced1", True)
    second, t2 = _launch(argv, tmp_path, "traced2", True)
    assert plain == first == second
    calls = lambda t: {k: v["calls"] for k, v in t["spans"].items()}  # noqa: E731
    assert calls(t1) == calls(t2)
    assert t1["counters"] == t2["counters"]
    assert t1["counters"]["matrices.matmul.mnk"] > 0
    # the names bound by import in other modules are traced there too
    assert t1["spans"]["verifier.Workspace"]["calls"] == 1
    assert t1["spans"]["models.geometry"]["calls"] == 1
    assert t1["spans"]["zoo.assemble"]["calls"] == 1
    assert t1["spans"]["operators.operator_from_blade_action"]["calls"] > 0
    if argv[0] == "table":
        assert t1["spans"]["matrices.solve_exact"]["calls"] == 60
    else:
        assert "matrices.solve_exact" not in t1["spans"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert got.returncode != 0
    assert got.stdout.strip() == ""
