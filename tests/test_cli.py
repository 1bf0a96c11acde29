"""Command line interface: subcommands, formats, exit codes."""
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from kahlerid import get_model
from kahlerid.cli import main
from kahlerid.models import MAX_EXPONENT
import reference


def _write_model(tmp_path, name, entries, n):
    spec = {"name": name, "n": n,
            "brackets": [{"a": a, "b": b, "c": c, "v": str(v)}
                         for (a, b, c, v) in entries]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture(scope="module")
def third_scaled_nil6(tmp_path_factory):
    # same algebra, structure constants scaled by 1/3: still unimodular and
    # Jacobi-closed, but no longer exactly representable in binary floats
    base = get_model("nil6")
    scaled = [(a, b, c, v * Fraction(1, 3)) for (a, b, c, v) in base.entries]
    return _write_model(tmp_path_factory.mktemp("models"), "nil6_third", scaled, 3)


def test_models_listing(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "nil6" in out and "hopf4" in out
    assert main(["models", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["models"]) >= {"t2", "t4", "t6", "kt4", "hopf4", "iwa6", "nil6"}


@pytest.mark.parametrize("argv, code", [(["models", "--format", "json"], 0),
                                        (["validate", "--model", "kt4"], 0),
                                        (["validate", "--model", "nonuni"], 2)])
def test_models_and_validate_json_is_json_dumps_indented(argv, code, tmp_path, capsys):
    # the bytes json.dumps(payload, indent=2) writes, for a model that passes
    # validation and for one that fails it
    if argv[-1] == "nonuni":
        argv[-1] = _write_model(tmp_path, "nonuni", [(1, 2, 2, Fraction(1))], 1)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_validate_builtin(capsys):
    assert main(["validate", "--model", "kt4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"model": "kt4", "ok": True, "failures": []}


def test_validate_invalid_model_exits_2(tmp_path, capsys):
    path = _write_model(tmp_path, "nonuni", [(1, 2, 2, Fraction(1))], 1)
    assert main(["validate", "--model", path]) == 2
    data = json.loads(capsys.readouterr().out)
    assert not data["ok"]
    assert data["failures"][0]["invariant"] == "unimodularity"


def test_verify_builtin_passes(capsys):
    assert main(["verify", "--model", "t2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["failed"] == 0
    assert data["mode"] == "exact"
    assert data["model"] == "t2"


def test_verify_suite_filter(capsys):
    assert main(["verify", "--model", "t2", "--suite", "tables"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["total"] == 132
    assert {e["group"] for e in data["entries"]} == {
        "commutator-table", "bidegree-table"}


def test_verify_markdown(capsys):
    assert main(["verify", "--model", "t2", "--suite", "exterior",
                 "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Identity report: t2")


def test_verify_float_roundoff_exits_1(third_scaled_nil6, capsys):
    # exact mode passes on the scaled model
    assert main(["verify", "--model", third_scaled_nil6,
                 "--suite", "exterior"]) == 0
    capsys.readouterr()
    # float mode with zero tolerance trips on representation error
    assert main(["verify", "--model", third_scaled_nil6, "--float",
                 "--tolerance", "0", "--suite", "exterior"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["failed"] > 0
    # default tolerance absorbs the roundoff
    assert main(["verify", "--model", third_scaled_nil6, "--float",
                 "--suite", "exterior"]) == 0


def test_verify_model_with_large_prime_denominators(tmp_path, capsys):
    # nil6 with denominators 10007, 10009, 10037: d @ d has a zero result over
    # a denominator beyond int64
    path = _write_model(tmp_path, "p6", [
        (1, 2, 4, Fraction(-1, 10007)), (1, 3, 5, Fraction(-1, 10009)),
        (2, 3, 6, Fraction(-1, 10037))], 3)
    assert main(["verify", "--model", path]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0


def test_verify_invalid_model_exits_2(tmp_path, capsys):
    path = _write_model(tmp_path, "nonuni", [(1, 2, 2, Fraction(1))], 1)
    assert main(["verify", "--model", path]) == 2
    assert "unimodularity" in capsys.readouterr().err


def test_unknown_model_exits_3(capsys):
    assert main(["verify", "--model", "nosuch"]) == 3
    assert "unknown model" in capsys.readouterr().err


def test_unparseable_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["verify", "--model", str(bad)]) == 3
    assert "not valid JSON" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["validate", "--model", str(missing)]) == 3


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_model_file_that_is_not_utf8_exits_3(tmp_path, capsys, command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "caf\u00e9", "n": 1, "brackets": []}'.encode("latin-1"))
    assert main([command, "--model", str(bad)]) == 3
    assert "not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_model_file_nested_too_deeply_exits_3(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main([command, "--model", str(deep)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_malformed_model_exits_3(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"name": "m", "n": 1,
                               "brackets": [{"a": 1, "b": 2, "c": 1, "v": 0.5}]}))
    assert main(["validate", "--model", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


def test_oversized_model_exits_3(tmp_path, capsys):
    path = _write_model(tmp_path, "big", [], 5)
    assert main(["validate", "--model", path]) == 3
    assert "n <= 4" in capsys.readouterr().err


@pytest.mark.parametrize("value, code", [
    ("1e4000", 0), (f"1e{MAX_EXPONENT}", 0), (f"-3.5E-{MAX_EXPONENT}", 0),
    (f"1e{MAX_EXPONENT + 1}", 3), (f"-3.5E-{MAX_EXPONENT + 1}", 3), ("1e1_000_000", 3),
    ("1e" + "9" * 5000, 3),
])
def test_exponent_strings_are_held_to_the_integer_digit_limit(tmp_path, capsys, value, code):
    # 10**k has k + 1 digits: beyond the limit Fraction would expand it in full
    path = _write_model(tmp_path, "exp", [(1, 2, 3, value)], 2)
    assert main(["validate", "--model", path]) == code
    if code:
        assert "bad rational string" in capsys.readouterr().err


def test_table_subcommand(capsys):
    assert main(["table", "--model", "kt4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["commutator"]["ok"] and data["bidegree"]["ok"]
    assert len(data["commutator"]["cells"]) == 60
    assert main(["table", "--model", "kt4", "--which", "commutator",
                 "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Commutator table: kt4")
    assert "| d | (d^c)* + (tau^c)* | lam | ok |" in out


REFS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "refs.json").read_text())
BUILTINS = ["t2", "t4", "kt4", "hopf4", "t6", "iwa6", "nil6"]


@pytest.mark.parametrize("name", BUILTINS)
def test_table_json_is_byte_identical_to_the_reference(name, tmp_path):
    # the recorded SHA-256 of `table --which both` JSON for every built-in
    dest = tmp_path / "table.json"
    assert main(["table", "--model", name, "--which", "both", "--out", str(dest)]) == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == REFS["table"][name]


@pytest.mark.parametrize("name", BUILTINS)
def test_verify_json_is_byte_identical_to_the_reference(name, tmp_path):
    # the recorded SHA-256 of exact `verify --suite all` JSON for every built-in
    dest = tmp_path / "verify.json"
    assert main(["verify", "--model", name, "--suite", "all", "--exact",
                 "--format", "json", "--out", str(dest)]) == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == REFS["verify"][f"{name}:all"]["sha256"]


# SHA-256 of big32's exact `verify --suite all` and `table --which both`
# JSON, as `tests/snapshot.py` writes them: big32's operators are stored as
# Python integers, so these pin the big-integer tier end to end
BIG32_SHA256 = {
    "verify": "e629a947ed3d936b0a732f74ebeb67867dd343ed90eb78430475776babbc87ca",
    "table": "75dfa66a4555e551eb99e7e593d8aaac8e8c99369b7e3e52f478e8839714a73f",
}


@pytest.mark.parametrize("argv", [["verify", "--suite", "all", "--exact"],
                                  ["table", "--which", "both"]], ids=lambda argv: argv[0])
def test_big32_json_is_byte_identical_to_the_reference(argv, tmp_path):
    model, dest = tmp_path / "big32.json", tmp_path / "out.json"
    model.write_text(json.dumps(reference.model_spec("big32", *reference.EXTRA_MODELS["big32"])))
    assert main([*argv, "--model", str(model), "--format", "json", "--out", str(dest)]) == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == BIG32_SHA256[argv[0]]


def _float_view(model: str, tmp_path) -> dict:
    # float `verify --suite all` of model, reduced to what it must keep: every
    # field but the entries, and the SHA-256 of the id/status lines
    # (`report_view` in perfbench/run.py)
    dest = tmp_path / "verify.json"
    assert main(["verify", "--model", model, "--suite", "all", "--float",
                 "--format", "json", "--out", str(dest)]) == 0
    rep = json.loads(dest.read_text())
    statuses = "".join(f"{e['id']} {e['status']}\n" for e in rep["entries"])
    view = {k: rep[k] for k in ("model", "n", "dimension", "mode", "suite",
                                "tolerance", "properties", "summary")}
    view["statuses_sha256"] = hashlib.sha256(statuses.encode()).hexdigest()
    return view


@pytest.mark.parametrize("name", BUILTINS)
def test_float_verify_json_matches_the_reference_view(name, tmp_path):
    assert _float_view(name, tmp_path) == REFS["float"][f"{name}:all"]


@pytest.mark.parametrize("name", BUILTINS)
def test_float_verify_in_the_seed_1_frame_matches_the_reference_view(name, tmp_path):
    # the benchmark checks every seed's float view against the seed-0 one; a
    # frame rotation moves every entry, so rounding lands elsewhere
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import frames
    finally:
        sys.path.pop(0)
    path = tmp_path / f"{name}.model.json"
    path.write_text(json.dumps(frames.permuted(frames.builtin_dict(name), 1)))
    assert _float_view(str(path), tmp_path) == REFS["float"][f"{name}:all"]


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    assert main(["verify", "--model", "t2", "--suite", "elementary",
                 "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(dest.read_text())
    assert data["suite"] == "elementary"


@pytest.mark.parametrize("command", [["models"], ["validate", "--model", "t2"],
                                     ["verify", "--model", "t2", "--suite", "elementary"],
                                     ["table", "--model", "t2", "--which", "bidegree"]])
def test_out_file_that_cannot_be_written_exits_3(command, tmp_path, capsys):
    # a missing directory and a directory: one error line, no traceback
    for dest in (tmp_path / "missing" / "x.json", tmp_path):
        assert main([*command, "--out", str(dest)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {dest}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "abc"])
def test_tolerance_must_be_a_finite_nonnegative_number(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "t2", "--float", "--tolerance", value])
    assert exc.value.code == 2
    assert "argument --tolerance" in capsys.readouterr().err


def test_bad_arguments_raise_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "t2", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify"])  # --model is required
    with pytest.raises(SystemExit):
        main(["verify", "--model", "t2", "--exact", "--float"])


def test_table_command_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs set-up time in every invocation and nothing here needs it
    src = Path(__file__).resolve().parent.parent / "src"
    dest = tmp_path / "table.json"
    code = ("import sys\n"
            "from kahlerid.cli import main\n"
            f"rc = main(['table', '--model', 't2', '--which', 'both', '--out', {str(dest)!r}])\n"
            "print(rc, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.split() == ["0", "False"]


def test_table_evaluates_each_planned_value_once(tmp_path, monkeypatch):
    # both tables are planned in one call: a value they share is kept until
    # its last use and never recomputed, and nothing is left in the memo
    from kahlerid import verifier

    seen = {"evals": 0, "workspaces": []}
    plan, eval_inner = verifier.Workspace.plan, verifier.Workspace._eval_inner

    def counting_plan(self, requests):
        plan(self, requests)
        seen["workspaces"].append((self, len(self._uses)))

    def counting_eval(self, expr, float_mode):
        seen["evals"] += 1
        return eval_inner(self, expr, float_mode)

    monkeypatch.setattr(verifier.Workspace, "plan", counting_plan)
    monkeypatch.setattr(verifier.Workspace, "_eval_inner", counting_eval)
    dest = tmp_path / "table.json"
    assert main(["table", "--model", "nil6", "--which", "both", "--out", str(dest)]) == 0
    [(ws, planned)] = seen["workspaces"]
    assert seen["evals"] == planned
    assert ws._memo == {} and ws._uses == {}


# traced peak of `table --which both` on nil6 after a warm-up run: 7.1 MB
# measured (21.8 MB when every zoo operator was built up front, each real one
# with its own zero imaginary part, and no table value was ever dropped)
TABLE_PEAK_BUDGET = 1.25 * 7.1e6


def test_table_memory_stays_within_its_budget(tmp_path):
    argv = ["table", "--model", "nil6", "--which", "both", "--out", str(tmp_path / "t.json")]
    assert main(argv) == 0  # warm the per-dimension caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TABLE_PEAK_BUDGET, f"traced peak {peak / 1e6:.2f} MB"
