"""Tests of the benchmark itself: every oracle accepts the program's output
and rejects a perturbed copy of it, the spin-160 fault is flagged, the
tracer survives a missing target, and the runner refuses to run without the
program's sources.

    python3 -m pytest clibench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from workloads import WORKLOADS, build_round, read_table, weyl_character  # noqa: E402

from peterweyl import cli  # noqa: E402


def _run(call):
    call.out.unlink(missing_ok=True)
    return tracing.call_main(cli.main, call.argv)


@pytest.fixture(scope="module", params=WORKLOADS)
def round_outputs(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    calls = build_round(request.param, 7, workdir)
    return [(call, *_run(call)) for call in calls]


def _perturbed(text: str, row: int, col: int) -> str:
    header, rows = read_table(text)
    cell = rows[row][col]
    try:
        rows[row][col] = str(int(cell) + 1)
    except ValueError:
        value = float(cell)
        rows[row][col] = repr(value + 1e-6 * max(1.0, abs(value)))
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def test_oracles_accept_the_program_and_reject_perturbations(round_outputs):
    for call, code, stderr in round_outputs:
        verdict = call.verify(code, stderr)
        if call.known_fault:
            continue
        assert verdict is None, f"{call.label}: {verdict}"
        original = call.out.read_text()
        header, rows = read_table(original)
        for row in (0, len(rows) // 2, len(rows) - 1):
            for col in range(len(header)):
                if header[col] in ("step", "label"):
                    continue
                call.out.write_text(_perturbed(original, row, col))
                assert call.verify(code, stderr) is not None, (call.label, row, header[col])
        call.out.write_text("\n".join(original.splitlines()[:-1]) + "\n")
        assert call.verify(code, stderr) is not None, (call.label, "dropped row")
        call.out.write_text(original)
        assert call.verify(code + 1, stderr) is not None, (call.label, "exit code")
        assert call.verify(code, "Traceback (most recent call last):\n  boom") is not None


def test_spin_160_series_is_flagged_exactly_when_characters_are_wrong(tmp_path):
    (call,) = [c for c in build_round("spins", 0, tmp_path) if c.known_fault]
    verdict = call.verify(*_run(call))
    # the evaluation point of the fault call, as a unit quaternion
    h = (0.5 + 0.5j, 0.5 + 0.5j)
    model = cli.resolve("SU2")[1]
    chi = model.character_value(160, h).real
    exact = float(weyl_character(160, 0.5))
    characters_wrong = abs(chi - exact) > 1e-6
    assert (verdict is not None) == characters_wrong
    # with the symmetric-power matrices of this release the call is wrong
    # by many orders of magnitude; a fix of that fault turns both sides false
    if characters_wrong:
        assert "value_re" in verdict


def test_missing_target_is_reported_unmeasured(tmp_path, monkeypatch):
    from peterweyl import fusion, measures

    monkeypatch.delattr(fusion, "fuse")
    monkeypatch.delattr(measures, "atom_list")
    calls = [c for c in build_round("spins", 1, tmp_path) if c.subcommand == "fusion"]
    rounds, metrics, document = tracing.traced_rounds(calls, 0.0, float("inf"))
    assert {"fusion.fuse", "measures.atom_list"} <= set(document["unmeasured"])
    assert all(r["error"] is None for rec in rounds for r in rec)
    assert metrics["fusion.fuse_calls"] > 0
    assert metrics["cli.main_s"] > 0


def test_traced_run_records_nested_spans(tmp_path):
    calls = [c for c in build_round("lattice", 1, tmp_path) if c.subcommand == "folner"]
    _, metrics, document = tracing.traced_rounds(calls, 0.0, float("inf"))
    names = [s[0] for s in document["spans"]]
    parents = {names[s[3]] for s in document["spans"] if s[0] == "fusion.boundary"}
    assert parents == {"cli.main"}
    assert 0 < metrics["fusion.boundary_s"] < metrics["cli.main_s"]
    # every span lies inside cli.main, so the self times add up to its duration
    total_self = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    assert total_self == pytest.approx(metrics["cli.main_s"], rel=1e-9)


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "lattice",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "lattice",
                           "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_inputs_depend_on_the_seed_and_work_does_not(tmp_path):
    a = build_round("lattice", 1, tmp_path / "a")
    b = build_round("lattice", 2, tmp_path / "b")
    sched_a = json.loads((tmp_path / "a" / "windows.json").read_text())["sets"]
    sched_b = json.loads((tmp_path / "b" / "windows.json").read_text())["sets"]
    assert [len(s) for s in sched_a] == [len(s) for s in sched_b]
    assert sched_a != sched_b
    assert [c.label for c in a] == [c.label for c in b]


def test_timings_are_scaled_by_the_mean_reference_of_the_run():
    import run

    def rec(subcommand, wall, reference):
        return {"subcommand": subcommand, "wall_s": wall, "cpu_s": wall, "rss_mb": 40.0,
                "reference_s": reference}

    rounds = [[rec("fusion", 0.2, 0.4), rec("folner", 1.0, 0.4)],
              [rec("fusion", 0.4, 1.2), rec("folner", 3.0, 1.2)],
              [rec("fusion", 0.3, 0.8), rec("folner", 1.1, 0.8)]]
    scale = run.REFERENCE_S / 0.8
    scaled = {k: v for k, (v, _) in run.end_to_end_metrics(rounds).items()}
    unscaled = {k: v for k, (v, _) in run.end_to_end_metrics(rounds, scaled=False).items()}
    assert unscaled["folner_s"] == pytest.approx(1.7)
    assert unscaled["wall_s"] == pytest.approx(2.0)
    assert unscaled["setup_s"] == 0.3
    for name in ("folner_s", "wall_s", "cpu_s", "setup_s"):
        assert scaled[name] == pytest.approx(scale * unscaled[name])
    assert scaled["peak_rss_mb"] == unscaled["peak_rss_mb"] == 40.0
