"""Benchmark of the peterweyl CLI: closed-loop rounds of CLI calls, each
output checked against closed-form oracles.

    python3 clibench/run.py --workload lattice --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is taken from ./src.
One runner process starts one CLI process at a time, and the next starts
only after the previous one has exited.  A run repeats whole rounds (the
same calls on the same seed-drawn inputs) until `--seconds` have passed,
then prints, as its last stdout line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of the subprocess calls.  Each
round also starts a fixed reference job that shares no code with the
program (REFERENCE_CODE), and every timing of a run is scaled by
REFERENCE_S over the run's mean reference time: the figures are seconds at
the speed at which the reference takes REFERENCE_S.  The unscaled figures
are printed on the line before the result and kept in run.json.
--trace 1 runs the same rounds in-process through `peterweyl.cli.main`
with per-module spans installed (see tracing.py) and reports per-layer
metrics instead; each traced round is preceded by the same round with the
wrappers removed, which gives the tracing overhead.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, here and in every child: the
# default OpenBLAS threading doubled CPU time over wall time on SU(2) labels
# above ~64 and widened the run-to-run spread several times.
THREAD_PINS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402

from workloads import WORKLOADS, build_round  # noqa: E402

# a run ends within this many seconds whatever --seconds says
RUN_BUDGET_S = 170.0
SUBCOMMANDS = ("wiener", "ergodic", "folner")

# The reference job: interpreter start and a numpy import, a pure-Python
# integer loop, a dict of tuple keys and frozenset values, and small numpy
# matrix products -- the kinds of work the CLI calls do.  The machine the
# benchmark was tuned on (2 vCPUs of a shared host) changes speed by 20-30 %
# over minutes, and every call of a run moves with it; unscaled runs spread
# up to 0.26 between runs, scaled ones at most 0.08 (see README.md).
REFERENCE_CODE = """\
import numpy as np
s = 0
for i in range(1_500_000):
    s += i * i
d = {(i, i + 1, i + 2): frozenset((i,)) for i in range(150_000)}
s += sum(len(v) for v in d.values())
a = np.random.default_rng(0).normal(size=(4, 4))
for _ in range(20_000):
    s += float((a @ a).trace())
"""
# the reference's wall time at the speed the scaled figures are quoted at
REFERENCE_S = 0.8


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, stderr_path: Path, timeout: float) -> dict:
    """Run one process to its exit; wall time from spawn to exit plus the
    child's own CPU time and peak RSS from wait4."""
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env,
                                cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "exit": proc.returncode,
        "stderr": stderr,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def subprocess_round(calls, env, workdir, deadline) -> list[dict]:
    """One round: the reference job, then each CLI call.  Every call record
    carries the wall time of its round's reference as `reference_s`."""
    ref = spawn([sys.executable, "-c", REFERENCE_CODE], env, workdir / "stderr.txt",
                max(deadline - time.perf_counter(), 1.0))
    if ref["exit"] != 0:
        raise RuntimeError(f"the reference job failed with exit {ref['exit']}:\n{ref['stderr']}")
    records = []
    for call in calls:
        call.out.unlink(missing_ok=True)
        remaining = deadline - time.perf_counter()
        rec = spawn([sys.executable, "-m", "peterweyl", *call.argv], env,
                    workdir / "stderr.txt", max(remaining, 1.0))
        rec["error"] = call.verify(rec["exit"], rec["stderr"])
        rec.update(label=call.label, subcommand=call.subcommand, reference_s=ref["wall_s"])
        records.append(rec)
    return records


def run_subprocess_rounds(calls, seconds, workdir, deadline):
    env = child_env()
    # byte-compile the sources once, untimed, as an installed package would be
    subprocess.run([sys.executable, "-c", "import peterweyl.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(subprocess_round(calls, env, workdir, deadline))
        if time.perf_counter() - start >= seconds or time.perf_counter() > deadline:
            return rounds


def end_to_end_metrics(rounds, scaled=True) -> dict:
    """Means over rounds (medians for `setup_s`), with every timing scaled by
    REFERENCE_S over the run's mean reference time unless `scaled` is false.
    Means of whole rounds: on ten-run sets they spread less than medians
    (see README.md); no single round on the tuning machine strayed far."""
    scale = REFERENCE_S / statistics.fmean(rec[0]["reference_s"] for rec in rounds) \
        if scaled else 1.0

    def per_round(key, pred=lambda r: True):
        return scale * statistics.fmean(sum(r[key] for r in rec if pred(r)) for rec in rounds)

    out = {
        "wall_s": (per_round("wall_s"), "s"),
        "cpu_s": (per_round("cpu_s"), "s"),
    }
    for sub in SUBCOMMANDS:
        out[f"{sub}_s"] = (per_round("wall_s", lambda r, s=sub: r["subcommand"] == s), "s")
    out["peak_rss_mb"] = (max(r["rss_mb"] for rec in rounds for r in rec), "MB")
    out["setup_s"] = (scale * statistics.median(r["wall_s"] for rec in rounds for r in rec
                                                if r["subcommand"] == "fusion"), "s")
    return out


def run_traced_rounds(calls, seconds, workdir, deadline):
    sys.path.insert(0, str(SRC))
    from tracing import traced_rounds

    rounds, metrics, document = traced_rounds(calls, seconds, deadline)
    document["environment"] = environment()
    # spans stay in memory during the run and are written once, here
    (workdir / "trace.json").write_text(json.dumps(document))
    if document["unmeasured"]:
        print("unmeasured: " + ", ".join(document["unmeasured"]), file=sys.stderr)
    return rounds, {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_label", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "peterweyl" / "cli.py").is_file():
        print(f"error: no program sources at {SRC / 'peterweyl'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calls = build_round(args.workload, args.seed, workdir)

    if args.trace:
        rounds, metrics = run_traced_rounds(calls, args.seconds, workdir, deadline)
    else:
        rounds = run_subprocess_rounds(calls, args.seconds, workdir, deadline)
        metrics = end_to_end_metrics(rounds)
        unscaled = {name: value for name, (value, _) in end_to_end_metrics(rounds, False).items()}

    known = {c.label for c in calls if c.known_fault}
    failures = [r for rec in rounds for r in rec if r["error"] is not None]
    unexpected = [r for r in failures if r["label"] not in known]
    for r in unexpected:
        print(f"FAILED {r['label']}: {r['error']}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "calls_per_round": len(rounds[0]),
              "unscaled": {} if args.trace else unscaled,
              "environment": environment(),
              "failures": sorted({f"{r['label']}: {r['error']}" for r in failures}),
              "calls": [{k: v for k, v in r.items() if k not in ("stderr", "counts")}
                        for rec in rounds for r in rec]}
    (workdir / "run.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("environment", "rounds", "calls_per_round",
                                              "unscaled")}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(len(rec) for rec in rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
