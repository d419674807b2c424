"""Check that two trees of the program give the same outputs on the benchmark calls.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding the `peterweyl` package,
such as the `src/` of two checkouts.  Every call of
`clibench.workloads.build_round` (workloads `lattice` and `spins`, seeds 1-3:
51 calls) runs as `python -m peterweyl` once on each tree, in
the same working directory and with the same input files, so a path in an
error message reads the same on both sides.  The script compares each
call's exit code, stderr and the sha256 of its CSV, prints one line per
difference and a summary, and exits 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from clibench.workloads import WORKLOADS, build_round  # noqa: E402

# one BLAS thread, as clibench runs the calls
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SEEDS = (1, 2, 3)


def run(call, src: Path, workdir: Path) -> tuple[int, str, str]:
    """(exit code, stderr, CSV sha256 or "no output") of one call on one tree."""
    call.out.unlink(missing_ok=True)
    env = {**os.environ, **dict.fromkeys(THREADS, "1"), "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "peterweyl", *call.argv], env=env,
                          cwd=workdir, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    digest = hashlib.sha256(call.out.read_bytes()).hexdigest() if call.out.exists() \
        else "no output"
    return proc.returncode, proc.stderr, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="package directory of the parent tree")
    parser.add_argument("change", type=Path, help="package directory of the changed tree")
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not (src / "peterweyl" / "__init__.py").is_file():
            parser.error(f"{src} holds no peterweyl package")
    parent, change = args.parent.resolve(), args.change.resolve()
    calls = differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                workdir = Path(tmp) / f"{workload}_{seed}"
                for call in build_round(workload, seed, workdir):
                    calls += 1
                    before, after = run(call, parent, workdir), run(call, change, workdir)
                    differ += before != after
                    for what, a, b in zip(("exit code", "stderr", "CSV sha256"), before, after):
                        if a != b:
                            print(f"{workload} seed {seed} {call.label}: {what} "
                                  f"{a!r} -> {b!r}")
    print(f"{calls} calls, {differ} with different outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
