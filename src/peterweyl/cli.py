"""Command-line front end: parse specs, run series, emit CSV.

Orchestration only; all mathematics lives in the library modules.  Exit
codes: 0 success, 1 usage, 2 validation (bad files, unknown names), 3
numeric consistency failure (including an ergodic check missing its
tolerance).  Outputs are byte-identical across runs for a fixed config.
Only `errors` and `fusion` load with this module; each handler imports the
modules it runs, so `fusion` and `folner` calls load nothing else (but
`groups` for a finite dual).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import ConsistencyError, InvalidInputError
from .fusion import FolnerSchedule, FusionRing, folner_series, get_ring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

DEFAULT_TOL_ENV = "PETERWEYL_TOL"
# the averages of `wiener --kind`, as in wiener.KINDS, which the parser does not import
KINDS = ("atom", "energy", "char")


def resolve(ring_id: str):
    """(ring, model) of a ring identifier, from `groups.resolve`."""
    from .groups import resolve

    return resolve(ring_id)


@dataclass
class RunConfig:
    """Everything one invocation needs; `run` is a pure function of this
    (plus the referenced input files)."""

    subcommand: str
    ring: str | None = None
    schedule: str | None = None
    steps: int = 20
    measure: str | None = None
    spec: str | None = None
    rep: str | None = None
    kind: str | None = None
    at: str | None = None
    labels: str | None = None
    a: str | None = None
    b: str | None = None
    s_labels: str | None = None
    out: str | None = None
    gnuplot: str | None = None
    emit_canonical: str | None = None
    ground_truth: bool = False
    tol: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.tol is None:
            text = os.environ.get(DEFAULT_TOL_ENV, "1e-8")
            try:
                self.tol = float(text)
            except ValueError as exc:
                raise InvalidInputError(f"${DEFAULT_TOL_ENV}={text!r} is not a number") from exc
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidInputError(f"tolerance must be finite and positive, got {self.tol!r}")


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1 (argparse's default of 2 is taken by validation)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _split_labels(text: str, ring: FusionRing) -> list:
    # labels are ';'-separated so tuple labels can keep their commas
    chunks = [c for c in text.split(";") if c.strip() != ""]
    if not chunks:
        raise InvalidInputError(f"no labels in {text!r}")
    return [ring.parse_label(c.strip()) for c in chunks]


def load_schedule(ring: FusionRing, spec: str | None, steps: int) -> FolnerSchedule:
    """A named per-ring default ('default', 'boxes', 'spins', 'full') or a
    JSON file {"description": ..., "sets": [[label literal, ...], ...]}."""
    name = spec or "default"
    if name in ("default", "boxes", "spins", "full"):
        if name not in ("default", ring.schedule_name):
            raise InvalidInputError(f"schedule {name!r} does not apply to ring {ring.name}")
        if steps < 1:
            raise InvalidInputError("steps must be >= 1")
        return ring.default_schedule(steps)
    obj = _load_json(name)
    if not isinstance(obj, dict) or "sets" not in obj:
        raise InvalidInputError("schedule file needs a 'sets' field")
    sets = obj["sets"]
    if not (isinstance(sets, list) and all(isinstance(F, list) for F in sets)):
        raise InvalidInputError("schedule file 'sets' must be a list of lists of label literals")
    # every literal of the file is read in one batch, straight into the label table
    table = ring.parse_table([literal for F in sets for literal in F])
    return FolnerSchedule.from_table(ring, table, [len(F) for F in sets],
                                     description=str(obj.get("description", name)))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_tables(config: RunConfig, header: list[str], rows):
    rows = list(rows)
    with _open_out(config.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    if config.gnuplot is not None:
        # same table, whitespace-separated with a commented header
        with _open_out(config.gnuplot) as fh:
            fh.write("# " + " ".join(header) + "\n")
            fh.writelines(" ".join(str(x) for x in row) + "\n" for row in rows)


def _fmt(x: float) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise ConsistencyError(f"non-finite value {value!r} in the output")
    return repr(value)


def _run_fusion(config: RunConfig) -> int:
    ring = get_ring(config.ring)
    if config.a is None or config.b is None:
        raise InvalidInputError("fusion needs --a and --b labels")
    a = ring.parse_label(config.a)
    b = ring.parse_label(config.b)
    decomposition = ring.fuse(a, b)
    rows = [
        [ring.format_label(c), decomposition[c], ring.dim(c)]
        for c in ring.sorted_labels(decomposition)
    ]
    _write_tables(config, ["label", "multiplicity", "dim"], rows)
    return EXIT_OK


def _run_folner(config: RunConfig) -> int:
    ring = get_ring(config.ring)
    if config.s_labels is None:
        raise InvalidInputError("folner needs --S labels")
    S = _split_labels(config.s_labels, ring)
    schedule = load_schedule(ring, config.schedule, config.steps)
    wcards, boundary_wcards = folner_series(schedule, S)
    rows = [[step, wf, wb, _fmt(wb / wf)] for step, (wf, wb)
            in enumerate(zip(wcards.tolist(), boundary_wcards.tolist()), start=1)]
    _write_tables(config, ["step", "wcard", "boundary_wcard", "ratio"], rows)
    return EXIT_OK


def _run_wiener(config: RunConfig) -> int:
    from .measures import measure_from_json, measure_to_json, total_mass
    from .wiener import run_series

    if config.kind not in KINDS:
        raise InvalidInputError(f"--kind must be one of {KINDS}")
    if config.measure is None:
        raise InvalidInputError("wiener needs --measure <spec.json>")
    mu = measure_from_json(_load_json(config.measure))
    if config.ring is not None and get_ring(config.ring).name != mu.model.ring.name:
        raise InvalidInputError(
            f"--ring {config.ring} does not match the measure's group {mu.model.ring.name!r}"
        )
    if not total_mass(mu) > 0:
        raise InvalidInputError("measure must have positive total mass")
    if config.emit_canonical is not None:
        with _open_out(config.emit_canonical) as fh:
            json.dump(measure_to_json(mu), fh, indent=2, sort_keys=True)
            fh.write("\n")
    ring = mu.model.ring
    at = None
    if config.kind == "atom":
        if config.at is None:
            raise InvalidInputError("atom averages need --at <element literal>")
        at = mu.model.parse_element(config.at)
    schedule = load_schedule(ring, config.schedule, config.steps)
    series = run_series(config.kind, mu, schedule, at=at, with_target=config.ground_truth)
    header = ["step", "wcard", "value_re", "value_im"]
    if config.ground_truth:
        header += ["target", "abs_error"]
    rows = []
    for i, value in enumerate(series.values):
        row = [i + 1, int(series.weighted_cardinalities[i]), _fmt(value.real), _fmt(value.imag)]
        if config.ground_truth:
            row += [_fmt(series.target), _fmt(abs(value - series.target))]
        rows.append(row)
    _write_tables(config, header, rows)
    return EXIT_OK


def _list_field(obj: dict, name: str) -> list:
    if not isinstance(obj.get(name, []), list):
        raise InvalidInputError(f"rep spec field {name!r} must be a list")
    return obj.get(name, [])


def _run_ergodic(config: RunConfig) -> int:
    from .ergodic import ergodic_limit_check, gns_rep, group_rep, point_rep
    from .measures import matrix_from_json

    if config.spec is None:
        raise InvalidInputError("ergodic needs --spec <rep.json>")
    obj = _load_json(config.spec)
    if not isinstance(obj, dict) or "ring" not in obj:
        raise InvalidInputError("rep spec needs a 'ring' field")
    ring, model = resolve(obj["ring"])
    if config.ring is not None and get_ring(config.ring).name != ring.name:
        raise InvalidInputError(
            f"--ring {config.ring} does not match the rep spec's ring {ring.name!r}"
        )
    if config.rep == "point":
        if model is None:
            raise InvalidInputError("point reps need a ring with a compact-group model")
        rep = point_rep(model, [model.parse_element(p) for p in _list_field(obj, "points")])
    elif config.rep == "group":
        rep = group_rep(ring, [matrix_from_json(m, "generator")
                               for m in _list_field(obj, "generators")])
    elif config.rep == "gns":
        rep = gns_rep(model, _list_field(obj, "state"))
    else:
        raise InvalidInputError("--rep must be point, group or gns")
    gens = (ring.generating_labels() if config.labels is None
            else _split_labels(config.labels, ring))
    schedule = load_schedule(ring, config.schedule, config.steps)
    report = ergodic_limit_check(rep, schedule, gens, tol=config.tol)
    rows = [
        [i + 1, int(report.weighted_cardinalities[i]), _fmt(report.distances[i]),
         _fmt(report.commutant_residues[i])]
        for i in range(len(schedule))
    ]
    _write_tables(config, ["step", "wcard", "dist_to_projection", "commutant_residue"], rows)
    if not report.passed:
        print(
            f"ergodic check failed: final distance {report.distances[-1]:.3e}, "
            f"final commutant residue {report.commutant_residues[-1]:.3e}, tol {report.tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


_HANDLERS = {
    "fusion": _run_fusion,
    "folner": _run_folner,
    "wiener": _run_wiener,
    "ergodic": _run_ergodic,
}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise InvalidInputError(f"unknown subcommand {config.subcommand!r}")
    return handler(config)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="peterweyl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, ring_required=True):
        if ring_required:
            p.add_argument("--ring", required=True,
                           help="Z | Z^d:<d> | SU2 | finite:<name> | dualgroup:Z^d:<d>")
        else:
            p.add_argument("--ring", default=None,
                           help="optional; must agree with the input file's ring")
        p.add_argument("--schedule", default=None, help="named default or JSON file")
        p.add_argument("--steps", type=int, default=20)
        p.add_argument("--out", default=None, help="output CSV path ('-' = stdout)")
        p.add_argument("--gnuplot", default=None,
                       help="also write a gnuplot-compatible data file")
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance (default from ${DEFAULT_TOL_ENV} or 1e-8)")

    p = sub.add_parser("fusion", help="decompose a tensor product of two labels")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)

    p = sub.add_parser("folner", help="boundary sizes and Folner ratios along a schedule")
    p.add_argument("--S", dest="s_labels", required=True,
                   help="';'-separated label literals")
    common(p)

    p = sub.add_parser("wiener", help="atom/energy/char averages of a measure")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--measure", required=True, help="measure spec JSON")
    p.add_argument("--at", default=None, help="element literal (atom kind)")
    p.add_argument("--ground-truth", action="store_true",
                   help="attach the stored-atoms oracle target and per-step error")
    p.add_argument("--emit-canonical", default=None,
                   help="also write the parsed measure back in canonical JSON")
    common(p, ring_required=False)

    p = sub.add_parser("ergodic", help="Cesaro operator averages vs the invariant projection")
    p.add_argument("--rep", required=True, choices=["point", "group", "gns"])
    p.add_argument("--spec", required=True, help="representation spec JSON")
    p.add_argument("--labels", default=None, help="';'-separated generating labels")
    common(p, ring_required=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    fields = {k: v for k, v in vars(args).items() if k in known and v is not None}
    try:
        return run(RunConfig(**fields))
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"numeric consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
