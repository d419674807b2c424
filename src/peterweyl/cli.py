"""Command-line front end: parse specs, run series, emit CSV.

Orchestration only; all mathematics lives in the library modules.  Exit
codes: 0 success, 1 usage, 2 validation (bad files, unknown names), 3
numeric consistency failure (including an ergodic check missing its
tolerance).  Outputs are byte-identical across runs for a fixed config.
Each subparser binds its handler and declares only the options it reads.
Only `errors` and `fusion` load with this module; each handler imports the
modules it runs, so `fusion` and `folner` calls load nothing else (but
`groups` for a finite dual), and only calls that read JSON load `json`.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import sys

import numpy as np

from .errors import ConsistencyError, InvalidInputError
from .fusion import FolnerSchedule, FusionRing, boundary, get_ring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# the averages of `wiener --kind`, as in wiener.KINDS, which the parser does not import
KINDS = ("atom", "energy", "char")


def resolve(ring_id: str):
    """(ring, model) of a ring identifier, from `groups.resolve`."""
    from .groups import resolve

    return resolve(ring_id)


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1 (argparse's default of 2 is taken by validation)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _split_labels(text: str, ring: FusionRing) -> list:
    # labels are ';'-separated so tuple labels can keep their commas
    return ring.labels_of(ring.parse_table(text.split(";")))


def load_schedule(ring: FusionRing, spec: str | None, steps: int | None) -> FolnerSchedule:
    """The ring's default schedule of `steps` steps (20 for None) for None, else the
    JSON file `spec`, {"sets": [[label literal, ...], ...]}; any other field is not read."""
    if spec is None:
        steps = 20 if steps is None else steps
        if steps < 1:
            raise InvalidInputError("steps must be >= 1")
        return ring.default_schedule(steps)
    obj = _load_json(spec)
    if not isinstance(obj, dict) or "sets" not in obj:
        raise InvalidInputError("schedule file needs a 'sets' field")
    sets = obj["sets"]
    if not (isinstance(sets, list) and all(isinstance(F, list) for F in sets)):
        raise InvalidInputError("schedule file 'sets' must be a list of lists of label literals")
    # every literal of the file is read in one batch, straight into the label table
    table = ring.parse_table([literal for F in sets for literal in F])
    return FolnerSchedule.from_table(ring, table, [len(F) for F in sets])


def _load_json(path: str):
    import json

    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InvalidInputError(f"invalid JSON in {path}: nested too deeply") from exc


def _write_tables(args: argparse.Namespace, header: list[str], columns):
    """The columns as CSV (floats by repr) to --out, or stdout for None and
    "-".  A non-finite float is a ConsistencyError before the output is
    opened, so a refused call writes nothing."""
    columns = [np.asarray(column) for column in columns]
    for column in columns:
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            value = column[~np.isfinite(column)][0].item()
            raise ConsistencyError(f"non-finite value {value!r} in the output")
    rows = zip(*(column.tolist() for column in columns))
    fh = sys.stdout
    if args.out not in (None, "-"):
        try:
            fh = open(args.out, "w", newline="")
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.out}: {exc}") from exc
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _run_fusion(args: argparse.Namespace) -> int:
    ring = get_ring(args.ring)
    a = ring.parse_label(args.a)
    b = ring.parse_label(args.b)
    decomposition = ring.fuse(a, b)
    labels = ring.sorted_labels(decomposition)
    _write_tables(args, ["label", "multiplicity", "dim"],
                  [list(map(ring.format_label, labels)), list(map(decomposition.get, labels)),
                   list(map(ring.dim, labels))])
    return EXIT_OK


def _run_folner(args: argparse.Namespace) -> int:
    ring = get_ring(args.ring)
    S = _split_labels(args.s_labels, ring)
    schedule = load_schedule(ring, args.schedule, args.steps)
    wcards, boundary_wcards = schedule.weighted_cardinalities, boundary(schedule, S)
    # exact ints divided by Python, which rounds the quotient correctly
    ratios = list(map(operator.truediv, boundary_wcards.tolist(), wcards.tolist()))
    _write_tables(args, ["step", "wcard", "boundary_wcard", "ratio"],
                  [np.arange(1, len(wcards) + 1), wcards, boundary_wcards, ratios])
    return EXIT_OK


def _run_wiener(args: argparse.Namespace) -> int:
    from .measures import measure_from_json, total_mass
    from .wiener import run_series

    mu = measure_from_json(_load_json(args.measure))
    if not total_mass(mu) > 0:
        raise InvalidInputError("measure must have positive total mass")
    ring = mu.model.ring
    at = None
    if args.kind == "atom":
        if args.at is None:
            raise InvalidInputError("atom averages need --at <element literal>")
        at = mu.model.parse_element(args.at)
    schedule = load_schedule(ring, args.schedule, args.steps)
    series = run_series(args.kind, mu, schedule, at=at)
    values = series.values
    header = ["step", "wcard", "value_re", "value_im"]
    columns = [np.arange(1, len(values) + 1), series.weighted_cardinalities,
               values.real, values.imag]
    if args.ground_truth:
        header += ["target", "abs_error"]
        errors = values - series.target
        # hypot, as abs() of one complex scalar (np.abs on an array may round otherwise)
        columns += [np.full(len(values), float(series.target)), np.hypot(errors.real, errors.imag)]
    _write_tables(args, header, columns)
    return EXIT_OK


def _list_field(obj: dict, name: str) -> list:
    if not isinstance(obj.get(name, []), list):
        raise InvalidInputError(f"rep spec field {name!r} must be a list")
    return obj.get(name, [])


def _run_ergodic(args: argparse.Namespace) -> int:
    from .ergodic import ergodic_limit_check, gns_rep, group_rep, point_rep
    from .measures import matrix_from_json

    tol = args.tol  # checked before the spec is read
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tolerance must be finite and positive, got {tol!r}")
    obj = _load_json(args.spec)
    if not isinstance(obj, dict) or "ring" not in obj:
        raise InvalidInputError("rep spec needs a 'ring' field")
    ring, model = resolve(obj["ring"])
    if args.rep == "point":
        if model is None:
            raise InvalidInputError("point reps need a ring with a compact-group model")
        rep = point_rep(model, [model.parse_element(p) for p in _list_field(obj, "points")])
    elif args.rep == "group":
        rep = group_rep(ring, [matrix_from_json(m, "generator")
                               for m in _list_field(obj, "generators")])
    else:
        rep = gns_rep(model, _list_field(obj, "state"))
    gens = (ring.generating_labels() if args.labels is None
            else _split_labels(args.labels, ring))
    schedule = load_schedule(ring, args.schedule, args.steps)
    report = ergodic_limit_check(rep, schedule, gens, tol=tol)
    _write_tables(args, ["step", "wcard", "dist_to_projection", "commutant_residue"],
                  [np.arange(1, len(schedule) + 1), report.weighted_cardinalities,
                   report.distances, report.commutant_residues])
    if not report.passed:
        print(
            f"ergodic check failed: final distance {report.distances[-1]:.3e}, "
            f"final commutant residue {report.commutant_residues[-1]:.3e}, tol {report.tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="peterweyl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help, ring=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if ring:  # wiener and ergodic read the ring from their input file
            p.add_argument("--ring", required=True,
                           help="Z | Z^d:<d> | SU2 | finite:<name> | dualgroup:Z^d:<d>")
        return p

    def tables(p, schedule=True):
        if schedule:  # a schedule file, or the steps of the ring's default schedule
            group = p.add_mutually_exclusive_group()
            group.add_argument("--schedule",
                               help="JSON schedule file (default: the ring's default schedule)")
            group.add_argument("--steps", type=int, help="default schedule steps (default 20)")
        p.add_argument("--out", default=None, help="output CSV path ('-' = stdout)")

    p = command("fusion", _run_fusion, "decompose a tensor product of two labels", ring=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    tables(p, schedule=False)

    p = command("folner", _run_folner, "boundary sizes and Folner ratios along a schedule",
                ring=True)
    p.add_argument("--S", dest="s_labels", required=True,
                   help="';'-separated label literals")
    tables(p)

    p = command("wiener", _run_wiener, "atom/energy/char averages of a measure")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--measure", required=True, help="measure spec JSON")
    p.add_argument("--at", default=None, help="element literal (atom kind)")
    p.add_argument("--ground-truth", action="store_true",
                   help="add the stored-atoms oracle target and per-step error columns")
    tables(p)

    p = command("ergodic", _run_ergodic, "Cesaro operator averages vs the invariant projection")
    p.add_argument("--rep", required=True, choices=["point", "group", "gns"])
    p.add_argument("--spec", required=True, help="representation spec JSON")
    p.add_argument("--labels", default=None, help="';'-separated generating labels")
    tables(p)
    p.add_argument("--tol", type=float, default=1e-8, help="tolerance (default 1e-8)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"numeric consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

