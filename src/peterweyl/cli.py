"""Command-line front end: parse specs, run series, emit CSV.

Orchestration only; all mathematics lives in the library modules.  Exit
codes: 0 success, 1 usage, 2 validation (bad files, unknown names), 3
numeric consistency failure (including an ergodic check missing its
tolerance).  Outputs are byte-identical across runs for a fixed config.
Each subparser binds its handler and declares only the options it reads.
Only `errors` and `fusion` load with this module; each handler imports the
modules it runs, so `fusion` and `folner` calls load nothing else (but
`groups` for a finite dual), and only calls that read or write JSON load
`json`.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import os
import stat
import sys
from contextlib import ExitStack, contextmanager

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
    chunks = [c for c in text.split(";") if c.strip() != ""]
    if not chunks:
        raise InvalidInputError(f"no labels in {text!r}")
    return [ring.parse_label(c.strip()) for c in chunks]


def load_schedule(ring: FusionRing, spec: str | None, steps: int) -> FolnerSchedule:
    """A named per-ring default ('default', 'boxes', 'spins', 'full') or a
    JSON file {"sets": [[label literal, ...], ...]}; any other field is not read."""
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


@contextmanager
def _open_out(path: str | None):
    """`path` open for writing but not emptied, or stdout for None and "-".
    If a later output of the call is refused, a file this call made is
    removed and one that was there is left as it was."""
    if path is None or path == "-":
        yield sys.stdout
        return
    made = not os.path.lexists(path)
    try:
        fh = open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except InvalidInputError:
            if made:
                os.remove(path)
            raise


def _write_tables(args: argparse.Namespace, header: list[str], columns,
                  canonical: str | None = None):
    """The columns as CSV (floats by repr), with --gnuplot the same rows
    space-separated under a commented header, and with `canonical` that
    text as --emit-canonical.  A non-finite float is a ConsistencyError
    before any output is opened, and every output is opened, --emit-canonical
    first, before any is emptied or written."""
    columns = [np.asarray(column) for column in columns]
    for column in columns:
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            value = column[~np.isfinite(column)][0].item()
            raise ConsistencyError(f"non-finite value {value!r} in the output")
    rows = list(zip(*(column.tolist() for column in columns)))
    with ExitStack() as outputs:
        canonical_fh = (None if canonical is None
                        else outputs.enter_context(_open_out(args.emit_canonical)))
        fh = outputs.enter_context(_open_out(args.out))
        plot_fh = None if args.gnuplot is None else outputs.enter_context(_open_out(args.gnuplot))
        for out in (canonical_fh, fh, plot_fh):
            if out not in (None, sys.stdout) and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)
        if canonical_fh is not None:
            canonical_fh.write(canonical)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if plot_fh is not None:
            plot_fh.write("# " + " ".join(header) + "\n")
            csv.writer(plot_fh, delimiter=" ", lineterminator="\n").writerows(rows)


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
    from .measures import measure_from_json, measure_to_json, total_mass
    from .wiener import run_series

    mu = measure_from_json(_load_json(args.measure))
    if args.ring is not None and get_ring(args.ring).name != mu.model.ring.name:
        raise InvalidInputError(
            f"--ring {args.ring} does not match the measure's group {mu.model.ring.name!r}"
        )
    if not total_mass(mu) > 0:
        raise InvalidInputError("measure must have positive total mass")
    ring = mu.model.ring
    at = None
    if args.kind == "atom":
        if args.at is None:
            raise InvalidInputError("atom averages need --at <element literal>")
        at = mu.model.parse_element(args.at)
    schedule = load_schedule(ring, args.schedule, args.steps)
    series = run_series(args.kind, mu, schedule, at=at, with_target=args.ground_truth)
    canonical = None
    if args.emit_canonical is not None:
        import json

        canonical = json.dumps(measure_to_json(mu), indent=2, sort_keys=True) + "\n"
    values = series.values
    header = ["step", "wcard", "value_re", "value_im"]
    columns = [np.arange(1, len(values) + 1), series.weighted_cardinalities,
               values.real, values.imag]
    if args.ground_truth:
        header += ["target", "abs_error"]
        errors = values - series.target
        # hypot, as abs() of one complex scalar (np.abs on an array may round otherwise)
        columns += [np.full(len(values), float(series.target)), np.hypot(errors.real, errors.imag)]
    _write_tables(args, header, columns, canonical)
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
    if args.ring is not None and get_ring(args.ring).name != ring.name:
        raise InvalidInputError(
            f"--ring {args.ring} does not match the rep spec's ring {ring.name!r}"
        )
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

    def command(name, handler, help, ring_required):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--ring", required=ring_required, help=(
            "Z | Z^d:<d> | SU2 | finite:<name> | dualgroup:Z^d:<d>" if ring_required
            else "optional; must agree with the input file's ring"))
        return p

    def tables(p, schedule=True):
        if schedule:
            p.add_argument("--schedule", default=None, help="named default or JSON file")
            p.add_argument("--steps", type=int, default=20)
        p.add_argument("--out", default=None, help="output CSV path ('-' = stdout)")
        p.add_argument("--gnuplot", default=None,
                       help="also write a gnuplot-compatible data file")

    p = command("fusion", _run_fusion, "decompose a tensor product of two labels", True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    tables(p, schedule=False)

    p = command("folner", _run_folner, "boundary sizes and Folner ratios along a schedule", True)
    p.add_argument("--S", dest="s_labels", required=True,
                   help="';'-separated label literals")
    tables(p)

    p = command("wiener", _run_wiener, "atom/energy/char averages of a measure", False)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--measure", required=True, help="measure spec JSON")
    p.add_argument("--at", default=None, help="element literal (atom kind)")
    p.add_argument("--ground-truth", action="store_true",
                   help="attach the stored-atoms oracle target and per-step error")
    p.add_argument("--emit-canonical", default=None,
                   help="also write the parsed measure back in canonical JSON")
    tables(p)

    p = command("ergodic", _run_ergodic, "Cesaro operator averages vs the invariant projection",
                False)
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

