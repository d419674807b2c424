"""Traced in-process run: per-module spans and counts around the program's
public functions, installed from here so the program's source stays as it
is.

Each wrapped function becomes either a *span* (name, start, end, parent,
call id, kept in memory and written out when the run ends) or a *count*
(hot, cheap functions such as label checks, where a span would cost more
than the call).  A layer's self time is its spans' durations minus the part
their child spans cover.  A target whose name no longer exists in the
program is reported as unmeasured; the run goes on without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

# (module, attribute path, layer name, "span" | "count")
TARGETS = [
    ("fusion", "FusionRing.check_label", "fusion.check_label", "count"),
    ("fusion", "LatticeRing.fuse", "fusion.fuse", "count"),
    ("fusion", "SU2Ring.fuse", "fusion.fuse", "count"),
    ("fusion", "FiniteDualRing.fuse", "fusion.fuse", "count"),
    ("fusion", "fuse", "fusion.fuse_function", "count"),
    ("fusion", "LatticeRing.parse_label", "fusion.parse_label", "count"),
    ("fusion", "SU2Ring.parse_label", "fusion.parse_label", "count"),
    ("fusion", "FiniteDualRing.parse_label", "fusion.parse_label", "count"),
    ("fusion", "LatticeRing.default_schedule", "fusion.schedule", "span"),
    ("fusion", "SU2Ring.default_schedule", "fusion.schedule", "span"),
    ("fusion", "FiniteDualRing.default_schedule", "fusion.schedule", "span"),
    ("fusion", "FolnerSchedule.__init__", "fusion.schedule", "span"),
    ("fusion", "boundary", "fusion.boundary", "span"),
    ("fusion", "weighted_cardinality", "fusion.weighted_cardinality", "span"),
    ("fusion", "folner_ratio", "fusion.folner_ratio", "span"),
    ("fusion", "verify_folner", "fusion.verify_folner", "span"),
    ("groups", "resolve", "groups.resolve", "span"),
    ("groups", "TorusModel.irrep_matrix", "groups.irrep_matrix", "span"),
    ("groups", "SU2Model.irrep_matrix", "groups.irrep_matrix", "span"),
    ("groups", "FiniteGroupModel.irrep_matrix", "groups.irrep_matrix", "span"),
    ("groups", "CompactGroupModel.character_value", "groups.character_value", "span"),
    ("groups", "SU2Model.character_value", "groups.character_value", "span"),
    ("groups", "TorusModel.parse_element", "groups.parse_element", "count"),
    ("groups", "SU2Model.parse_element", "groups.parse_element", "count"),
    ("groups", "FiniteGroupModel.parse_element", "groups.parse_element", "count"),
    ("measures", "measure_from_json", "measures.measure_from_json", "span"),
    ("measures", "measure_to_json", "measures.measure_to_json", "span"),
    ("measures", "fourier_matrix", "measures.fourier_matrix", "span"),
    ("measures", "total_mass", "measures.total_mass", "span"),
    ("measures", "atom_weight_at", "measures.atom_weight_at", "span"),
    ("measures", "atom_list", "measures.atom_list", "span"),
    ("measures", "density_eval", "measures.density_eval", "span"),
    ("wiener", "run_series", "wiener.run_series", "span"),
    ("wiener", "atom_average", "wiener.atom_average", "span"),
    ("wiener", "energy_average", "wiener.energy_average", "span"),
    ("wiener", "char_average", "wiener.char_average", "span"),
    ("wiener", "continuity_test", "wiener.continuity_test", "span"),
    ("ergodic", "FiniteDimRep.chi", "ergodic.chi", "count"),
    ("ergodic", "point_rep", "ergodic.point_rep", "span"),
    ("ergodic", "group_rep", "ergodic.group_rep", "span"),
    ("ergodic", "gns_rep", "ergodic.gns_rep", "span"),
    ("ergodic", "cesaro_operator", "ergodic.cesaro_operator", "span"),
    ("ergodic", "invariant_projection", "ergodic.invariant_projection", "span"),
    ("ergodic", "ergodic_limit_check", "ergodic.limit_check", "span"),
    ("cli", "load_schedule", "cli.load_schedule", "span"),
    ("cli", "_write_tables", "cli.output", "span"),
    ("cli", "main", "cli.main", "span"),
]

MODULES = ("fusion", "groups", "measures", "wiener", "ergodic", "cli")

SPAN_FIELDS = ("name", "start", "end", "parent", "call")


class Tracer:
    """Installs and removes the wrappers; holds spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.schedules: list = []
        self.call_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.outer: list[bool] = []
        self._patches: list[tuple] = []
        self.unmeasured: list[str] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, active, outer = self.spans, self._stack, self._active, self.outer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.call_id]
            spans.append(record)
            outer.append(active[name] == 0)
            active[name] += 1
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                active[name] -= 1

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, kind: str, package="peterweyl"):
        """Wrap every target of `kind` ("span" or "count") that exists and
        remember the missing ones.  The count pass also captures the
        schedules the CLI loads, to size them after each call."""
        self.unmeasured = []
        for module_name, path, name, target_kind in TARGETS:
            module = importlib.import_module(f"{package}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.unmeasured.append(f"{module_name}.{path}")
                continue
            if target_kind != kind:
                continue
            wrapped = (self._span if kind == "span" else self._count)(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            # module functions are also bound by name in the modules importing them
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == package or mod_name.startswith(package + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)
        cli = sys.modules[f"{package}.cli"]
        load = cli.__dict__.get("load_schedule")
        if kind == "count" and load is not None:
            self._patch(cli, "load_schedule", load, self._capture_schedule(load))

    def _capture_schedule(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            schedule = fn(*args, **kwargs)
            self.schedules.append(schedule)
            return schedule

        return wrapper

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def schedule_sizes(schedule) -> tuple[int, int] | None:
    """(sum of |F_n| stored, distinct labels) of a schedule, or None when
    the schedule does not expose its sets."""
    sets = getattr(schedule, "sets", None)
    if sets is None:
        return None
    return sum(len(F) for F in sets), len(frozenset().union(*sets))


def call_main(main, argv) -> tuple[int, str]:
    """Run the CLI's main in-process; return (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed call, not a failed benchmark
            traceback.print_exc(file=err)
            code = 1
    return code, err.getvalue()


def _pass(tracer: Tracer, cli, calls, kind: str) -> tuple[list[dict], float]:
    """One round of in-process calls; returns their records and summed time."""
    records, total = [], 0.0
    for call in calls:
        call.out.unlink(missing_ok=True)
        tracer.call_id += 1
        tracer.counts.clear()
        tracer.schedules.clear()
        t0 = time.perf_counter()
        code, stderr = call_main(cli.main, call.argv)
        total += time.perf_counter() - t0
        sizes = [s for s in map(schedule_sizes, tracer.schedules) if s is not None]
        if len(sizes) < len(tracer.schedules) and "schedule sizes" not in tracer.unmeasured:
            tracer.unmeasured.append("schedule sizes")
        records.append({
            "id": tracer.call_id, "pass": kind, "label": call.label,
            "subcommand": call.subcommand, "exit": code, "error": call.verify(code, stderr),
            "counts": dict(tracer.counts),
            "slots": sum(s[0] for s in sizes), "distinct": sum(s[1] for s in sizes),
        })
    return records, total


def traced_rounds(calls, seconds: float, deadline: float, package="peterweyl"):
    """Whole rounds until `seconds` have passed.  Each round runs its calls
    three times in-process: untraced, with spans only (times), and with
    counts only (counts and schedule sizes), so that counting the hot label
    checks does not inflate any span.  Returns the call records per round,
    the per-layer metrics (medians over rounds) and the trace document."""
    importlib.import_module(f"{package}.cli")  # imports happen before any span opens
    cli = sys.modules[f"{package}.cli"]
    tracer = Tracer()
    # one untimed, uncounted pass first: the first pass of a process pays for
    # fresh heap pages and lazily built models, which no later pass does
    _pass(tracer, cli, calls, "warm-up")
    rounds, layers, overheads = [], [], []
    start = time.perf_counter()
    while True:
        untraced, plain_s = _pass(tracer, cli, calls, "untraced")
        tracer.install("span")
        try:
            spanned, span_s = _pass(tracer, cli, calls, "span")
        finally:
            tracer.uninstall()
        tracer.install("count")
        try:
            counted, _ = _pass(tracer, cli, calls, "count")
        finally:
            tracer.uninstall()
        rounds.append(untraced + spanned + counted)
        layers.append(round_metrics(tracer, spanned, counted))
        overheads.append(span_s / plain_s - 1.0)
        if time.perf_counter() - start >= seconds or time.perf_counter() > deadline:
            break
    # median_low: every figure is one observed round, so counts stay integers
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median_low(overheads)
    document = {
        "unmeasured": tracer.unmeasured,
        "calls": [r for rec in rounds for r in rec],
        "span_fields": SPAN_FIELDS,
        "spans": tracer.spans,
    }
    return rounds, metrics, document


def round_metrics(tracer: Tracer, spanned: list[dict], counted: list[dict]) -> dict:
    """Per-layer figures of one round: times and span counts from the span
    pass, counts and schedule sizes from the count pass."""
    ids = {c["id"] for c in spanned}
    spans = tracer.spans
    child = defaultdict(float)
    for name, start, end, parent, call in spans:
        if parent >= 0 and call in ids:
            child[parent] += end - start
    incl, self_, n = Counter(), Counter(), Counter()
    for index, (name, start, end, parent, call) in enumerate(spans):
        if call not in ids:
            continue
        dur = end - start
        if tracer.outer[index]:
            incl[name] += dur
        self_[name] += dur - child[index]
        n[name] += 1
    counts = Counter()
    for c in counted:
        counts.update(c["counts"])
    distinct = sum(c["distinct"] for c in counted)
    evaluated = sum(c["distinct"] for c in counted if c["subcommand"] in ("wiener", "ergodic"))
    out = {
        "fusion.schedule_s": incl["fusion.schedule"],
        "fusion.schedule_label_slots": sum(c["slots"] for c in counted),
        "fusion.check_label_calls": counts["fusion.check_label"],
        "fusion.checks_per_label": counts["fusion.check_label"] / max(distinct, 1),
        "fusion.boundary_s": incl["fusion.boundary"],
        "fusion.fuse_calls": counts["fusion.fuse"],
        "groups.irrep_matrix_s": incl["groups.irrep_matrix"],
        "groups.irrep_matrix_calls": n["groups.irrep_matrix"],
        "groups.character_value_s": incl["groups.character_value"],
        "groups.irrep_calls_per_label": n["groups.irrep_matrix"] / max(evaluated, 1),
        "measures.fourier_matrix_self_s": self_["measures.fourier_matrix"],
        "measures.fourier_matrix_calls": n["measures.fourier_matrix"],
        "measures.measure_from_json_s": incl["measures.measure_from_json"],
        "wiener.run_series_self_s": self_["wiener.run_series"],
        "wiener.labels": sum(c["distinct"] for c in counted if c["subcommand"] == "wiener"),
        "ergodic.cesaro_operator_self_s": self_["ergodic.cesaro_operator"],
        "ergodic.cesaro_operator_calls": n["ergodic.cesaro_operator"],
        "ergodic.chi_calls": counts["ergodic.chi"],
        "ergodic.invariant_projection_s": incl["ergodic.invariant_projection"],
        "ergodic.limit_check_self_s": self_["ergodic.limit_check"],
        "cli.load_schedule_s": incl["cli.load_schedule"],
        "cli.output_s": incl["cli.output"],
        "cli.main_s": incl["cli.main"],
    }
    for module in MODULES:
        out[f"{module}.self_s"] = sum(v for k, v in self_.items() if k.startswith(module + "."))
    return out
