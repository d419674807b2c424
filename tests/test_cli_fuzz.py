"""Fuzzing of the measure parser and of `cli.main` on generated argv and
input files, for all four subcommands."""

import contextlib
import csv
import io
import json
import math
import os
import warnings

import pytest
from hypothesis import event, given, settings, strategies as st

from peterweyl import InvalidInputError, MeasureSpec, measure_from_json
from peterweyl.cli import EXIT_OK, EXIT_USAGE, main

_RING_IDS = st.sampled_from(["Z", "Z^d:2", "SU2", "finite:S3", "finite:Q8", "dualgroup:Z^d:2",
                             "Z^d:0", "finite:X", "dualgroup:Z", "su2"])
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4,
)
_NUMBERS = st.integers(-3, 3) | st.floats(-2, 2) | st.sampled_from(
    [0.5, 1e300, -1e300, 1e308, float("nan"), float("inf")])
_ENTRIES = _NUMBERS | st.lists(_NUMBERS, min_size=2, max_size=2) | _JUNK
# second spellings of an element, each refused: a list of circle literals, a bare index
_ELEMENT_SPELLINGS = st.lists(st.sampled_from(["z:1,0", "z:0,1"]), min_size=1, max_size=3) \
    | st.integers(0, 5)
_ELEMENTS = st.sampled_from([
    "z:1,0", "z:0,1", "z:-1,0", "z:1,0;0,1", "z:0.6,0.8;1,0", "q:1,0,0,0", "q:0.5,0.5,0.5,0.5",
    "q:0,1,0,0", "g:0", "g:3", "g:5", "g:9", "z:nan,0", "z:0,0", "q:1,2", "w:1,0",
]) | _ELEMENT_SPELLINGS | _JUNK
# label literals, and spellings outside their grammar: blanks, signs, `_`, empty parts, 20 digits
_LABELS = st.sampled_from(["0", "1", "2", "-1", "1,0", "0,1", "0,-1", "1;0", "w:1,1", "std",
                           "sign", "trivial", "twodim", "chi_i", "", ";", "x", "2**70",
                           "3037000499", "1,0,0", " 3", "+3", "3_0", "\u0663", "3,", ";3",
                           "7,,8", " w:1,2", "w:w:1,2", "1" * 20])
_MATRICES = st.lists(st.lists(_ENTRIES, min_size=1, max_size=2), min_size=1, max_size=2) | _JUNK
# a JSON document nested past the recursion limit, written as text: json.dump cannot write it
_DEEP = "[" * 100_000 + "]" * 100_000


def _measures():
    atom = st.fixed_dictionaries({"element": _ELEMENTS, "weight": _NUMBERS | _JUNK}) | _JUNK
    density = st.fixed_dictionaries({"irrep": _LABELS | _JUNK, "matrix": _MATRICES}) | _JUNK
    doc = st.fixed_dictionaries(
        {"group": _RING_IDS | _JUNK},
        optional={"atoms": st.lists(atom, max_size=3) | _JUNK,
                  "density": st.lists(density, max_size=2) | _JUNK})
    return doc | _JUNK


def _rep_specs():
    return st.fixed_dictionaries(
        {"ring": _RING_IDS | _JUNK},
        optional={"points": st.lists(_ELEMENTS, max_size=3) | _JUNK,
                  "generators": st.lists(_MATRICES, max_size=3) | _JUNK,
                  "state": st.lists(_NUMBERS | _JUNK, max_size=9) | _JUNK}) | _JUNK


def _schedules():
    literal = _LABELS | st.integers(-3, 3) | st.lists(st.integers(-2, 2), max_size=3) | _JUNK
    sets = st.lists(st.lists(literal, min_size=1, max_size=4) | _JUNK, min_size=1, max_size=3)
    return st.fixed_dictionaries({"sets": sets | _JUNK}) | _JUNK


@settings(max_examples=300, deadline=None)
@given(doc=_measures())
def test_measure_from_json_returns_a_measure_or_refuses(doc):
    try:
        mu = measure_from_json(doc)
    except InvalidInputError:
        return
    assert isinstance(mu, MeasureSpec)


# per ring: label literals, element literals, and the rep kind of a spec
_RINGS = {
    "Z": (["0", "1", "-2"], ["z:1,0", "z:0,1", "z:-0.6,0.8"], "point"),
    "Z^d:2": (["0,0", "1,0", "0,-1"], ["z:1,0;0,1", "z:0.6,0.8;-1,0"], "point"),
    "SU2": (["0", "1", "3"], ["q:1,0,0,0", "q:0.5,0.5,0.5,0.5", "q:0,1,0,0"], "point"),
    "finite:S3": (["trivial", "sign", "std"], ["g:0", "g:1", "g:4"], "gns"),
    "finite:Q8": (["trivial", "chi_i", "twodim"], ["g:0", "g:3", "g:7"], "point"),
    "dualgroup:Z^d:2": (["0,0", "1,0", "0,-1"], ["z:1,0"], "group"),
}
_UNITS = [[1, 0], [-1, 0], [0, 1], [0, -1]]


def _chooser(clean: bool):
    """pick(good, bad): `good` in a clean call, else usually `good` and
    sometimes `bad`."""
    return lambda good, bad: good if clean else st.one_of(good, good, good, bad)


def _option(draw, clean: bool, name: str, strategy) -> list[str]:
    """The option with a drawn value; a call that is not clean leaves it out
    one time in ten."""
    return [] if not clean and draw(st.integers(0, 9)) == 9 else [name, draw(strategy)]


@st.composite
def _inputs(draw, ring_id, clean):
    """A measure, a rep spec and a schedule file of the ring; unless the
    call is clean, each is sometimes broken or replaced by junk, deep JSON
    among it."""
    pick = _chooser(clean)
    labels, elements, _ = _RINGS[ring_id]
    label = st.sampled_from(labels)
    element = pick(st.sampled_from(elements), _ELEMENT_SPELLINGS)
    weight = pick(st.sampled_from([0.25, 0.5, 1, 2]), _NUMBERS | _JUNK)
    measure = pick(st.fixed_dictionaries({
        "group": pick(st.just(ring_id), _RING_IDS),
        "atoms": st.lists(pick(st.fixed_dictionaries({"element": element, "weight": weight}),
                               _JUNK), max_size=2, unique_by=lambda atom: str(atom)),
        "density": st.lists(pick(st.fixed_dictionaries(
            {"irrep": st.just(labels[0]), "matrix": pick(st.just([[0.5]]), _MATRICES)}),
            _JUNK), max_size=1),
    }), _measures() | st.just(_DEEP))
    diagonal = st.tuples(st.sampled_from(_UNITS), st.sampled_from(_UNITS)).map(
        lambda d: [[d[0], [0, 0]], [[0, 0], d[1]]])
    spec = pick(st.fixed_dictionaries({
        "ring": pick(st.just(ring_id), _RING_IDS),
        "points": st.lists(element, min_size=1, max_size=3),
        "generators": st.lists(pick(diagonal, _MATRICES), min_size=2, max_size=2),
        "state": st.lists(pick(st.sampled_from([0.5, 1, 0]), _NUMBERS), min_size=6, max_size=6),
    }), _rep_specs() | st.just(_DEEP))
    schedule = pick(st.fixed_dictionaries({"sets": st.lists(
        st.lists(pick(label, _LABELS), min_size=1, max_size=3), min_size=1, max_size=3)}),
        _schedules() | st.just(_DEEP))
    return draw(measure), draw(spec), draw(schedule)


@st.composite
def _invocations(draw, files, ring_id, clean, sub):
    """The argv of one generated call of `sub`."""
    pick = _chooser(clean)
    labels, elements, rep = _RINGS[ring_id]
    label = pick(st.sampled_from(labels), _LABELS)
    ring = pick(st.just(ring_id), _RING_IDS | st.text(max_size=6))
    if sub in ("fusion", "folner"):
        argv = [sub] + _option(draw, clean, "--ring", ring)
    else:
        # a wiener or ergodic call reads its ring from its input file: --ring is a usage error
        argv = [sub] + ([] if clean or draw(st.integers(0, 3)) else ["--ring", draw(ring)])
    if sub == "fusion":
        argv += _option(draw, clean, "--a", label) + _option(draw, clean, "--b", label)
    elif sub == "folner":
        argv += _option(draw, clean, "--S", st.lists(label, min_size=1, max_size=2).map(";".join))
    elif sub == "wiener":
        argv += _option(draw, clean, "--kind", pick(st.sampled_from(["atom", "energy", "char"]),
                                                    st.just("x")))
        argv += _option(draw, clean, "--measure", st.just(files["measure"]))
        argv += _option(draw, clean, "--at", pick(st.sampled_from(elements),
                                                  _ELEMENTS.filter(lambda e: isinstance(e, str))))
        argv += draw(st.sampled_from([[], ["--ground-truth"]]))
    else:
        argv += _option(draw, clean, "--rep", pick(st.just(rep), st.sampled_from(
            ["point", "group", "gns", "x"])))
        argv += _option(draw, clean, "--spec", st.just(files["spec"]))
        if draw(st.booleans()):
            argv += ["--labels", draw(st.lists(label, min_size=1, max_size=2).map(";".join))]
    # a clean call passes only the options its subcommand reads; any other
    # call may pass them anywhere, which is a usage error
    scheduled, tolerant = not clean or sub != "fusion", not clean or sub == "ergodic"
    if scheduled and draw(st.booleans()):
        argv += ["--steps", draw(pick(st.integers(1, 6).map(str),
                                      st.integers(-2, 0).map(str) | st.text(max_size=4)))]
    if tolerant and draw(st.booleans()):
        argv += ["--tol", draw(pick(st.sampled_from(["1e-9", "1e-3", "1"]),
                                    st.sampled_from(["0", "-1", "nan", "inf", "x"])))]
    if scheduled and draw(st.booleans()):
        # the names that only meant "omit --schedule" are paths, of no file
        argv += ["--schedule", draw(pick(st.just(files["schedule"]), st.sampled_from(
            ["default", "boxes", "spins", "full", "x.json"])))]
    return argv + ["--out", files["out"]]


def _finite_cells(path) -> bool:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    numeric = [i for i, name in enumerate(header) if name != "label"]
    return all(math.isfinite(float(row[i])) for row in rows for i in numeric)


@pytest.mark.parametrize("sub", ["fusion", "folner", "wiener", "ergodic"])
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_main_on_generated_calls_exits_cleanly(tmp_path_factory, sub, data):
    work = tmp_path_factory.mktemp("cli")
    files = {name: str(work / f"{name}.json")
             for name in ("measure", "spec", "schedule")}
    files["out"] = str(work / "out.csv")
    # a wiener call needs a measure, which a dual group has not
    rings = sorted(r for r in _RINGS if sub != "wiener" or _RINGS[r][2] != "group")
    ring_id, clean = data.draw(st.sampled_from(rings)), data.draw(st.booleans())
    for name, doc in zip(("measure", "spec", "schedule"), data.draw(_inputs(ring_id, clean))):
        with open(files[name], "w") as fh:
            fh.write(doc if doc is _DEEP else json.dumps(doc))
    argv = data.draw(_invocations(files, ring_id, clean, sub))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    stderr = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr
    # every numeric pass keeps its warnings to itself: an input it cannot take is refused
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    # argparse prints its usage line for every usage error, and only there
    assert (code == EXIT_USAGE) == stderr.startswith("usage:")
    wrote = os.path.exists(files["out"])
    if code == EXIT_OK:
        assert wrote and _finite_cells(files["out"])
    else:
        # the one non-zero exit with a table: an ergodic check that misses its tolerance
        assert not wrote or stderr.startswith("ergodic check failed")
