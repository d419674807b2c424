"""The README agrees with the code: its quick start runs as documented, and
what it states about the guards, the ring rules, the options and the
library surface holds."""

import ast
import dataclasses
import inspect
import re
from functools import cached_property
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src" / "peterweyl"

# public functions that neither `src/` calls nor the quick start shows, each kept for a reason
UNCALLED = {
    "fuse": "clibench's unmeasured-target test deletes it by name",
    "atom_list": "clibench's unmeasured-target test deletes it by name",
    "fourier_matrix": "the definition the averages are tested against",
    "haar": "a measure constructor the tests and the ROADMAP's singular measures build on",
    "dirac": "a measure constructor the tests and the ROADMAP's singular measures build on",
}
# public methods, properties and dataclass fields of exported classes that nothing in
# `src/` reads and the quick start does not show, each kept for a reason
UNREAD = {
    "CompactGroupModel.character_value":
        "clibench's test_spin_160_series_is_flagged_exactly_when_characters_are_wrong "
        "calls it, and clibench/tracing.py wraps it",
    "FolnerSchedule.sets":
        "clibench/tracing.py's schedule_sizes reads it for the schedule-size metrics",
    "ErgodicReport.averages":
        "tests/helpers.py's cesaro builds the dense M_F from it, the dense-path oracle",
    "ErgodicReport.invariant": "tests/helpers.py's projection builds the dense P from it",
    "FiniteDimRep.basis": "tests/helpers.py's operator builds dense operators from it",
    "FiniteDimRep.cyclic_vector":
        "the GNS tests and acceptance criterion 6 read the state through it",
}


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _shown() -> set:
    """The attributes the quick start reads."""
    return {node.attr for node in ast.walk(ast.parse(_quick_start()))
            if isinstance(node, ast.Attribute)}


def test_library_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {})
    final, energy, check = capsys.readouterr().out.strip().splitlines()
    assert abs(complex(final) - (0.5 + 0.5 / 401)) < 1e-12
    assert abs(float(energy) - (0.25 + 0.75 / 401)) < 1e-12
    # i^n and (-1)^n averaged over -50..50 give -1/101 and 1/101
    distance, passed = check.split()
    assert abs(float(distance) - 1 / 101**2) < 1e-12 and passed == "False"


def test_every_public_function_has_a_caller_or_is_shown():
    # a bare name read in a module of src/ other than the export table counts
    # as a caller: the modules call each other's functions by imported name
    import peterweyl

    used = {node.id for path in SRC.glob("*.py") if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    functions = {name for name in peterweyl.__all__
                 if not isinstance(getattr(peterweyl, name), type)}
    assert sorted(functions - used - _shown()) == sorted(UNCALLED)


def test_every_public_method_has_a_reader_or_is_shown():
    # an attribute read anywhere in src/ counts as a caller, on whatever
    # object it is read: the code reads methods off rings, models and schedules.
    # So a dataclass field counts as read when any object's attribute of its
    # name is: the check finds fields that only tests read, not copies of inputs
    import peterweyl

    read = {node.attr for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    kinds = (property, cached_property, classmethod, staticmethod)
    methods = {f"{name}.{attr}" for name in peterweyl.__all__
               if isinstance(getattr(peterweyl, name), type)
               for attr, value in vars(getattr(peterweyl, name)).items()
               if not attr.startswith("_")
               and (inspect.isfunction(value) or isinstance(value, kinds))}
    fields = {f"{name}.{field.name}" for name in peterweyl.__all__
              if dataclasses.is_dataclass(getattr(peterweyl, name))
              for field in dataclasses.fields(getattr(peterweyl, name))}
    unread = {member for member in methods | fields
              if member.split(".")[1] not in read | _shown()}
    assert sorted(unread) == sorted(UNREAD)


def test_work_limit_and_unit_costs_are_the_guards():
    from peterweyl import fusion

    text = README.read_text(encoding="utf-8")
    limit = re.search(r"`MAX_WORK_S` = (\S+) s", text).group(1)
    table = text.split("`MAX_WORK_S`", 1)[1].split("\n\n", 2)[1]
    costs = dict(re.findall(r"^\| ([a-z ]+) \| (\S+) \|", table, re.M))
    assert float(limit) == fusion.MAX_WORK_S
    assert {unit: float(cost) for unit, cost in costs.items()} == fusion.COST_S


def test_the_rules_a_ring_states_are_the_abstract_methods():
    from peterweyl import FusionRing, fusion

    text = " ".join(README.read_text(encoding="utf-8").split())
    rules = re.search(r"states seven rules, (.*?), and may restate", text).group(1)
    assert set(re.findall(r"`(\w+)`", rules)) == FusionRing.__abstractmethods__
    defaults = re.search(r"three that have defaults: (.*?)\. `Z\^d` restates", text).group(1)
    named = re.findall(r"`(\w+)` \(", defaults)
    assert named == ["trivial", "order_keys", "format_label"]
    assert FusionRing.__abstractmethods__.isdisjoint(named)
    assert all(hasattr(FusionRing, name) for name in named)
    # one label reader: no ring restates it, a ring only names its prefix and irreps
    rings = [c for c in vars(fusion).values()
             if isinstance(c, type) and issubclass(c, FusionRing) and c is not FusionRing]
    assert rings and all("parse_table" not in vars(c) for c in rings)
    assert "`FusionRing.parse_table`" in text and "sets `literal_prefix` (`w:`)" in text


def test_the_label_grammar_is_the_reader_s():
    # the grammar of the Literals bullet, with `w:` where a ring has that prefix and
    # d = rank, matches exactly the strings the decimal reader reads
    from helpers import CANONICAL_EDGES, EDGE_COMPONENTS, NON_LITERALS

    from peterweyl import get_ring

    text = " ".join(README.read_text(encoding="utf-8").split())
    bullet = text.split("### Literals", 1)[1].split("- labels:", 1)[1].split(" - ", 1)[0]
    grammar = re.search(r"exactly the strings `([^`]+)`", bullet).group(1)
    assert "a finite dual's labels are its irrep names" in text
    for ring_id in ("Z", "Z^d:2", "Z^d:3", "SU2", "dualgroup:Z^d:2"):
        ring = get_ring(ring_id)
        assert ring.literal_prefix in ("", "w:") and not ring.irrep_names
        pattern = grammar if ring.literal_prefix else grammar.replace("(w:)?", "")
        pattern = pattern.replace("{d-1}", f"{{{ring.rank - 1}}}")
        literals = {prefix + sep.join(["1"] * (count - 1) + [part])
                    for part in CANONICAL_EDGES + EDGE_COMPONENTS + NON_LITERALS
                    for count in (ring.rank - 1, ring.rank, ring.rank + 1) if count
                    for sep in ",;" for prefix in ("", "w:")}
        literals |= {sep.join([part] * ring.rank) for part in EDGE_COMPONENTS + NON_LITERALS
                     for sep in ",;"}
        for literal in literals:
            read = ring._decimal_table([literal]) is not None
            assert (re.fullmatch(pattern, literal) is not None) == read, (ring_id, literal)


def test_the_options_of_each_subcommand_are_the_parser_s():
    import argparse

    from peterweyl import cli

    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ")[0]
    listed = {name: re.findall(r"`(--[\w-]+)`", options)
              for name, options in re.findall(r"^- `(\w+)`: (.*)$", section, re.M)}
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    declared = {name: [option for action in parser._actions for option in action.option_strings
                       if option.startswith("--") and option != "--help"]
                for name, parser in subparsers.choices.items()}
    assert listed == declared
