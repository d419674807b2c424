"""The benchmark tracer's targets that no longer exist in the library.

`clibench/tracing.py` wraps library names by path and reports the ones it
cannot find as unmeasured.  A refactor that removes or moves one of them
must add it here (and name it in CHANGES.md), so a lost layer of the
benchmark is never silent.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "clibench" / "tracing.py"

UNMEASURED = [
    "fusion.LatticeRing.parse_label",
    "fusion.SU2Ring.parse_label",
    "fusion.FiniteDualRing.parse_label",
    "fusion.verify_folner",
    "groups.SU2Model.character_value",
]


def _targets():
    spec = importlib.util.spec_from_file_location("clibench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def _resolves(module_name: str, path: str) -> bool:
    """Whether `Tracer.install` finds the target: a class attribute is
    looked up in the class's own namespace, so an inherited method does not
    count; anything else by getattr."""
    module = importlib.import_module(f"peterweyl.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if isinstance(owner, type):
        return owner.__dict__.get(attr) is not None
    return owner is not None and getattr(owner, attr, None) is not None


def test_unmeasured_targets_are_exactly_the_listed_ones():
    missing = [f"{module}.{path}" for module, path, _, _ in _targets()
               if not _resolves(module, path)]
    assert missing == UNMEASURED
