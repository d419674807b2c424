"""Import footprint and process entry: each CLI process loads only the
package modules its subcommand runs, `import peterweyl` loads none, and the
process entry `run` freezes what it loaded before the call runs."""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peterweyl
from peterweyl import cli, fusion, groups, wiener

SRC = Path(peterweyl.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# runs the CLI through runpy, as `python -m peterweyl` does, then prints the
# exit code, the package's submodules that were loaded and a record of the
# collector: when `gc.disable` and `gc.freeze` were called, how many
# collections had run by then, and whether the collector was on and how many
# objects were frozen when `cli.main` ran
PROBE = """
import gc
collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(1))
import json, runpy, sys
events, disable, freeze = [], gc.disable, gc.freeze
def recording_disable():
    disable()
    events.append(["disable", len(collections)])
def recording_freeze():
    events.append(["freeze", len(collections), gc.isenabled()])
    freeze()
    cli = sys.modules["peterweyl.cli"]
    main = cli.main
    def recording_main(argv=None):
        events.append(["main", gc.isenabled(), gc.get_freeze_count()])
        return main(argv)
    cli.main = recording_main
gc.disable, gc.freeze = recording_disable, recording_freeze
sys.argv = ["peterweyl", *json.loads(sys.argv[1])]
code = 0
try:
    runpy.run_module("peterweyl", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("peterweyl.")), events]))
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _loaded_by(argv: list[str]) -> set[str]:
    code, modules, _ = json.loads(_python(PROBE, json.dumps(argv)))
    assert code == 0
    return {m.removeprefix("peterweyl.") for m in modules}


@pytest.mark.parametrize("argv", [
    ["fusion", "--ring", "Z^d:2", "--a", "1,0", "--b", "0,-1"],
    ["fusion", "--ring", "SU2", "--a", "3", "--b", "2"],
    ["fusion", "--ring", "Z", "--a", "3", "--b", "2"],
    ["fusion", "--ring", "dualgroup:Z^d:2", "--a", "1,0", "--b", "0,-1"],
    ["folner", "--ring", "Z^d:2", "--S", "1,0;0,1", "--steps", "3"],
    ["folner", "--ring", "SU2", "--S", "1", "--steps", "5"],
])
def test_fusion_and_folner_load_only_cli_errors_and_fusion(tmp_path, argv):
    assert _loaded_by(argv + ["--out", str(tmp_path / "out.csv")]) == {"cli", "errors", "fusion"}


def test_wiener_and_ergodic_skip_each_other(tmp_path):
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps({"group": "Z", "density": [{"irrep": "0", "matrix": [[1]]}]}))
    spec = tmp_path / "rep.json"
    spec.write_text(json.dumps({"ring": "Z", "points": ["z:1,0", "z:-1,0"]}))
    out = str(tmp_path / "out.csv")
    loaded = _loaded_by(["wiener", "--kind", "energy", "--measure", str(measure), "--out", out])
    assert "wiener" in loaded and "ergodic" not in loaded
    loaded = _loaded_by(["ergodic", "--rep", "point", "--spec", str(spec), "--steps", "3",
                         "--tol", "1", "--out", out])
    assert "ergodic" in loaded and "wiener" not in loaded


def test_import_loads_no_submodule():
    code = "import json, sys, peterweyl\n" \
           "print(json.dumps(sorted(m for m in sys.modules if m.startswith('peterweyl.'))))"
    assert json.loads(_python(code)) == []


def test_every_public_name_resolves():
    for name in peterweyl.__all__:
        assert getattr(peterweyl, name) is not None
    namespace = {}
    exec("from peterweyl import *", namespace)
    assert set(peterweyl.__all__) <= set(namespace)
    assert set(peterweyl.__all__) <= set(dir(peterweyl))
    assert peterweyl.get_ring is fusion.get_ring and peterweyl.resolve is groups.resolve
    with pytest.raises(AttributeError):
        peterweyl.no_such_name


@pytest.mark.parametrize("ring_id", ["Z", "Z^d:1", "Z^d:3", "SU2", "finite:S3", "finite:C5",
                                     "dualgroup:Z^d:1", "dualgroup:Z^d:2"])
def test_resolve_attaches_its_model_to_the_ring_of_get_ring(ring_id):
    ring, model = groups.resolve(ring_id)
    assert ring is fusion.get_ring(ring_id) is cli.resolve(ring_id)[0]
    assert fusion.get_ring(ring.name) is ring
    if ring_id.startswith("dualgroup:"):
        assert model is None
    else:
        assert model.ring is ring and groups.resolve(ring_id)[1] is model
    assert fusion.get_ring("Z^d:1") is fusion.get_ring("Z")


def test_the_parser_offers_the_wiener_kinds():
    assert cli.KINDS == wiener.KINDS


@pytest.mark.parametrize("argv", [
    ["folner", "--ring", "SU2", "--S", "1", "--steps", "5"],
    ["folner", "--ring", "SU2", "--S", "1", "--steps", "0"],
])
def test_the_process_entry_loads_without_collecting_then_freezes(tmp_path, argv):
    argv = argv + ["--out", str(tmp_path / "out.csv")]
    code, _, events = json.loads(_python(PROBE, json.dumps(argv)))
    (disabled, ran), (frozen, ran_by_freeze, on_at_freeze), (called, on, count) = events
    assert (disabled, frozen, called) == ("disable", "freeze", "main")
    # no collection runs while the modules load, and the call runs collected
    assert ran_by_freeze == ran and not on_at_freeze
    assert on and count > 0
    # in-process calls leave the caller's collector as they find it
    state = (gc.isenabled(), gc.get_freeze_count())
    assert code == cli.main(argv)
    assert (gc.isenabled(), gc.get_freeze_count()) == state


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_installed_command_is_the_process_entry():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["peterweyl"]
    module, _, name = target.partition(":")
    entry = importlib.import_module("peterweyl.__main__")
    assert getattr(importlib.import_module(module), name) is entry.run
