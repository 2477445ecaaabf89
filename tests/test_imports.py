"""Import hygiene: each entry point loads only the sascone modules it uses.

Every check runs in a fresh interpreter, so modules loaded by other tests
cannot hide an eager import.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import child_env

JOIN = ["--l1", "4", "--l2", "1", "--w1", "1", "--w2", "1"]
RAY = ["--v1", "3", "--v2", "2"]

# runs main(argv) with its output discarded, counting every ArgumentParser it constructs, then
# prints the exit code, the sascone modules loaded, which of `dataclasses` and `inspect` (about
# 12 ms of import, of which no exact computation has a use) it loaded, and the parser count
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import argparse
parsers = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global parsers
    parsers += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from sascone.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
loaded = set(sys.modules) - before
print(json.dumps({"code": code, "modules": sorted(m for m in loaded if m.startswith("sascone.")),
                  "stdlib": sorted({"dataclasses", "inspect"} & loaded), "parsers": parsers}))
"""


def _run(*args: str) -> list | dict:
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                         env=child_env())
    return json.loads(out.stdout)


def _probe(argv: list[str]) -> dict:
    return _run("-c", PROBE, json.dumps(argv))


def _cli_modules(argv: list[str]) -> set[str]:
    probe = _probe(argv)
    assert probe["code"] == 0
    return set(probe["modules"])


def test_import_sascone_loads_no_submodule():
    probe = "import json, sys, sascone; print(json.dumps([m for m in sys.modules if m.startswith('sascone.')]))"
    assert _run("-c", probe) == []


def test_star_import_binds_exactly_all():
    probe = ("import json, sascone; ns = {}; exec('from sascone import *', ns); "
             "print(json.dumps([sorted(set(ns) - {'__builtins__'}), sascone.__all__]))")
    bound, names = _run("-c", probe)
    assert bound == sorted(names) == names


EXACT_COMMANDS = {
    "range": ["range", *JOIN, "--format", "text"],
    "classify": ["classify", *JOIN, *RAY],
    "quotient": ["quotient", *JOIN, *RAY],
    "invariants": ["invariants", *JOIN],
    "bouquet": ["bouquet", "--l1", "1", "--l2", "3", "--w1", "7", "--w2", "1"],
    "h1": ["h1", "--s", "3.7", "--volume", "2.9", "--n-half", "2"],
}


@pytest.mark.parametrize("argv", EXACT_COMMANDS.values(), ids=EXACT_COMMANDS.keys())
def test_exact_commands_load_neither_profile_nor_goldens(argv):
    assert not _cli_modules(argv) & {"sascone.profile", "sascone.goldens"}


TEXT_COMMANDS = {"range": EXACT_COMMANDS["range"],
                 "classify": [*EXACT_COMMANDS["classify"], "--format", "text"]}


@pytest.mark.parametrize("argv", TEXT_COMMANDS.values(), ids=TEXT_COMMANDS.keys())
def test_text_output_loads_no_emit(argv):
    assert "sascone.emit" not in _cli_modules(argv)


def test_classify_loads_no_topology():
    assert "sascone.topology" not in _cli_modules(EXACT_COMMANDS["classify"])


def test_range_json_loads_topology_for_the_whole_cone_rules():
    assert "sascone.topology" in _cli_modules([*EXACT_COMMANDS["range"][:-1], "json"])


def _batch_argv(tmp_path) -> list[str]:
    """--config with a batch of the six EXACT_COMMANDS, each flag as its key."""
    entries = []
    for argv in EXACT_COMMANDS.values():
        flags = iter(argv[1:])
        entries.append({"command": argv[0], **{flag[2:]: value for flag, value in zip(flags, flags)}})
    config = tmp_path / "batch.json"
    config.write_text(json.dumps({"commands": entries}))
    return ["--config", str(config)]


def test_config_batch_of_exact_commands_loads_neither_profile_nor_goldens(tmp_path):
    assert not _cli_modules(_batch_argv(tmp_path)) & {"sascone.profile", "sascone.goldens"}


def test_replay_tables_does_not_load_profile():
    assert "sascone.profile" not in _cli_modules(["replay-tables"])


@pytest.mark.parametrize("command", [*EXACT_COMMANDS, "--config", "replay-tables"])
def test_exact_commands_load_neither_dataclasses_nor_inspect(command, tmp_path):
    if command == "--config":  # a batch of all six
        argv = _batch_argv(tmp_path)
    else:
        argv = EXACT_COMMANDS.get(command, [command])
    probe = _probe(argv)
    assert (probe["code"], probe["stdlib"]) == (0, [])


ONE_COMMAND = {**EXACT_COMMANDS, "metric-from-ray": ["metric-from-ray", *JOIN, *RAY, "--grid", "5"]}


@pytest.mark.parametrize("argv", ONE_COMMAND.values(), ids=ONE_COMMAND.keys())
def test_a_call_builds_the_top_parser_and_its_command_only(argv):
    probe = _probe(argv)
    assert (probe["code"], probe["parsers"]) == (0, 2)


def test_a_batch_builds_one_parser_per_command_it_runs(tmp_path):
    probe = _probe(_batch_argv(tmp_path))
    assert (probe["code"], probe["parsers"]) == (0, 1 + len(EXACT_COMMANDS))


# every module main(argv) loads, stdlib included; `before` is taken first, so json counts too
ALL_MODULES_PROBE = """
import sys
before = set(sys.modules)
from sascone.cli import main
import io
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
code = main(sys.argv[1:])
sys.__stdout__.write(" ".join([str(code), *sorted(set(sys.modules) - before)]))
"""

_EXACT_JSON_MODULES = ("__future__ _decimal _json _locale argparse array decimal fractions gettext json json.decoder "
                       "json.encoder json.scanner locale numbers sascone sascone.cli sascone.core sascone.emit "
                       "sascone.errors")
_METRIC_MODULES = ("__future__ _ast _decimal _json _locale _opcode argparse array ast copy dataclasses decimal dis "
                   "fractions gettext importlib.machinery inspect json json.decoder json.encoder json.scanner "
                   "linecache locale numbers opcode sascone sascone.cli sascone.core sascone.emit sascone.errors "
                   "sascone.profile sascone.quotient token tokenize")
# what each command loaded before the metric path's emitters and root function were rewritten
LOADED_MODULES = {
    "classify": (EXACT_COMMANDS["classify"], _EXACT_JSON_MODULES + " sascone.classifier"),
    "metric": (["metric", "--m1", "3", "--m2", "2", "--r", "-0.5", "--dN", "1", "--fano-index", "2", "--n", "-4",
                "--grid", "5"], _METRIC_MODULES),
    "metric-from-ray": (ONE_COMMAND["metric-from-ray"], _METRIC_MODULES),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the stdlib modules are those of CPython 3.11")
@pytest.mark.parametrize("argv, modules", LOADED_MODULES.values(), ids=LOADED_MODULES.keys())
def test_metric_and_json_commands_load_the_same_modules(argv, modules):
    out = subprocess.run([sys.executable, "-c", ALL_MODULES_PROBE, *argv], capture_output=True, text=True,
                         check=True, env=child_env()).stdout
    assert out.split() == ["0", *sorted(modules.split())]
