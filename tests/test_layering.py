"""Layering guard: the physics modules neither touch the disk nor reach the
run boundary, runner's atomic_write and write_artifacts are the only calls
that write to the disk, and numpy loads only where the rig draws or renders:
simulate draws its learning rates from a pure-Python stream. jsontext loads
only in the runs that render its row-heavy files, and no run loads
dataclasses, statistics or decimal."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optoperceptron
from optoperceptron import errors

PACKAGE = Path(optoperceptron.__file__).parent
PHYSICS = ("optics", "synapse", "weights", "trainer", "patterns", "rig")
BOUNDARY_OR_IO = {"runner", "config", "cli", "json", "os", "pathlib", "io", "shutil", "tempfile"}


def imported_modules(module: str) -> set[str]:
    """Top-level names of the modules a package module imports, package-relative
    ones without their package (``from .rig import x`` gives ``rig``)."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


# The names of the calls that open, create, move or delete a file: the builtin
# open, the Path methods and numpy calls that reach the disk, and any os function.
DISK_CALLS = {
    "open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir", "touch",
    "unlink", "rename", "rmdir", "tofile", "save", "savez", "savetxt",
}
DISK_CALLERS = {
    ("config", "_read_text", "read_bytes"),  # the config and bitmap files, read
    ("runner", "atomic_write", "open"),
    ("runner", "atomic_write", "os.replace"),
    ("runner", "atomic_write", "unlink"),
    ("runner", "write_artifacts", "mkdir"),
}


def disk_calls(module: str):
    """(enclosing top-level name, call name) of each disk call in a module:
    ``open``, ``os.<name>`` for any os function, else the method's name."""
    for top in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in DISK_CALLS:
                yield getattr(top, "name", None), func.id
            elif isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) and func.value.id == "os":
                    yield getattr(top, "name", None), f"os.{func.attr}"
                elif func.attr in DISK_CALLS:
                    yield getattr(top, "name", None), func.attr


def test_physics_modules_stay_off_the_disk_and_runner_alone_writes():
    offending = {m: sorted(imported_modules(m) & BOUNDARY_OR_IO) for m in PHYSICS}
    assert {m: names for m, names in offending.items() if names} == {}
    calls = {(path.stem, *call) for path in PACKAGE.glob("*.py") for call in disk_calls(path.stem)}
    assert calls == DISK_CALLERS


# A fresh interpreter imports the CLI, then either resolves the default
# config (no arguments) or runs the CLI, and prints its exit code, whether
# numpy and jsontext got loaded and which of four probed stdlib modules got loaded.
NUMPY_PROBE = """
import sys
from optoperceptron.cli import main
from optoperceptron.config import load_config

try:
    if sys.argv[1:]:
        code = main(sys.argv[1:])
    else:
        load_config()
        code = 0
except SystemExit as exc:
    code = exc.code
probed = ("dataclasses", "inspect", "statistics", "decimal")
print(code, "numpy" in sys.modules, "optoperceptron.jsontext" in sys.modules,
      *(name for name in probed if name in sys.modules))
"""
# dataclasses pulls in inspect, ast, dis and tokenize; no run loads statistics
# (run_sweep takes its median itself) or decimal (config.nanojoules shifts the
# exponent of the literal). numpy itself loads inspect.
NUMPY_FREE = {"load_config", "dataset", "help", "refused-config", "simulate"}
# jsontext (and the weights it imports) costs 2-5 ms to load, so only the
# runs that render trace.json or the rig's row-heavy files load it.
RENDERS_ROWS = {"simulate", "emulate", "energy"}


@pytest.mark.parametrize(
    "args, code, loads_numpy",
    [
        ([], 0, False),
        (["dataset", "--out", "{dir}/out"], 0, False),
        (["--help"], 0, False),
        (["simulate", "--config", "{dir}/refused.cfg", "--out", "{dir}/out"], 2, False),
        (["simulate", "--out", "{dir}/out"], 0, False),
        (["sweep", "--config", "{dir}/simulate-sweep.cfg", "--out", "{dir}/out"], 0, False),
        (["emulate", "--config", "{dir}/quick.cfg", "--out", "{dir}/out"], 0, True),
        (["energy", "--config", "{dir}/quick.cfg", "--out", "{dir}/out"], 0, True),
        (["sweep", "--config", "{dir}/emulate-sweep.cfg", "--out", "{dir}/out"], 0, True),
    ],
    ids=[
        "load_config", "dataset", "help", "refused-config", "simulate", "simulate-sweep",
        "emulate", "energy", "emulate-sweep",
    ],
)
def test_numpy_loads_only_where_a_run_draws_or_renders(request, tmp_path, args, code, loads_numpy):
    (tmp_path / "refused.cfg").write_text("trainer.no_such_key = 1\n")
    (tmp_path / "quick.cfg").write_text("trainer.max_epochs = 1\n")
    sweep = "sweep.seeds = 3\ntrainer.max_epochs = 1\nsweep.mode = "
    (tmp_path / "simulate-sweep.cfg").write_text(sweep + "simulate\n")
    (tmp_path / "emulate-sweep.cfg").write_text(sweep + "emulate\n")
    argv = [arg.format(dir=tmp_path) for arg in args]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    exit_code, numpy_loaded, jsontext_loaded, *stdlib = done.stdout.splitlines()[-1].split()
    assert (exit_code, numpy_loaded) == (str(code), str(loads_numpy))
    case = request.node.callspec.id
    assert jsontext_loaded == str(case in RENDERS_ROWS)
    assert not {"dataclasses", "statistics", "decimal"} & set(stdlib)
    if case in NUMPY_FREE:
        assert stdlib == []


# Where a ValueError other than a ConfigurationError may be raised: config's
# value parsers (load_config names the line and key of what they refuse) and
# expose_frames' noise-shape check, which ties the noise block to n_frames.
PLAIN_VALUE_ERRORS = {
    ("config", "_bool"), ("config", "_number"), ("config", "_choice"),
    ("optics", "expose_frames"),
}


def raises(module: str):
    """(enclosing top-level name, raised name, line) of each raise in a module."""
    for top in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield getattr(top, "name", None), getattr(exc, "id", None), node.lineno


def test_only_configuration_errors_are_raised_past_the_parsers():
    # the config and the runs' own refusals are checked once, where they
    # enter; everything below relies on what they guarantee
    offending, allowed_seen = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, name, line in raises(path.stem):
            if (path.stem, scope) in PLAIN_VALUE_ERRORS:
                allowed_seen.add((path.stem, scope))
                continue
            raised = getattr(errors, str(name), None)
            if not (isinstance(raised, type) and issubclass(raised, errors.ConfigurationError)):
                offending.append(f"{path.name}:{line} in {scope} raises {name}")
    assert offending == []
    assert allowed_seen == PLAIN_VALUE_ERRORS


def test_backgrounds_are_judged_only_where_they_are_captured():
    # weights is arithmetic on the backgrounds Rig.capture_backgrounds admitted
    assert "errors" not in imported_modules("weights")
    assert list(raises("weights")) == []
    raisers = {
        path.stem for path in PACKAGE.glob("*.py")
        for _, name, _ in raises(path.stem) if name == "DegenerateBackgroundError"
    }
    assert raisers == {"rig"}


def test_weights_builds_its_records_whole():
    # from_sums counts the clamps as it builds the state, so weights sets no
    # attribute of a record after building it and tallies nothing
    tree = ast.parse((PACKAGE / "weights.py").read_text(encoding="utf-8"))
    changes = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    ]
    assert changes == []
