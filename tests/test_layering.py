"""Layering guard: the physics modules neither touch the disk nor reach the
run boundary, and runner is the one module that writes artifacts."""

import ast
from pathlib import Path

import optoperceptron

PACKAGE = Path(optoperceptron.__file__).parent
PHYSICS = ("optics", "synapse", "weights", "trainer", "patterns", "rig")
BOUNDARY_OR_IO = {"atomic", "runner", "config", "cli", "json", "os", "pathlib"}


def imported_modules(module: str) -> set[str]:
    """Top-level names of the modules a package module imports, package-relative
    ones without their package (``from .atomic import x`` gives ``atomic``)."""
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


def test_physics_modules_stay_off_the_disk_and_runner_alone_writes():
    offending = {m: sorted(imported_modules(m) & BOUNDARY_OR_IO) for m in PHYSICS}
    assert {m: names for m, names in offending.items() if names} == {}
    writers = sorted(
        path.stem for path in PACKAGE.glob("*.py")
        if path.stem != "atomic" and "atomic" in imported_modules(path.stem)
    )
    assert writers == ["runner"]
