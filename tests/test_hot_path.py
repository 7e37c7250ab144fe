"""Hot-path guard: the functions run once per trainer step or per packet read
no enum member through its class (``Action.ACCEPT``) and no ``.value``. On
Python 3.11 either read costs over ten times a module-level name, so one
such read put back on the step path silently undoes the saving."""

import ast
from pathlib import Path

import optoperceptron

PACKAGE = Path(optoperceptron.__file__).parent
HOT_PATH = {
    "trainer": ("train", "classify", "update_weights", "pattern_output"),
    "synapse": ("apply_packet",),
}


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def enum_classes() -> set[str]:
    """Names of the package's classes derived from enum.Enum."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(parse(path.stem)):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base) in ("enum.Enum", "Enum") for base in node.bases
            ):
                names.add(node.name)
    return names


def test_hot_path_reads_no_enum_member_through_its_class_and_no_value():
    enums = enum_classes()
    assert {"Action", "Helicity"} <= enums
    offending = []
    for module, names in HOT_PATH.items():
        functions = {
            node.name: node for node in parse(module).body if isinstance(node, ast.FunctionDef)
        }
        for name in names:
            for node in ast.walk(functions[name]):
                if not isinstance(node, ast.Attribute):
                    continue
                through_class = isinstance(node.value, ast.Name) and node.value.id in enums
                if through_class or node.attr == "value":
                    offending.append(f"{module}.{name}: {ast.unparse(node)}")
    assert offending == []
