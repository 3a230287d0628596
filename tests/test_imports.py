import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "orbitrr"


def _private_imports(path):
    """(module, name) per underscore name that the file imports from an
    orbitrr module, by relative or absolute import."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "orbitrr":
            yield from ((node.module, alias.name) for alias in node.names
                        if alias.name.startswith("_"))


def test_no_module_imports_a_private_name_of_another():
    # a module's underscore names, such as the assembly's fold keys, stay
    # free to change without touching their callers
    found = [(path.name, module, name) for path in sorted(SRC.glob("*.py"))
             for module, name in _private_imports(path)]
    assert found == []
