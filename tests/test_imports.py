"""No library module imports a name it never reads."""

import ast
from pathlib import Path

import spectral_deform as sd

SRC = Path(sd.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        # the package re-exports what it imports
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text(), str(path)))
            if names:
                unused[path.name] = names
    assert unused == {}
