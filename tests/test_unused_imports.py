"""Every name that a module of src/cyclofourier, tests or tools imports is read in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    """(line, name) for each name the module at path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain a.b.c starts with the Name a
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    # __init__.py is skipped: its imports are the package's exports
    paths = [path for pattern in ("src/cyclofourier/*.py", "tests/*.py", "tools/*.py")
             for path in sorted(ROOT.glob(pattern)) if path.name != "__init__.py"]
    assert len(paths) > 20
    unused = [f"{path.relative_to(ROOT)}:{line} {name}" for path in paths
              for line, name in _unused_imports(path)]
    assert not unused, "imported and never read: " + ", ".join(unused)
