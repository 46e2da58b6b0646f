"""Source layout rules that no linter in the test environment checks."""

import ast
from pathlib import Path

import privhist

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_COLUMNS = 100


def test_every_source_line_fits_in_100_columns():
    long = [f"{path.relative_to(SRC)}:{number}: {len(line)} columns"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == []


def _imported_names(tree: ast.Module) -> dict:
    """Each name an import statement of ``tree`` binds, with its line;
    ``from __future__`` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> list:
    """The strings of a module-level ``__all__``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_no_source_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_exported_names(tree))
        unused += [f"{path.relative_to(SRC)}:{line}: {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


def test_the_package_exports_exactly_the_names_it_binds():
    tree = ast.parse(Path(privhist.__file__).read_text())
    assert sorted(privhist.__all__) == sorted([*_imported_names(tree), "__version__"])
