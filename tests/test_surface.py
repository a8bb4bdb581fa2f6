"""The package's public surface is what its commands run.

A public top-level function or class of `src/shallowfp` counts as used if
another top-level definition of the package refers to it (by name, by
attribute or by import), if the traced benchmark patches it (an alias in
`perfbench/spans.PATCHES` ends with its name), or if it is a console
script of `pyproject.toml`.  No public name may be unused, so a helper
that only tests call lives with the tests (`tests/helpers.py`).  Names are
matched bare, so a local variable or attribute of the same name counts as
a reference: the check can miss an unused name, but never flags a used one.

The import rule of README's Layout section is checked here too: numpy is
imported only where arrays are computed.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def _patched_names() -> set[str]:
    import spans
    return {alias.rsplit(".", 1)[-1] for _, aliases, _, _ in spans.PATCHES for alias in aliases}


def _script_names() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r':(\w+)"', scripts))


def _references(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return names


def unused_public_names() -> set[str]:
    defs = {}  # (module, name) -> names its body refers to
    for path in sorted((ROOT / "src" / "shallowfp").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = _references(node)
    used = _patched_names() | _script_names()
    return {f"{mod}.{name}" for mod, name in defs
            if not name.startswith("_") and name not in used
            and not any(name in refs for other, refs in defs.items() if other != (mod, name))}


def test_no_public_name_is_unused(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    assert unused_public_names() == set()


def _is_numpy_import(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "numpy")


def _numpy_imports(nodes, at_load: bool = True) -> list[bool]:
    """One flag per numpy import in ``nodes``: whether it runs when the
    module loads, that is, outside every function and ``if TYPE_CHECKING:``."""
    found = []
    for node in nodes:
        if _is_numpy_import(node):
            found.append(at_load)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += _numpy_imports(ast.iter_child_nodes(node), False)
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            found += _numpy_imports(node.body, False) + _numpy_imports(node.orelse, at_load)
        else:
            found += _numpy_imports(ast.iter_child_nodes(node), at_load)
    return found


def test_numpy_is_imported_only_where_arrays_are_computed():
    imports = {path.stem: _numpy_imports(ast.parse(path.read_text()).body)
               for path in sorted((ROOT / "src" / "shallowfp").glob("*.py"))}
    assert {mod for mod, flags in imports.items() if flags} == {"analysis", "optimize"}
    assert {mod for mod, flags in imports.items() if any(flags)} == {"analysis", "optimize"}
