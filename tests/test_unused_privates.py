"""Every private module-level function, class and constant of coordline is referenced
somewhere in the package beyond its own definition: code a change leaves dead goes
with it."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coordline"


def _defined(node) -> list[str]:
    """The module-level names a statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references(node) -> list[str]:
    """The names a statement reads: loaded names, attributes and imported names."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.append(n.id)
        elif isinstance(n, ast.Attribute):
            names.append(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.extend(alias.name for alias in n.names)
    return names


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The "module.name" of each private (one leading underscore) module-level definition
    that no statement of any module references, other than its own definition."""
    statements = [(module, node, set(_references(node)))
                  for module, source in sources.items() for node in ast.parse(source).body]
    found = []
    for module, node, _ in statements:
        for name in _defined(node):
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in refs for _, other, refs in statements if other is not node):
                found.append(f"{module}.{name}")
    return found


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_an_unreferenced_private_name_is_found():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\n"
             "class _Helper:\n    pass\n\n\ndef public():\n    return _USED\n",
        "b": "from .a import _Helper\n\nx: int = 0\n_annotated: int = 1\n\n\ndef f():\n    return _Helper()\n",
    }
    assert unreferenced_privates(sources) == ["a._DEAD", "a._recursive", "b._annotated"]
