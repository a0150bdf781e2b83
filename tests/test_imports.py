"""Every name the package imports is read, listed in `__all__`, or
imported from it by another module of the package; every name in
`__all__` resolves."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tautpath"


def _all_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def test_no_unused_imports():
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    imports = {
        mod: [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        for mod, tree in trees.items()
    }
    reexported = {
        (n.module, a.name)
        for nodes in imports.values()
        for n in nodes
        if isinstance(n, ast.ImportFrom) and n.level == 1
        for a in n.names
    }
    unused = []
    for mod, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _all_names(tree)
        for n in imports[mod]:
            if getattr(n, "module", None) == "__future__":
                continue
            for a in n.names:
                name = (a.asname or a.name).split(".")[0]
                if name not in read and (mod, name) not in reexported:
                    unused.append(f"{mod}: {name}")
    assert unused == []


def test_all_names_resolve():
    import tautpath

    assert [n for n in tautpath.__all__ if not hasattr(tautpath, n)] == []
