"""Every function, method and class in `src/tgw` is referenced somewhere in
the package outside its own body, so no code is reached from the tests
alone.  A reference is a loaded name or attribute of the same name, so a
method counts as used when any attribute of its name is read.  Dunder
methods are called by Python itself, and the names `bench/traced.py`
lists in `LAYERS` are wrapped by name in the traced benchmark run."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tgw"


def traced_names() -> set[tuple[str, str]]:
    """(module, qualified name) of every function `LAYERS` names."""
    tree = ast.parse((ROOT / "bench" / "traced.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    return {(module, name) for module, names in layers.values() for name in names or ()}


def definitions(node, outer=()):
    """(qualified name, node) of every def and class, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = (*outer, child.name)
            yield ".".join(name), child
            yield from definitions(child, name)
        else:
            yield from definitions(child, outer)


def unreferenced() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((module, node.lineno))
    exempt = traced_names()
    dead = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or (module, qualname) in exempt:
                continue
            if not any(m != module or not node.lineno <= line <= node.end_lineno
                       for m, line in uses.get(name, ())):
                dead.append(f"{module}.{qualname}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced() == []
