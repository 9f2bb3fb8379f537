"""Every function, method and class in `src/tgw` is referenced somewhere in
the package outside its own body, so no code is reached from the tests
alone.  A reference is a loaded name or attribute of the same name; a
method (a def in a class body) counts as used only when an attribute of
its name is read, since a bare name never reaches it.  Dunder methods
are called by Python itself, and the names `bench/traced.py` lists in
`LAYERS` are wrapped by name in the traced benchmark run.

Every name a module imports at module level is loaded in that module, so
no import outlives the code that read it.  `from __future__` imports and
the package's `__init__` (whose imports would be re-exports) are exempt.

Every name a module assigns at module level is loaded somewhere in the
package, so no constant or cache outlives its last reader.  Dunder names
such as `__version__` are read by tools outside it and are exempt.

Every parameter with a default is passed by some call in the package, so no
default stands in for a value only tests set, and left unset by some call,
so no default stands in for a value only tests leave out.  A call reaches
the functions and methods of its name; a class call reaches the class's
`__init__`, and `super().f(...)` the `f` its class inherits.  A call through
`*args` or `**kw` may pass every parameter of that kind: that counts as
passing it for the first check and as leaving it unset for the second.
`cli.main`'s `argv` is exempt: the console entry point, `cli.entry`, calls
`main` with none.

No parameter receives the same literal from every call in the package, so
no parameter stands in for a constant; a call that leaves it unset or fills
it through `*args` or `**kw` counts as passing something else.

Every attribute a class stores, in its `__slots__` or by `self.x = ...`, is
read as `.x` somewhere in the package, so no field outlives its last reader
(`Record`'s generic `getattr` over its fields is no read).

The only module-level tables, names bound to an empty `{}`, `dict()` or
`set()`, are `_QE_CACHE` and `_DIAGRAM_CACHE`, which `bench/traced.py` reads
as dicts, and `_NODES`, the hash-consing table.  A memo of a pure function
is its `functools.cache`, not a table with lookup code of its own.

No function is a forwarding wrapper: its body, after its docstring, is not
only `return g(...)` of its own parameters in order, so no name is an alias
of another.  The `LAYERS` names are exempt, as above."""
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
    uses: dict[str, list[tuple[str, int, bool]]] = {}   # name -> (module, line, attribute?)
    methods = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append(
                    (module, node.lineno, isinstance(node, ast.Attribute)))
            elif isinstance(node, ast.ClassDef):
                methods.update(item for item in node.body if isinstance(item, ast.FunctionDef))
    exempt = traced_names()
    dead = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or (module, qualname) in exempt:
                continue
            if not any((m != module or not node.lineno <= line <= node.end_lineno)
                       and (attribute or node not in methods)
                       for m, line, attribute in uses.get(name, ())):
                dead.append(f"{module}.{qualname}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced() == []


def _forwarded(node) -> list[str] | None:
    """The names a function's only statement after its docstring passes on,
    in order, if that statement returns a call of bare names (each keyword
    naming its own parameter); None otherwise."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) \
            or not isinstance(body[0].value, ast.Call):
        return None
    call = body[0].value
    args = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    args += [k.value for k in call.keywords if k.arg in (None, getattr(k.value, "id", None))]
    if len(args) != len(call.args) + len(call.keywords) or \
            not all(isinstance(a, ast.Name) for a in args):
        return None
    return [a.id for a in args]


def forwarding_wrappers() -> list[str]:
    """module.qualified name of every function, outside `LAYERS`, that only
    returns a call on its own parameters in order."""
    exempt = traced_names()
    out = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in definitions(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef) or (path.stem, qualname) in exempt:
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args]
            params += [a.vararg.arg] if a.vararg else []
            params += [p.arg for p in a.kwonlyargs] + ([a.kwarg.arg] if a.kwarg else [])
            if _forwarded(node) == params:
                out.append(f"{path.stem}.{qualname}")
    return out


def test_no_function_only_forwards_its_parameters():
    assert forwarding_wrappers() == []


def unused_imports() -> list[str]:
    """module.name of every module-level import the module never loads."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.stem}.{name}")
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def unread_globals() -> list[str]:
    """module.name of every module-level assignment that no code in the
    package loads, by name or as an attribute."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{target.id}" for module, tree in trees.items()
            for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in ast.walk(stmt)
            if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
            and target.id not in loaded and not target.id.startswith("__")]


def test_every_module_level_name_is_read():
    assert unread_globals() == []


KEPT_TABLES = ["formula._NODES", "theories._DIAGRAM_CACHE", "theories._QE_CACHE"]


def module_tables() -> list[str]:
    """module.name of every module-level name bound to an empty `{}`,
    `dict()` or `set()`."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            else:
                continue
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "set")
                and not value.args and not value.keywords)
            if empty:
                out += [f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)]
    return sorted(out)


def test_module_level_tables_are_the_kept_three():
    assert module_tables() == KEPT_TABLES


ENTRY = ("cli", "main", "argv")   # the console script calls main()


def parameter_calls():
    """(module, qualified name, parameter names, defaulted parameter names,
    calls) for every function in the package, where the parameter names
    leave out a method's bound first one and each call is the pair (a dict
    from each parameter it names or fills by position to the expression
    passed, parameters it may fill through `*args` or `**kw`)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    functions = [(module, qualname, node) for module, tree in trees.items()
                 for qualname, node in definitions(tree)
                 if isinstance(node, ast.FunctionDef)]
    methods = {item for cls in classes.values() for item in cls.body
               if isinstance(item, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)}

    def inherited(cls_name, name):
        cls = classes.get(cls_name)
        while cls is not None:
            own = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == name]
            if own:
                return own
            cls = next((classes[b.id] for b in cls.bases
                        if isinstance(b, ast.Name) and b.id in classes), None)
        return []

    def callees(call, cls_name):
        f = call.func
        if isinstance(f, ast.Name) and f.id in classes:
            return inherited(f.id, "__init__")
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Call) \
                and getattr(f.value.func, "id", None) == "super":
            base = next(b.id for b in classes[cls_name].bases if isinstance(b, ast.Name))
            return inherited(base, f.attr)
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "__init__":
            return []
        return [node for _, _, node in functions if node.name == name]

    calls: dict[ast.FunctionDef, list[tuple[dict[str, ast.expr], set[str]]]] = {}

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                for fn in callees(child, cls_name):
                    a = fn.args
                    positional = [p.arg for p in a.posonlyargs + a.args]
                    if fn in methods:   # self is bound, not passed
                        positional = positional[1:]
                    starred = [isinstance(x, ast.Starred) for x in child.args]
                    filled = starred.index(True) if any(starred) else len(starred)
                    named = dict(zip(positional[:filled], child.args))
                    named.update((k.arg, k.value) for k in child.keywords if k.arg)
                    spread = set(positional) if any(starred) else set()
                    if any(k.arg is None for k in child.keywords):
                        spread.update(positional, (p.arg for p in a.kwonlyargs))
                    calls.setdefault(fn, []).append((named, spread))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls_name)

    for tree in trees.values():
        visit(tree, None)
    for module, qualname, fn in functions:
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] + \
            [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        params = (positional[1:] if fn in methods else positional) + a.kwonlyargs
        yield (module, qualname, [p.arg for p in params],
               [p.arg for p in defaulted if (module, qualname, p.arg) != ENTRY],
               calls.get(fn, []))


def unused_parameters() -> list[str]:
    """module.function(parameter) of every parameter with a default that no
    call in the package passes."""
    return [f"{module}.{qualname}({p})"
            for module, qualname, _, defaulted, calls in parameter_calls()
            for p in defaulted if not any(p in named or p in spread for named, spread in calls)]


def test_every_default_parameter_is_passed():
    assert unused_parameters() == []


def always_passed_parameters() -> list[str]:
    """module.function(parameter) of every parameter with a default that
    every call in the package passes by name or position; a call through
    `*args` or `**kw` counts as leaving it unset."""
    return [f"{module}.{qualname}({p})"
            for module, qualname, _, defaulted, calls in parameter_calls()
            for p in defaulted if calls and all(p in named for named, _ in calls)]


def test_no_default_parameter_is_always_passed():
    assert always_passed_parameters() == []


def _literal(node) -> str | None:
    """The dump of `node` if it is a literal, None otherwise."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def constant_parameters() -> list[str]:
    """module.function(parameter) of every parameter that every call in the
    package passes the same literal, by name or position."""
    out = []
    for module, qualname, params, _, calls in parameter_calls():
        for p in params:
            passed = {_literal(named[p]) if p in named and p not in spread else None
                      for named, spread in calls}
            if len(passed) == 1 and None not in passed:
                out.append(f"{module}.{qualname}({p})")
    return out


def test_no_parameter_is_always_passed_one_literal():
    assert constant_parameters() == []


def unread_attributes() -> list[str]:
    """module.class.attribute of every attribute a class stores, in its
    `__slots__` or by assigning `self.x`, that no code in the package
    reads as `.x`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for module, tree in trees.items():
        for qualname, cls in definitions(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            stored = set()
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign) and "__slots__" in (
                        getattr(t, "id", None) for t in node.targets):
                    stored.update(ast.literal_eval(node.value))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                        and getattr(node.value, "id", None) == "self":
                    stored.add(node.attr)
            out += [f"{module}.{qualname}.{name}" for name in sorted(stored - read)]
    return out


def test_every_stored_attribute_is_read():
    assert unread_attributes() == []
