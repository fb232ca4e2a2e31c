"""`src/` holds only code the program runs.

Every module-level function and class of `src/hodge_rsm`, and every
method of such a class, must be reached from a root: a click command of
`cli.py`, a name `hodge_rsm/__init__.py` exports (imports, or names in a
string for its module `__getattr__` to import on first use), a
module-level dunder function (Python calls it), or a name
`perfbench/*.py` mentions (the benchmark calls and rebinds program
names).  A definition reaches every name its body mentions, and a
module-level assignment reaches those of its value once its own name is
reached.  A method is reached once its class is and its name is read as
an attribute (of any object, or in a dotted-name string) by a reached
definition, or is a dunder, which Python calls itself, or overrides a
method of a base class from outside `src/` (a framework calls it); a
class reaches what its body mentions outside its methods.  Names are
matched across modules by name alone, so a definition shadowed by a
namesake elsewhere counts as reached; the check errs towards passing.  Imports reach
nothing: a name imported but never read does not keep its definition.
Code that only the tests call belongs in `tests/`.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hodge_rsm"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _mentioned(node, modules=None) -> set:
    """Names read under node, with the attributes read off one of the
    modules (all attributes, and the parts of dotted-name strings, when
    modules is None)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and (
                modules is None or isinstance(sub.value, ast.Name)
                and sub.value.id in modules):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
        elif (modules is None and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    return out


def _is_command(node) -> bool:
    """A function under @main.command() or @click.group(...)."""
    for dec in node.decorator_list:
        call = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(call, ast.Attribute) and call.attr in ("command",
                                                             "group"):
            return True
    return False


def _attributes(node) -> set:
    """Attribute names read under node, and the parts of its dotted-name
    strings (as getattr reads them)."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)} | {
        part for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        and DOTTED.fullmatch(sub.value) for part in sub.value.split(".")}


def _called_by_python(module: str, cls: str, name: str) -> bool:
    """A dunder, or a method cls inherits from a class outside src/."""
    if name.startswith("__") and name.endswith("__"):
        return True
    obj = getattr(importlib.import_module(f"hodge_rsm.{module}"), cls)
    return any(name in vars(base) for base in obj.__mro__[1:]
               if not base.__module__.startswith("hodge_rsm"))


def unreached_definitions() -> list:
    """'module.name' of each module-level function or class of src/, and
    'module.Class.method' of each method, that no root reaches."""
    defs, edges, roots = [], {}, set()
    methods = {}  # (class, method) -> (module, names, attributes)
    attrs = {}    # name -> attributes its definitions read
    modules = {path.stem for path in SRC.glob("*.py")} | {"hodge_rsm"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if path.name == "__init__.py":
                    roots.update(a.asname or a.name for a in node.names)
                continue
            if path.name == "__init__.py":
                roots.update(part for sub in ast.walk(node)
                             if isinstance(sub, ast.Constant)
                             and isinstance(sub.value, str)
                             and DOTTED.fullmatch(sub.value)
                             for part in sub.value.split("."))
            body = node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
                defs.append((path.stem, node.name))
                if path.name == "cli.py" and _is_command(node) \
                        or node.name.startswith("__") \
                        and node.name.endswith("__"):
                    roots.add(node.name)
                if isinstance(node, ast.ClassDef):
                    # the class keeps what its body mentions outside its
                    # methods; each method is a definition of its own
                    funcs = [f for f in node.body if isinstance(
                        f, (ast.FunctionDef, ast.AsyncFunctionDef))]
                    for f in funcs:
                        methods[node.name, f.name] = (
                            path.stem, _mentioned(f, modules), _attributes(f))
                    body = ast.Module(
                        body=[*node.bases, *node.keywords,
                              *node.decorator_list,
                              *(b for b in node.body if b not in funcs)],
                        type_ignores=[])
            else:
                targets = [t for sub in ast.walk(node)
                           if isinstance(sub, (ast.Assign, ast.AnnAssign,
                                               ast.AugAssign))
                           for t in (sub.targets if isinstance(sub, ast.Assign)
                                     else [sub.target])]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
                if not names:  # a bare statement, as `if __name__ ...`
                    roots.update(_mentioned(node, modules))
                    continue
            for name in names:
                edges.setdefault(name, set()).update(_mentioned(body,
                                                               modules))
                attrs.setdefault(name, set()).update(_attributes(body))
    read = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        roots.update(_mentioned(tree))
        read.update(_attributes(tree))
    reached, todo, done = set(), list(roots), set()
    while True:
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(edges.get(name, ()))
                read.update(attrs.get(name, ()))
        new = [(key, names, read_here)
               for key, (mod, names, read_here) in methods.items()
               if key not in done and key[0] in reached
               and (key[1] in read or _called_by_python(mod, *key))]
        if not new:
            break
        for key, names, read_here in new:
            done.add(key)
            todo.extend(names)
            read.update(read_here)
    return [f"{mod}.{name}" for mod, name in defs if name not in reached] \
        + [f"{mod}.{cls}.{name}" for (cls, name), (mod, *_) in methods.items()
           if (cls, name) not in done]


def test_src_defines_only_reached_code():
    assert unreached_definitions() == []
