"""Every defaulted parameter of an ``itolab`` function is set by some call.

A default that no call overrides is a configuration nothing selects; it
belongs in the function body as a constant.  The scan walks the definitions
in ``src/itolab`` and every call in ``src``, ``tests``, ``scripts`` and
``perfbench``, matching calls to definitions by name and counting positional
and keyword arguments; a starred argument or ``**kwargs`` counts as setting
every parameter, and ``functools.partial(f, ...)`` as a call of ``f``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "scripts", "perfbench")


def _definitions():
    """(qualified name, names its calls go by, positional params, defaulted
    params); a constructor goes by its class name too."""
    for path in sorted((ROOT / "src" / "itolab").glob("*.py")):
        tree = ast.parse(path.read_text())
        stack = [(tree, path.stem, False)]
        while stack:
            node, prefix, in_class = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}.{child.name}", True))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = child.args
                    positional = [x.arg for x in a.posonlyargs + a.args]
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    if in_class and not static and positional:
                        positional = positional[1:]
                    defaulted = positional[len(positional) - len(a.defaults):]
                    defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                                  if d is not None]
                    qual = f"{prefix}.{child.name}"
                    names = {child.name}
                    if in_class and child.name == "__init__":
                        names.add(prefix.rsplit(".", 1)[-1])
                    yield qual, names, positional, defaulted
                    stack.append((child, qual, False))


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls():
    """(function name, positional count, keyword names, starred) per call;
    ``functools.partial(f, ...)`` counts as a call of ``f``."""
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                starred = (any(isinstance(x, ast.Starred) for x in args)
                           or any(k.arg is None for k in node.keywords))
                yield name, len(args), {k.arg for k in node.keywords}, starred


def unset_defaults() -> list[str]:
    calls: dict = {}
    for name, n_pos, keywords, starred in _calls():
        calls.setdefault(name, []).append((n_pos, keywords, starred))
    unset = []
    for qual, names, positional, defaulted in _definitions():
        for param in defaulted:
            if not any(starred or param in keywords
                       or (param in positional and positional.index(param) < n_pos)
                       for name in names for n_pos, keywords, starred in calls.get(name, [])):
                unset.append(f"{qual}.{param}")
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_some_call():
    assert unset_defaults() == []
