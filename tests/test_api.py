"""Scans of ``src/itolab``: every defaulted parameter of a function is set by
some call, no function takes a stopping tolerance, every definition is reached
from what a verdict runs, every moment goes through one power mean, every field
is read, no report is built with a seed, and the package root re-exports
nothing.

A default that no call overrides is a configuration nothing selects; it
belongs in the function body as a constant.  The scan walks the definitions
in ``src/itolab`` and every call in ``src``, ``tests``, ``scripts`` and
``perfbench``, matching calls to definitions by name and counting positional
and keyword arguments; a starred argument or ``**kwargs`` counts as setting
every parameter, and ``functools.partial(f, ...)`` as a call of ``f``.
"""

import ast
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_stopping_tolerance_is_a_parameter():
    # the sum-norm optimizer stops at the one constant ``sumopt.REL_TOL``; a
    # ``tol`` parameter once reached it as ``min(1e-7, tol / 10)``, which is
    # 1e-7 for every value a caller passed, so it set nothing
    named = [f"{path.stem}.{getattr(node, 'name', 'lambda')}.{a.arg}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for a in ast.walk(node.args)
             if isinstance(a, ast.arg) and a.arg in ("tol", "rel_tol")]
    assert named == []


# -- reachability ------------------------------------------------------------------
#
# A definition of ``src/itolab`` that no verdict can reach is code that only its
# own unit tests run.  The roots are everything ``cli`` and ``config`` define,
# every itolab name the scripts import or use, and every function the benchmark
# traces.  No test is a root: a test instrument such as an oracle lives in
# ``tests/oracles.py``, not in the product.  Names resolve through each module's
# imports and ``module.attr`` only, never by a bare name, so a local variable
# cannot stand in for a definition of the same name elsewhere.

SRC = ROOT / "src" / "itolab"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
ROOT_MODULES = ("cli", "config")
ROOT_FILES = tuple(sorted((ROOT / "scripts").glob("*.py")))


def _imported(tree) -> dict:
    """local name -> (module, name) of each itolab name a file imports, and
    -> (module, None) of each itolab module."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif node.module == "itolab" or (node.module or "").startswith("itolab."):
            module = node.module.removeprefix("itolab").lstrip(".")
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            out[local] = (module, alias.name) if module else (alias.name, None)
    return out


def _definitions_of(tree) -> dict:
    """module-level name -> the statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return out


def _references(node, namespace: dict):
    """(module, name) of each itolab definition ``node`` names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            module, name = namespace.get(n.value.id, (None, ""))
            if module is not None and name is None:
                yield module, n.attr
        elif isinstance(n, ast.Name) and n.id in namespace:
            module, name = namespace[n.id]
            if name is not None:
                yield module, name


def benchmark_layers() -> dict:
    """The namespace of ``perfbench/layers.py``: its ``TARGETS`` and ``Tracer``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return runpy.run_path(str(ROOT / "perfbench" / "layers.py"))
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def unreached_definitions() -> list[str]:
    defs, namespaces, pending = {}, {}, []
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        own = _definitions_of(tree)
        namespaces[module] = {**_imported(tree), **{n: (module, n) for n in own}}
        defs.update({(module, n): node for n, node in own.items()})
        # statements other than definitions run on import
        pending += [(module, node) for node in tree.body if node not in own.values()
                    and not isinstance(node, (ast.Import, ast.ImportFrom))]
        if module in ROOT_MODULES:
            pending += [(module, node) for node in own.values()]
    reached = set()
    for path in ROOT_FILES:
        tree = ast.parse(path.read_text())
        imported = _imported(tree)
        reached |= {v for v in imported.values() if v[1] is not None}
        reached |= set(_references(tree, imported))
    reached |= {(t.module.removeprefix("itolab."), t.qualname.split(".")[0])
                for t in benchmark_layers()["TARGETS"]}
    pending += [(m, defs[m, n]) for m, n in reached if (m, n) in defs]
    while pending:
        module, node = pending.pop()
        for ref in _references(node, namespaces[module]):
            if ref in defs and ref not in reached:
                reached.add(ref)
                pending.append((ref[0], defs[ref]))
    return sorted(f"{m}.{n}" for m, n in set(defs) - reached)


def test_every_definition_is_reached():
    assert unreached_definitions() == []


def test_every_traced_target_exists():
    # installing the benchmark's tracer raises MissingTarget for a traced
    # name that is gone, and uninstalling restores every wrapped function
    layers = benchmark_layers()
    with layers["Tracer"](layers["TARGETS"]):
        pass


# -- one power mean ----------------------------------------------------------------
#
# A finite law's p-th moment and an element's L^q norm go through
# ``lq.power_mean``, and a moment from draws through ``prob.law_moment``,
# which alone calls ``prob.moment_ci`` and widens its half-width to 3 sigma;
# both divide by the largest value where the powers overflow.  In ``lq``,
# nothing else raises to an exponent it is given.  Two functions of ``checks``
# still raise to the moment exponent themselves: routed through the helper,
# their nested means move the last bits of a suite row.

KEEP_OWN_POWERS = {"randomized_sum_moment", "little_rosenthal_term"}


def _is_moment_exponent(e, node) -> bool:
    """``p`` or ``p / x``."""
    if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Div):
        e = e.left
    return isinstance(e, ast.Name) and e.id == "p"


def _reads_an_argument(e, node) -> bool:
    """``e`` reads a parameter of a function defined in ``node``."""
    params = {a.arg for f in ast.walk(node) if isinstance(f, ast.FunctionDef)
              for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs}
    return any(isinstance(n, ast.Name) and n.id in params for n in ast.walk(e))


def powers(module: str, exponent_test) -> set[str]:
    """Top-level definitions of ``module`` that raise something, by ``**``,
    ``pow`` or ``power``, to an exponent that passes ``exponent_test``."""
    found = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        for n in ast.walk(node):
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow):
                exponent = n.right
            elif isinstance(n, ast.Call) and _callee(n.func) in ("pow", "power"):
                exponent = n.args[1] if len(n.args) > 1 else None
            else:
                continue
            if exponent is not None and exponent_test(exponent, node):
                found.add(getattr(node, "name", "<module>"))
    return found


def test_moments_go_through_power_mean():
    moments = powers("checks", _is_moment_exponent) | powers("randmat", _is_moment_exponent)
    assert moments == KEEP_OWN_POWERS
    assert powers("lq", _reads_an_argument) == {"power_mean"}


def test_only_law_moment_samples_a_moment():
    callers = {f"{path.stem}.{getattr(node, 'name', '<module>')}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               for n in ast.walk(node)
               if isinstance(n, ast.Call) and _callee(n.func) == "moment_ci"}
    assert callers == {"prob.law_moment"}


# -- every field is read -------------------------------------------------------------
#
# A dataclass field or a ``self.`` attribute of ``src/itolab`` that nothing reads
# holds a value for no one.  A read is an attribute access (not an assignment)
# in ``src``, ``scripts`` or ``perfbench``, or a string of the field's name, the
# way ``cli.CSV_COLUMNS`` reads the report's fields; tests do not count.  The
# scan matches by name only, so a field is seen as read when any attribute of
# that name is: it cannot find an unread ``mode`` or ``checks`` field while
# other classes have a read attribute of that name.

READERS = ("src", "scripts", "perfbench")


def _is_dataclass(cls) -> bool:
    return any(_callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def defined_fields() -> set[str]:
    """``Class.name`` of every dataclass field and ``self.`` attribute of ``src/itolab``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                found |= {f"{cls.name}.{s.target.id}" for s in cls.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
            found |= {f"{cls.name}.{n.attr}" for n in ast.walk(cls)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                      and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return found


def read_names() -> set[str]:
    """Names read as an attribute, or written as a string, in the readers."""
    names = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for n in ast.walk(ast.parse(path.read_text())):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    names.add(n.attr)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    names.add(n.value)
    return names


def unread_fields() -> list[str]:
    read = read_names()
    return sorted(f for f in defined_fields() if f.split(".")[1] not in read)


def test_every_field_is_read():
    assert unread_fields() == []


# -- one source for a report's seed ---------------------------------------------------
#
# ``cli._run_job`` writes the config's seed on every row, so no checker passes
# one to ``CheckReport``.


def test_no_report_is_built_with_a_seed():
    passing = [f"{path.stem}:{n.lineno}" for path in sorted(SRC.glob("*.py"))
               for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.Call) and _callee(n.func) == "CheckReport"
               and any(k.arg in ("seed", None) for k in n.keywords)]
    assert passing == []


# -- a bare package root ---------------------------------------------------------------
#
# Names come from their modules: the root binds only ``__version__``, so what
# loads a module is its own import chain, and each module imports on its own.


def test_package_root_binds_only_its_version():
    body = ast.parse((SRC / "__init__.py").read_text()).body
    statements = [n for n in body
                  if not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))]
    assert [sorted(_definitions_of(ast.Module([n], []))) for n in statements] == [["__version__"]]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_in_a_fresh_interpreter(module):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", f"import itolab.{module}"],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
