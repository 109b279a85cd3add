"""Every imported name is read somewhere in its module, every private
module-level name of the package is read by some module, every name in a
module's ``__all__`` is bound there, every name the benchmark traces
resolves, and the command line starts without scipy.

No linter is required to run the tests, so these AST scans keep refactors
from leaving dead imports and dead helpers behind.  A name listed in
``__all__`` counts as read, and an import line marked ``# noqa: F401`` is
exempt.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path, root: Path = ROOT) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}                       # bound name -> line number
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


def _unread_private_names(root: Path) -> list:
    """The module-level private functions, classes and constants (one
    leading underscore) of the modules in root that no module there reads:
    by name in its own module, imported by name, or as an attribute."""
    defined, read, attributes = [], set(), set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined += [(path, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add((path.stem, node.id))
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").rsplit(".", 1)[-1]
                read.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return [f"{path.relative_to(root)}:{line}: {name}" for path, name, line in defined
            if (path.stem, name) not in read and name not in attributes]


def test_no_private_name_of_the_package_is_left_unread():
    names = _unread_private_names(ROOT / "src" / "qmsflow")
    assert names == []


def test_the_scan_sees_an_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_OWN = 1\n_IMPORTED = 2\n_ATTRIBUTE = 3\n_DEAD = 4\n\n\n"
        "def _helper():\n    return _OWN\n\n\nclass _Unused:\n    pass\n\n\n"
        "print(_helper())\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _IMPORTED\n"
                                   "print(_IMPORTED, a._ATTRIBUTE)\n", encoding="utf-8")
    assert _unread_private_names(tmp_path) == ["a.py:4: _DEAD", "a.py:11: _Unused"]


def test_every_name_in_all_is_bound():
    # the scan above counts __all__ entries as reads, so a stale entry left
    # by a deletion would hide a dead import
    modules = sorted((ROOT / "src" / "qmsflow").glob("*.py"))
    stale = []
    for path in modules:
        module = importlib.import_module(f"qmsflow.{path.stem}")
        stale += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert len(modules) > 5
    assert stale == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nimport os  # noqa: F401\n"
                      "from json import dumps, loads\n"
                      "__all__ = ['dumps']\nprint(loads)\n", encoding="utf-8")
    assert _unused_imports(module, tmp_path) == ["m.py:1: math"]


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported where quadrature, root finding or the DOP853 tableau
    # is first needed, so a plain import of the command line stays cheap
    code = ("import sys, qmsflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/tracing.py wraps each traced function at the name its caller
    # looks it up by, with getattr and no default: a name a refactor drops
    # (an import left without a caller, say) would crash every traced round
    tracing = _tracing()
    modules = {name: importlib.import_module(f"qmsflow.{name}") for name in
               ("cli", "dynamics", "algebra", "exprlang", "geometry", "potentials")}
    missing = [target for target, _ in tracing._FUNCTION_SPANS
               if not callable(getattr(modules[target.split(".")[0]], target.split(".")[1], None))]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr, _ in tracing._CLASSMETHOD_SPANS
                if not isinstance(vars(getattr(modules[mod], cls)).get(attr), classmethod)]
    missing += [f"cli.{name}" for name in ("integrate", "green_function", "_SUITE_RUNNERS")
                if not hasattr(modules["cli"], name)]
    assert len(tracing._FUNCTION_SPANS) > 20
    assert missing == []
