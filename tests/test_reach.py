"""Every ``src/repro`` module is reached by the paper's tools, and every
public function under ``src/repro`` is referenced by name.

A static import graph is built over every ``import`` and ``from ...
import`` statement, including those inside functions (the CLI imports
lazily).  Its roots are what a user runs: ``repro.cli``,
``repro.__main__``, every ``benchmarks/**/*.py`` and every
``examples/*.py``.  Tests are not roots, so a module that only tests
import fails here: delete it, or move it into ``tests/`` if it is an
oracle.

A package ``__init__``'s own imports are followed only when the package
is imported by name (``import repro.apps`` or ``from repro.apps import
CMeansApp``).  Importing a submodule runs its parents' ``__init__`` too,
but following their re-exports would make every re-exported module look
reached.

Below modules, the check is by name: every public function, method and
property defined anywhere under ``src/repro`` must be referenced
somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside its own
``def``.  A reference is an attribute ``.name``, a read of ``name`` (a
call, or the function passed on), or a ``"module:Class.name"``
entry-point string.  Names are not resolved to their class, so a common
name (``to_dict``) is never flagged; the check catches a function whose
name nothing uses any more.  A function that only a paper claim's tests
reach stays when ``NAME_EXEMPT`` names that claim.
"""

from __future__ import annotations

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).parent.parent
SRC = REPO / "src"

#: module -> why it stays although no root imports it
EXEMPT = {
    "repro.apps.dgemm": (
        "the only app whose intensity depends on the block size (Eq. 10); "
        "tests/integration/test_dgemm_prs.py runs it end to end through "
        "the runtime, incl. the larger-blocks-attain-a-higher-rate check "
        "(§III.B.3b)"
    ),
}


def _src_modules() -> dict[str, tuple[pathlib.Path, bool]]:
    """Dotted name -> (file, is_package) for every module under src/repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (path, is_package)
    return modules


def _imports(path: pathlib.Path, package: str, modules) -> set[str]:
    """The src modules that ``path``'s import statements name.

    ``package`` is the package relative imports resolve against.
    ``from P import n`` names the module ``P.n`` when there is one, and
    the package ``P`` itself otherwise.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                found.add(sub if sub in modules else base)
    return found & modules.keys()


def reached_modules() -> set[str]:
    """Every src module the roots import, directly or transitively."""
    modules = _src_modules()
    todo = ["repro.cli", "repro.__main__"]
    roots = sorted((REPO / "benchmarks").rglob("*.py"))
    roots += sorted((REPO / "examples").glob("*.py"))
    for path in roots:
        todo.extend(_imports(path, "", modules))
    followed: set[str] = set()
    while todo:
        name = todo.pop()
        if name in followed:
            continue
        followed.add(name)
        path, is_package = modules[name]
        package = name if is_package else name.rpartition(".")[0]
        todo.extend(_imports(path, package, modules))
    # A reached submodule runs its parents' __init__ (whose imports are
    # not followed, see the module docstring).
    executed = set(followed)
    for name in followed:
        while "." in name:
            name = name.rpartition(".")[0]
            executed.add(name)
    return executed


def test_every_src_module_is_reached():
    unreached = sorted(_src_modules().keys() - reached_modules() - EXEMPT.keys())
    assert not unreached, (
        "src modules no CLI command, bench or example imports (delete "
        "them, or move a test oracle into tests/): " + ", ".join(unreached)
    )


def test_exemptions_are_live():
    """An exempt module exists and is still unreached, or it goes."""
    reached = reached_modules()
    for name in EXEMPT:
        assert name in _src_modules(), f"{name} no longer exists"
        assert name not in reached, f"{name} is reached; drop its exemption"


def test_import_statements_resolve(tmp_path):
    modules = _src_modules()
    root = tmp_path / "root.py"
    root.write_text(
        "import numpy\n"
        "from repro.apps import CMeansApp\n"
        "def main():\n"
        "    import repro.claims\n"
        "    from repro.apps.gmm import GMMApp\n"
        "    from repro.obs import dashboard\n"
    )
    # Function bodies count; a name that is not a submodule names the
    # package, whose re-exports are then followed.
    assert _imports(root, "", modules) == {
        "repro.apps", "repro.claims", "repro.apps.gmm", "repro.obs.dashboard",
    }
    rel = tmp_path / "rel.py"
    rel.write_text("from .gmm import GMMApp\nfrom .. import obs\n")
    assert _imports(rel, "repro.apps", modules) == {"repro.apps.gmm", "repro.obs"}


#: the files whose public functions must each be referenced by name
NAME_CHECKED = (SRC / "repro",)

#: ``module:Class.name`` -> id of the claim in ``repro.claims.CLAIMS``
#: whose ``verified_by`` tests are its only readers
NAME_EXEMPT = {
    "repro.core.network_aware:network_aware_split": "X-future-work",
    "repro.core.network_aware:coprocessing_gain": "X-future-work",
}

#: an entry-point string such as ``"repro.simulate.trace:Trace.add"``
_ENTRY_POINT = re.compile(r"^[\w.]+:[\w.]+$")


def _public_defs(path: pathlib.Path) -> list[tuple[str, str, int, int]]:
    """(name, qualified name, first line, last line) of every public
    module-level function and method of a module-level class."""
    out = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, functions):
            items = [(node, node.name)]
        elif isinstance(node, ast.ClassDef):
            items = [(item, f"{node.name}.{item.name}") for item in node.body
                     if isinstance(item, functions)]
        else:
            continue
        out.extend(
            (item.name, qualname, item.lineno, item.end_lineno)
            for item, qualname in items if not item.name.startswith("_")
        )
    return out


def _name_references(path: pathlib.Path) -> list[tuple[str, int]]:
    """(name, line) of every reference in *path* (see module docstring)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _ENTRY_POINT.match(node.value)):
            out.append((re.split(r"[:.]", node.value)[-1], node.lineno))
    return out


def public_functions() -> dict[str, tuple[str, pathlib.Path, int, int]]:
    """``module:Class.name`` -> (name, file, first line, last line) of
    every name-checked public function."""
    out = {}
    for root in NAME_CHECKED:
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            for name, qualname, first, last in _public_defs(path):
                out[f"{module}:{qualname}"] = (name, path, first, last)
    return out


def unreferenced_functions() -> list[str]:
    """``module:Class.name`` of every name-checked public function that
    nothing outside its own ``def`` references."""
    files = [p for root in ("src", "benchmarks", "examples")
             for p in sorted((REPO / root).rglob("*.py"))]
    refs: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path in files:
        for name, line in _name_references(path):
            refs.setdefault(name, []).append((path, line))
    return [
        qualname
        for qualname, (name, path, first, last) in public_functions().items()
        if not any(ref != path or not first <= line <= last
                   for ref, line in refs.get(name, ()))
    ]


def test_every_src_function_is_referenced():
    missing = [q for q in unreferenced_functions() if q not in NAME_EXEMPT]
    assert not missing, (
        "public functions nothing in src/, benchmarks/ or examples/ "
        "references (delete them, or move a test oracle into tests/): "
        + ", ".join(missing)
    )


def test_name_exemptions_are_live():
    """An exempt function exists, is still unreferenced and cites a
    registered claim, or its exemption goes."""
    from repro.claims import CLAIMS

    defined = public_functions()
    unreferenced = set(unreferenced_functions())
    claim_ids = {claim.id for claim in CLAIMS}
    for qualname, claim_id in NAME_EXEMPT.items():
        assert qualname in defined, f"{qualname} no longer exists"
        assert qualname in unreferenced, (
            f"{qualname} is referenced; drop its exemption"
        )
        assert claim_id in claim_ids, f"{qualname} cites unknown claim {claim_id}"


def test_name_references_resolve(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class C:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "def helper():\n"
        "    return helper\n"
        "ENTRY = 'pkg.mod:C.run'\n"
        "x = obj.attr\n"
        "_private = 'not:an entry'\n"
    )
    assert _public_defs(mod) == [("walk", "C.walk", 2, 3), ("helper", "helper", 4, 5)]
    # self-references are collected here; unreferenced_functions drops
    # those that lie inside the def they name
    assert sorted(_name_references(mod)) == [
        ("attr", 7), ("helper", 5), ("obj", 7), ("run", 6), ("self", 3),
        ("walk", 3),
    ]
