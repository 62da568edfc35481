"""Every ``src/repro`` module is reached by the paper's tools.

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
"""

from __future__ import annotations

import ast
import pathlib

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
