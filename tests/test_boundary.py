"""The trusted base, the modules a verdict depends on, imports nothing from
the builders, the CLI or the selftest corpus; and every polynomial is built
through the one set of checks in `SparsePoly.from_pairs`."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyindex"
TRUSTED = ("verify.py", "codec.py", "sncklt.py", "wpspairs.py", "numtheory.py")
OUTSIDE = ("certify", "cli", "selftest")


def _outside_imports(source: str, outside: tuple[str, ...] = OUTSIDE) -> list[str]:
    """The dotted names of every cyindex module in `outside`, by default
    those outside the trusted base, that an import statement anywhere in
    `source` names, relative or absolute; a relative import counts as
    inside cyindex."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cyindex" if node.level else "", node.module]))
            named += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return [name for name in named
            if any(name == f"cyindex.{mod}" or name.startswith(f"cyindex.{mod}.") for mod in outside)]


@pytest.mark.parametrize("module", TRUSTED)
def test_the_trusted_base_imports_no_builder(module):
    assert _outside_imports((PACKAGE / module).read_text()) == []


def test_the_readme_counts_the_trusted_base():
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    stated = re.search(r"The trusted base is `wpspairs`, `sncklt`, `verify` and `codec`, ([\d,]+)\s+lines", readme)
    counted = sum(len((PACKAGE / f"{m}.py").read_text().splitlines()) for m in ("wpspairs", "sncklt", "verify", "codec"))
    assert stated and int(stated.group(1).replace(",", "")) == counted


def test_the_builders_import_no_klt_check():
    # the plane search returns its table's first multiset; only the verifier judges a leaf
    assert _outside_imports((PACKAGE / "certify.py").read_text(), ("sncklt",)) == []


@pytest.mark.parametrize("source", [
    "from .certify import realize",
    "from . import cli",
    "from .selftest.sub import x",
    "import cyindex.certify",
    "import cyindex.cli as c",
    "from cyindex.selftest import CHECKS",
    "from cyindex import certify",
    "def f():\n    from .certify import realize",
])
def test_the_boundary_check_sees_every_form_of_import(source):
    assert _outside_imports(source)


@pytest.mark.parametrize("source", [
    "from .verify import WpsLeaf",
    "from . import codec",
    "import cyindex.wpspairs",
    "from cyindex import sncklt",
    "import certify",
    "from .certification import x",
])
def test_the_boundary_check_passes_trusted_imports(source):
    assert _outside_imports(source) == []


# -- one check path: only SparsePoly.from_pairs calls _canonical -----------------


def _canonical_callers(source: str) -> list[str]:
    """The dotted name of the class and function around each call of
    `_canonical` in `source`, by attribute or by bare name; `<module>` for a
    call outside every function and class."""
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", None) == "_canonical" or getattr(func, "id", None) == "_canonical":
                    callers.append(".".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return callers


def test_only_from_pairs_calls_canonical():
    callers = {module.name: _canonical_callers(module.read_text()) for module in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in callers.items() if found} == {"wpspairs.py": ["SparsePoly.from_pairs"]}


@pytest.mark.parametrize("source, callers", [
    ("def f():\n    return SparsePoly._canonical(1, [])", ["f"]),
    ("class SparsePoly:\n    @classmethod\n    def variable(cls, n, j):\n        return cls._canonical(n, ())",
     ["SparsePoly.variable"]),
    ("class SparsePoly:\n    def scaled(self, c):\n        def inner():\n            return _canonical(1, [])",
     ["SparsePoly.scaled.inner"]),
    ("leaf = wpspairs.SparsePoly._canonical(1, [])", ["<module>"]),
    ("class SparsePoly:\n    @classmethod\n    def from_pairs(cls, n, terms):\n        return cls._canonical(n, [])",
     ["SparsePoly.from_pairs"]),
    ("def f():\n    return SparsePoly.from_pairs(1, [])", []),
])
def test_the_canonical_check_sees_every_caller(source, callers):
    assert _canonical_callers(source) == callers
