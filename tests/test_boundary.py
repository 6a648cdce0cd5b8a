"""The trusted base, the modules a verdict depends on, imports nothing from
the builders, the CLI or the selftest corpus."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyindex"
TRUSTED = ("verify.py", "codec.py", "sncklt.py", "wpspairs.py", "numtheory.py")
OUTSIDE = ("certify", "cli", "selftest")


def _outside_imports(source: str) -> list[str]:
    """The dotted names of every cyindex module outside the trusted base
    that an import statement anywhere in `source` names, relative or
    absolute; a relative import counts as inside cyindex."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cyindex" if node.level else "", node.module]))
            named += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return [name for name in named
            if any(name == f"cyindex.{mod}" or name.startswith(f"cyindex.{mod}.") for mod in OUTSIDE)]


@pytest.mark.parametrize("module", TRUSTED)
def test_the_trusted_base_imports_no_builder(module):
    assert _outside_imports((PACKAGE / module).read_text()) == []


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
