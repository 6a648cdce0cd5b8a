"""The byte contract: the digest lines of tools/output_digests.py, each
sha256 cut to 16 hex digits, match the committed tests/data/output_digests.txt.

This is the one place output bytes are pinned: no other test holds a hash.
A test that pins the bytes of an input it builds reads that input's line of
the file through `recorded` in conftest.py.

A change that moves output bytes on purpose re-records the file with

    python3 tools/output_digests.py > tests/data/output_digests.txt

and names the sections and the count of lines that moved.
"""

import difflib
import importlib.util
from pathlib import Path

from conftest import RECORDED_DIGESTS

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sections(lines) -> dict[str, list[str]]:
    """The lines grouped by their first word, each group in order."""
    sections: dict[str, list[str]] = {}
    for line in lines:
        sections.setdefault(line.split(" ", 1)[0], []).append(line)
    return sections


def _mismatch(name: str, want: list[str], got: list[str], most: int = 5) -> str:
    """The section, the count of its differing lines and the first few of them."""
    diff = [line for line in difflib.unified_diff(want, got, lineterm="", n=0)
            if line[:1] in "+-" and not line.startswith(("+++", "---"))]
    return f"section {name}: {len(diff)} lines differ, first: {diff[:most]}"


def test_every_output_digest_matches_the_recorded_file():
    tool = _tool()
    got = _sections(tool.shortened(line) for line in tool.lines())
    want = _sections(RECORDED_DIGESTS.read_text().splitlines())
    problems = [_mismatch(name, want.get(name, []), got.get(name, []))
                for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    assert not problems, "\n".join(problems)
