"""Run tier-1 against one-line source mutants and print which the tests kill.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

Each mutant replaces one line of a file under src/ with another. For each,
the tree beside this file (without .git and caches) is copied to a
temporary directory, the replacement is applied there, and tier-1 runs
there with `-x -q`. A mutant is killed when tier-1 fails and survives when
it passes. Some survivors are equivalent: no leaf the loader or the library
can build tells them apart from the program. Those are listed with the
reason, and the tool exits 1 only if a mutant that is not listed survives.
Every replacement is checked to match its file exactly once before any
mutant runs. One mutant takes up to one tier-1 run, a few minutes.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    equivalent: str | None = None  # why no test can kill it, if none can


CERTIFY = "src/cyindex/certify.py"
CODEC = "src/cyindex/codec.py"
SNCKLT = "src/cyindex/sncklt.py"
VERIFY = "src/cyindex/verify.py"
WPSPAIRS = "src/cyindex/wpspairs.py"

MUTANTS = [
    # the verifier's checks of a leaf
    Mutant("weights-valid", VERIFY,
           '_check(rep, "weights-valid", len(w) >= 2 and min(w) >= 1, space_text)',
           '_check(rep, "weights-valid", len(w) >= 2 and min(w) >= 0, space_text)',
           equivalent="Wps rejects a weight below 1 at construction, so no leaf has one"),
    Mutant("standard-coefficients", VERIFY,
           "std_ok = all(isinstance(coeff.b, int) and coeff.b >= 2 for coeff, _ in leaf.entries)",
           "std_ok = all(isinstance(coeff.b, int) and coeff.b >= 1 for coeff, _ in leaf.entries)",
           equivalent="StdCoeff rejects b below 2 at construction, so no entry has b = 1"),
    Mutant("entries-distinct", VERIFY,
           '_check(rep, "entries-distinct", _distinct_up_to_scaling([eq for _, eq in leaf.entries]))',
           '_check(rep, "entries-distinct", True)'),
    Mutant("index-computed", VERIFY,
           "index = scale if wf and deg_ok else None",
           "index = scale if deg_ok else None"),
    # the leaf-verdict memo's key, simulated by mapping each key to the first
    # leaf seen with it; the map outlives cache_clear
    Mutant("verdict-key-space-strategy", VERIFY,
           "checks, rep.klt, result = _leaf_verdict(leaf)",
           "checks, rep.klt, result = _leaf_verdict(_leaf_verdict.__dict__.setdefault("
           "(leaf.space, leaf.klt_strategy), leaf))"),
    Mutant("verdict-key-no-strategy", VERIFY,
           "checks, rep.klt, result = _leaf_verdict(leaf)",
           "checks, rep.klt, result = _leaf_verdict(_leaf_verdict.__dict__.setdefault("
           "(leaf.space, leaf.entries), leaf))"),
    # the one fallback for a leaf the memo does not hold, bigger or unhashable
    Mutant("verdict-gate-ge", VERIFY,
           "if sum([len(eq.terms) for _, eq in leaf.entries]) > _MEMO_MAX_MONOMIALS:",
           "if sum([len(eq.terms) for _, eq in leaf.entries]) >= _MEMO_MAX_MONOMIALS:"),
    Mutant("verdict-fallback-detached", VERIFY,
           "return _verify_wps_leaf(leaf, rep)  # a leaf the memo does not hold, checked afresh",
           'return _verify_wps_leaf(leaf, NodeReport(path, "wps_leaf"))'),
    # the coefficient budget, checked before the degree arithmetic
    Mutant("coeff-budget-ge", VERIFY,
           "if bits > COEFF_BITS_BUDGET:",
           "if bits >= COEFF_BITS_BUDGET:"),
    # the leaf's hash, worked out once per object
    Mutant("leaf-hash-no-strategy", WPSPAIRS,
           "h = hash((self.space, self.entries, self.klt_strategy))",
           "h = hash((self.space, self.entries))"),
    Mutant("leaf-hash-pickled", WPSPAIRS,
           'return {k: v for k, v in self.__dict__.items() if k != "_hash"}',
           "return dict(self.__dict__)"),
    # the builder's and the writer's memos
    Mutant("part-gate-ge", CERTIFY,
           "if _part_monomials(p, e) <= _MEMO_MAX_MONOMIALS else",
           "if _part_monomials(p, e) < _MEMO_MAX_MONOMIALS else"),
    Mutant("part-count-prime", CERTIFY,
           "return (p + 3) // 2 if p % 4 == 1 else (p + 1) // 2",
           "return (p + 1) // 2"),
    Mutant("writer-digits-key", CODEC,
           "return _held_leaf_text(leaf, sys.get_int_max_str_digits())",
           "return _held_leaf_text(leaf, 0)"),
    Mutant("writer-read-back-held", CODEC,
           "return WpsLeaf(leaf) if leaf is not None and _leaf_text(leaf) == piece else None",
           "return WpsLeaf(leaf) if leaf is not None and _node_text(WpsLeaf(leaf)) == piece else None"),
    # the reader's fast path and memo
    Mutant("reader-text-test", CODEC,
           "return WpsLeaf(leaf) if leaf is not None and _leaf_text(leaf) == piece else None",
           "return WpsLeaf(leaf) if leaf is not None else None"),
    Mutant("reader-elliptic-text-test", CODEC,
           "return node if node is not None and _node_text(node) == piece else None",
           "return node"),
    Mutant("reader-digits-key", CODEC,
           "return _read_leaf_text(piece, digits) if",
           "return _read_leaf_text(piece, 0) if"),
    Mutant("reader-accepts-product", CODEC,
           "if piece.startswith(_LEAF_HEAD):",
           "if piece.startswith((_LEAF_HEAD, _PRODUCT_HEAD)):"),
    Mutant("reader-gate-ge", CODEC,
           "if len(piece) <= _MEMO_MAX_CHARS else",
           "if len(piece) < _MEMO_MAX_CHARS else"),
    Mutant("reader-str-type", CODEC,
           "    if type(text) is str:",
           "    if True:"),
    Mutant("reader-dim-prefix", CODEC,
           "if piece.startswith(_ELLIPTIC_HEAD):",
           "if True:"),
    Mutant("reader-holds-elliptic", CODEC,
           "return _read_piece(piece)  # up to hundreds of padding dimensions, which would push the leaves out",
           "return _read_leaf_text(piece, digits)"),
    Mutant("reader-any-trailing-space", CODEC,
           'body = text[:-1] if text.endswith("\\n") else text',
           "body = text.rstrip()"),
    Mutant("reader-cut-not-advanced", CODEC,
           "start = cut + 1",
           "start = cut"),
    Mutant("reader-cut-at-brace", CODEC,
           "match.start() + 1",
           "match.start()"),
    # the leaf scanner, whose leaf _read_piece keeps only after the write-back test
    Mutant("scan-nvars-from-vector", CODEC,
           "entries.append((coeff, SparsePoly.from_pairs(nv, terms)))",
           "entries.append((coeff, SparsePoly.from_pairs(var + 1, terms)))"),
    Mutant("scan-canonical", CODEC,
           "entries.append((coeff, SparsePoly.from_pairs(nv, terms)))",
           "entries.append((coeff, SparsePoly._canonical(nv, terms)))"),
    Mutant("scan-count-not-running", CODEC,
           'var += text.count(",", pos, at)',
           'var = text.count(",", pos, at)'),
    Mutant("scan-elliptic-dim-zero", CODEC,
           "node = EllipticLeaf(dim) if dim >= 1 else None",
           "node = EllipticLeaf(dim)"),
    # the general reader's walk
    Mutant("walk-b-minimum-1", CODEC,
           'b = _need_int(_need(ent, "b", eloc), f"{eloc}.b", minimum=2)',
           'b = _need_int(_need(ent, "b", eloc), f"{eloc}.b", minimum=1)'),
    Mutant("walk-exponents-before-c", CODEC,
           "if pairs is None and bad is None:",
           'if pairs is None and bad is None and [_need_int(x, f"{mloc}.e[{k}]", minimum=0) '
           "for k, x in enumerate(e)]:"),
    Mutant("walk-repeat-location", CODEC,
           'raise CertificateParseError(str(err), f"{eloc}.eq") from err',
           "raise CertificateParseError(str(err), eloc) from err"),
    # the plane search's table of degree-zero multisets
    Mutant("table-b-upper-bound", CERTIFY,
           "for b in range(max(prev[0], ceil(1 / owed)), left // owed + 1):",
           "for b in range(max(prev[0], ceil(1 / owed)), left // owed):"),
    Mutant("table-b-lower-bound", CERTIFY,
           "for b in range(max(prev[0], ceil(1 / owed)), left // owed + 1):",
           "for b in range(max(prev[0], ceil(1 / owed) + 1), left // owed + 1):"),
    Mutant("table-parts-increasing", CERTIFY,
           "if (b, d) >= prev and room[d]",
           "if (b, d) > prev and room[d]"),
    Mutant("table-order-no-count", CERTIFY,
           "combos.sort(key=lambda c: (len(c), c))",
           "combos.sort(key=lambda c: c)"),
    Mutant("search-max-components", CERTIFY,
           "if len(combo) > max_components:",
           "if len(combo) >= max_components:"),
    # the family klt criterion
    Mutant("chains-head", SNCKLT,
           "if inner:",
           "if False:"),
    Mutant("chains-tail-exponent", SNCKLT,
           "if powers[tail] < 2:",
           "if powers[tail] < 1:"),
    Mutant("chains-branch", SNCKLT,
           "if len(onward) > 1:",
           "if len(onward) > 2:"),
    Mutant("chains-base-twice", SNCKLT,
           "if exponent != 1 or base in seen:",
           "if exponent != 1:"),
    Mutant("chains-two-powers", SNCKLT,
           "if i in powers:",
           "if False:"),
    Mutant("chains-tag-family-b", SNCKLT,
           'if leaf.klt_strategy == "family_B" and chain is None:',
           "if False:"),
    Mutant("chains-tag-fermat", SNCKLT,
           'if leaf.klt_strategy != "family_B" and chain is not None:',
           "if False:"),
    # the arrangement checks
    Mutant("hyperplane-rank", SNCKLT,
           "if _rank([rows[i] for i in subset]) != t:",
           "if _rank([rows[i] for i in subset]) < t - 1:"),
    Mutant("plane-pair-squarefree", SNCKLT,
           "return _gcd_degree(r, [i * c for i, c in enumerate(r)][1:]) <= 0",
           "return _gcd_degree(r, [i * c for i, c in enumerate(r)][1:]) <= 1"),
    Mutant("plane-triple-shared-root", SNCKLT,
           "if _share_projective_root(r1, d1, r2, d2):",
           "if False:"),
    Mutant("plane-conic-smooth", SNCKLT,
           "if d == 2 and not _conic_smooth(t):",
           "if False:"),
    Mutant("plane-cubic-smooth", SNCKLT,
           "return not _share_projective_root(r1, d1, r2, d2)",
           "return True"),
    # wpspairs
    Mutant("variable-unchecked", WPSPAIRS,
           "return cls.from_pairs(nvars, ((coeff, ((j, 1),)),))",
           "return cls._canonical(nvars, ((coeff, ((j, 1),)),))"),
    Mutant("well-formed-gcd", WPSPAIRS,
           "if gcd(prefix, rest_gcd[len(w) - 1 - i]) != 1:",
           "if gcd(prefix, rest_gcd[len(w) - 1 - i]) > 2:"),
    Mutant("degree-one-pair", WPSPAIRS,
           "degs.add(w[v] * x)",
           "degs.add(x)"),
]


def _mutated(tree: Path, mutant: Mutant) -> str:
    """The mutant's file in `tree` with its one line replaced."""
    text = (tree / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", ".benchmarks"))


def run(mutant: Mutant, scratch: Path) -> str:
    """'killed by TEST' or 'survived', after tier-1 on a mutated copy."""
    tree = scratch / mutant.name
    _copy(tree)
    (tree / mutant.file).write_text(_mutated(tree, mutant))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    shutil.rmtree(tree)
    if proc.returncode == 0:
        return "survived"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return f"killed by {failed.group(1) if failed else f'exit {proc.returncode}'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    for mutant in chosen:  # fail loudly before any run if a line has moved
        _mutated(ROOT, mutant)
    unlisted = 0
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in chosen:
            verdict = run(mutant, Path(scratch))
            if verdict == "survived" and mutant.equivalent:
                verdict += f" (equivalent: {mutant.equivalent})"
            elif verdict == "survived":
                unlisted += 1
            print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(chosen)} mutants, {unlisted} unlisted survivors")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
