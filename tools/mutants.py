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
NUMTHEORY = "src/cyindex/numtheory.py"
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
           "std_ok = all([isinstance(b, int) and b >= 2 for b in distinct_b])",
           "std_ok = all([isinstance(b, int) and b >= 1 for b in distinct_b])",
           equivalent="StdCoeff rejects b below 2 at construction, so no entry has b = 1"),
    Mutant("entries-distinct", VERIFY,
           '_check(rep, "entries-distinct", _distinct_up_to_scaling([eq for _, eq in leaf.entries], nv))',
           '_check(rep, "entries-distinct", True)'),
    Mutant("index-computed", VERIFY,
           "index = scale if wf and deg_ok else None",
           "index = scale if deg_ok else None"),
    # the verdict kept on a leaf: all of it, the klt report included
    Mutant("verdict-without-klt", VERIFY,
           'kept["_verdict"] = (tuple(rep.checks), rep.klt, result)',
           'kept["_verdict"] = (tuple(rep.checks), None, result)'),
    # and on that leaf alone, not on one object every leaf shares
    Mutant("verdict-shared-by-all-leaves", VERIFY,
           "kept = vars(cert)\n",
           "kept = vars(_verify_node)\n"),
    # the tree arithmetic: a product's verdict is its arity and its factors', carried up,
    # its dimension the sum and its index the lcm of theirs
    Mutant("product-arity-one", VERIFY,
           "passed = len(factors) >= 2",
           "passed = len(factors) >= 1"),
    Mutant("product-drops-factor-verdict", VERIFY,
           "passed = passed and ok",
           "passed = passed"),
    Mutant("product-dim-max", VERIFY,
           "return (sum(dims), lcm(*idxs), True)",
           "return (max(dims), lcm(*idxs), True)"),
    Mutant("product-index-multiplies", VERIFY,
           "return (sum(dims), lcm(*idxs), True)",
           "return (sum(dims), __import__('math').prod(idxs), True)"),
    # the coefficient budget, checked before the degree arithmetic
    Mutant("coeff-budget-ge", VERIFY,
           "if bits > COEFF_BITS_BUDGET:",
           "if bits >= COEFF_BITS_BUDGET:"),
    # the budget charges each distinct b once, not each entry
    Mutant("coeff-budget-per-entry", VERIFY,
           "bits = sum([b.bit_length() for b in distinct_b])",
           "bits = sum([coeff.b.bit_length() for coeff, _ in leaf.entries])"),
    # the builder's memo and the text kept on a leaf
    Mutant("part-gate-ge", CERTIFY,
           "if p < _HELD_PRIMES else",
           "if p < _HELD_PRIMES + 4 else"),
    Mutant("memo-gate-4096", CODEC,
           "_MEMO_MAX_CHARS = 8192",
           "_MEMO_MAX_CHARS = 4096"),
    Mutant("writer-digits-key", CODEC,
           "if kept is not None and kept[0] == digits:",
           "if kept is not None:"),
    # the read-back test keeps no text on the leaf it returns
    Mutant("writer-read-back-held", CODEC,
           "return leaf if leaf is not None and _leaf_text(leaf) == piece else None",
           "return leaf if leaf is not None and _node_text(leaf) == piece else None"),
    # the reader's fast path and memo
    Mutant("reader-text-test", CODEC,
           "return leaf if leaf is not None and _leaf_text(leaf) == piece else None",
           "return leaf"),
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
           "            entries.append((coeff, SparsePoly.from_pairs(nv, terms)))",
           "            entries.append((coeff, SparsePoly.from_pairs(var + 1, terms)))"),
    Mutant("scan-canonical", CODEC,
           "            entries.append((coeff, SparsePoly.from_pairs(nv, terms)))",
           "            entries.append((coeff, SparsePoly._canonical(nv, terms)))"),
    # a coordinate hyperplane held as its index j: written, read, weighed, told apart, canonicalized
    Mutant("writer-index-one-slot-late", CODEC,
           "% (coeff.b, zeros[:2 * eq], zeros[2 * eq + 1:2 * nv - 1]))",
           "% (coeff.b, zeros[:2 * eq + 2], zeros[2 * eq + 3:2 * nv - 1]))"),
    Mutant("scan-index-any-coefficient", CODEC,
           "if len(terms) == 1 and terms[0][0] is _ONE and len(pairs) == 1 and pairs[0][1] == 1:",
           "if len(terms) == 1 and len(pairs) == 1 and pairs[0][1] == 1:"),
    Mutant("scan-offset-not-running", CODEC,
           "var += (at - pos) >> 1",
           "var = (at - pos) >> 1"),
    Mutant("scan-nonzero-unbounded", CODEC,
           'while (at := marked.find("#", pos, close)) >= 0:',
           'while (at := marked.find("#", pos)) >= 0:'),
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
    Mutant("walk-entry-location", CODEC,
           'eloc = f"{loc}.entries[{i}]"',
           "eloc = loc"),
    Mutant("walk-factor-location", CODEC,
           'certificate_from_obj(f, f"{loc}.factors[{i}]")',
           "certificate_from_obj(f, loc)"),
    # the one split of m into parts
    Mutant("split-smallest-prime", CERTIFY,
           "        p, e = fac[k]",
           "        p, e = fac[len(fac) - 1 - k]"),
    Mutant("split-no-explicit-stop", CERTIFY,
           "while m != 1 and m not in _EXPLICIT:",
           "while m != 1:"),
    # an index over the factoring limit: never factored, and out of range only where the bound shows it
    Mutant("factor-limit-ge", CERTIFY,
           "if m > _FACTOR_LIMIT:",
           "if m >= _FACTOR_LIMIT:"),
    Mutant("factor-bound-unchecked", CERTIFY,
           "if m * a > 2 * n * b:",
           "if True:"),
    # the enumeration of {m : phi(m) <= B}: the dead-end test and the cap on the allowed primes
    Mutant("enumerate-dead-end-ge", NUMTHEORY,
           "if f * p > bound:",
           "if f * p >= bound:"),
    Mutant("enumerate-prime-cap", NUMTHEORY,
           "bound // phi + 1",
           "bound // phi"),
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
           "if combos is None or len(combos[0]) > max_components:",
           "if combos is None or len(combos[0]) >= max_components:"),
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
           "w = [(up * x - vp * y) // d for x, y in zip(v, u)]",
           "w = [(up * x + vp * y) // d for x, y in zip(v, u)]"),
    # the Bareiss step divides by the pivot of the step before, exactly
    Mutant("walk-divides-by-current-pivot", SNCKLT,
           "stack.append(([_quotient(u, p, v, d) for v in images[j + 1 :]], u[p]))",
           "stack.append(([_quotient(u, p, v, u[p]) for v in images[j + 1 :]], u[p]))"),
    Mutant("walk-skips-division", SNCKLT,
           "w = [(up * x - vp * y) // d for x, y in zip(v, u)]",
           "w = [up * x - vp * y for x, y in zip(v, u)]",
           equivalent="each image is then a nonzero multiple of the exact one, the product of the pivots "
                      "before it, so every zero and proportionality test reads the same; only the entries grow"),
    Mutant("hyperplane-projective-key", SNCKLT,
           "if key in keys:",
           "if False:"),
    Mutant("hyperplane-pair-nonzero", SNCKLT,
           "if not (a or b):",
           "if False:"),
    Mutant("hyperplane-last-nonzero", SNCKLT,
           "if not all(map(any, images)):",
           "if not any(map(any, images)):"),
    Mutant("hyperplane-last-start", SNCKLT,
           "for j in reversed(range(len(images) - left + 1)):",
           "for j in reversed(range(len(images) - left + 2)):"),
    Mutant("hyperplane-shape", SNCKLT,
           "if len(pairs) != 1 or pairs[0][1] != 1:",
           "if len(pairs) != 1:"),
    # the one route of linear forms: its subset size on P^1 and P^2, and its budget on the plane tag
    Mutant("p1-pairs", SNCKLT,
           "t = min(k, nv)\n",
           "t = min(k, 1 if nv == 2 else nv)\n"),
    Mutant("plane-lines-triples", SNCKLT,
           "t = min(k, nv)\n",
           "t = min(k, 2 if nv == 3 else nv)\n"),
    Mutant("plane-linear-budget-skipped", SNCKLT,
           "return _linear_forms_snc(curves)",
           "return _walk(_integer_normals(curves), min(len(curves), nv))"),
    # and on every P^N, not only on P^1 and P^2
    Mutant("plane-linear-arity", SNCKLT,
           "i = next((i for i, c in enumerate(curves) if _not_hyperplane(c)), None)",
           "i = next((i for i, c in enumerate(curves) if _not_hyperplane(c) or nv > 3), None)"),
    Mutant("plane-pair-squarefree", SNCKLT,
           "return _gcd_degree(r, [i * c for i, c in enumerate(r)][1:]) <= 0",
           "return _gcd_degree(r, [i * c for i, c in enumerate(r)][1:]) <= 1"),
    Mutant("plane-triple-shared-root", SNCKLT,
           "if _share_projective_root(r1, d1, r2, d2):",
           "if False:"),
    # the one smoothness test: conics skipped, and F_z read with the cubic's degree
    Mutant("plane-conic-smooth", SNCKLT,
           "if d > 1 and not _smooth_certified(rows, d):",
           "if d > 2 and not _smooth_certified(rows, d):"),
    Mutant("smooth-partial-degree", SNCKLT,
           "(d - a - b) * c",
           "(3 - a - b) * c",
           equivalent="on a conic it reads F_z + F, which is 3/2 F_z where F_x = F_y = 0 off {z = 0} by "
                      "Euler's formula, and a conic singular on {z = 0} has F_x, F_y proportional, a zero "
                      "first resultant; on a cubic it is the same line"),
    Mutant("plane-cubic-smooth", SNCKLT,
           "return not _share_projective_root(r1, d1, r2, d2)",
           "return True"),
    # wpspairs
    # every equation is held as its primitive integer multiple, and a projective key has a positive lead
    Mutant("from-pairs-skips-gcd", WPSPAIRS,
           "            g = gcd(*coeffs)",
           "            g = 1"),
    Mutant("from-pairs-skips-clearing", WPSPAIRS,
           "d = lcm(*[c.denominator for c in coeffs])",
           "d = 1"),
    Mutant("from-pairs-never-sorts", WPSPAIRS,
           "if not all(map(gt, keys, keys[1:])):",
           "if False:"),
    Mutant("projective-key-sign", WPSPAIRS,
           "sign = -1 if self.terms and self.terms[0][0] < 0 else 1",
           "sign = 1"),
    Mutant("variable-unchecked", WPSPAIRS,
           "return cls.from_pairs(nvars, ((coeff, ((j, 1),)),))",
           "return cls._canonical(nvars, ((coeff, ((j, 1),)),))"),
    # a dense vector equal to an earlier one merges into it unchecked, as from_terms once did
    Mutant("terms-merge-before-check", WPSPAIRS,
           "pairs = exponent_pairs(exps, variables)",
           "pairs = next((p for p in acc if dense_exponents(nvars, p) == list(exps)), None) "
           "or exponent_pairs(exps, variables)"),
    Mutant("well-formed-gcd", WPSPAIRS,
           "if gcd(prefix, rest_gcd[len(w) - 1 - i]) != 1:",
           "if gcd(prefix, rest_gcd[len(w) - 1 - i]) > 2:"),
    Mutant("degree-one-pair", WPSPAIRS,
           "degs.add(w[v] * x)",
           "degs.add(x)"),
    Mutant("degree-index-wrong-weight", WPSPAIRS,
           "return space.weights[eq]",
           "return space.weights[eq - 1]"),
    Mutant("distinct-blind-to-repeated-index", WPSPAIRS,
           "keys.add(eq.projective_key() if j is None else j)",
           "keys.add(eq.projective_key() if j is None else (j, len(keys)))"),
    Mutant("canonical-any-coefficient", WPSPAIRS,
           "and (j := _coordinate_var(eq)) is not None and eq.terms[0][0] == 1):",
           "and (j := _coordinate_var(eq)) is not None):"),
    Mutant("canonical-any-nvars", WPSPAIRS,
           "elif (family and isinstance(eq, SparsePoly) and eq.nvars == nv",
           "elif (family and isinstance(eq, SparsePoly)"),
    Mutant("index-range-unchecked", WPSPAIRS,
           "if type(eq) is not int or not 0 <= eq < nv:  # exact int, so no bool",
           "if type(eq) is not int:"),
    # the log degree sums the entry degrees of each distinct b
    Mutant("log-degree-sum-overwritten", WPSPAIRS,
           "sums[coeff.b] = sums.get(coeff.b, 0) + deg",
           "sums[coeff.b] = deg"),
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
