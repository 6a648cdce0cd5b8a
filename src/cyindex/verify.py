"""The independent verifier of index certificates, and the certificate tree.

A certificate is a tree witnessing that an integer m is the index of a klt
Calabi-Yau pair of a given dimension with standard coefficients:

  wps_leaf        an explicit pair on a weighted projective space
  elliptic_leaf   an abelian factor of dimension k (index 1, empty boundary)
  product         combines factors; dimensions add, indices combine by lcm

The verifier recomputes everything from raw data: well-formedness,
quasi-homogeneity, exact degree zero, standard coefficients, the index, the
klt report, and the tree arithmetic. Every leaf is explicit, so nothing
is taken on trust and both verification modes run the same checks.

A sweep over (n, m) meets the same few core leaves again and again, so the
verifier keeps the verdicts of small leaves: a leaf of at most 64 monomials
in all is checked once per process, and every later equal leaf gets a copy
of the same checks and the same klt report (_leaf_verdict). The memo holds
at most 128 leaves, least recently used first out. It is keyed on the leaf
itself, which is everything the checks read, so a report is the same bytes
whether it came from the memo or not. Bigger leaves are checked afresh. The
same bounds serve the writer's text memo in codec, through the same gate
(_memo_holds), and the builder's memo in certify. A LogLeaf works out its
hash once, so a leaf object met again costs each memo one lookup.

The degree arithmetic of a leaf is bounded by the bits of its b values
(COEFF_BITS_BUDGET); over the budget, degree-zero fails and names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .sncklt import KltReport, is_klt_leaf
from .wpspairs import (
    LogLeaf,
    NotQuasiHomogeneous,
    _bounded_fraction,
    _bounded_int,
    _distinct_up_to_scaling,
    _listed,
    _scaled_log_degree,
    is_well_formed,
    weighted_degree,
)

__all__ = [
    "WpsLeaf",
    "EllipticLeaf",
    "Product",
    "Certificate",
    "verify_certificate",
    "NodeReport",
    "VerificationReport",
]


# ---------------------------------------------------------------------------
# certificate tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WpsLeaf:
    leaf: LogLeaf


@dataclass(frozen=True)
class EllipticLeaf:
    dim: int


@dataclass(frozen=True)
class Product:
    factors: tuple["Certificate", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


Certificate = WpsLeaf | EllipticLeaf | Product


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------


@dataclass
class NodeReport:
    path: str
    kind: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    klt: KltReport | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failing(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]

    def as_obj(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "passed": self.passed,
            "checks": [
                {"name": n, "passed": ok, "detail": d} for n, ok, d in self.checks
            ],
            "klt": self.klt.as_obj() if self.klt is not None else None,
        }


@dataclass
class VerificationReport:
    mode: str
    dim: int | None
    index: int | None
    passed: bool
    leaf_reports: list[NodeReport]

    def failing_checks(self) -> list[tuple[str, str]]:
        return [
            (rep.path, name)
            for rep in self.leaf_reports
            for name in rep.failing()
        ]

    def as_obj(self) -> dict:
        return {
            "mode": self.mode,
            "dim": self.dim,
            "index": self.index,
            "passed": self.passed,
            "leaf_reports": [r.as_obj() for r in self.leaf_reports],
        }


# The most bits that the b values of one leaf may have in all before its
# degree arithmetic (lcm(b), the log degree and its reduced fraction) runs;
# above it, degree-zero fails with a resource budget detail. That arithmetic
# is at most quadratic in the sum: at the budget it took at most 0.22 s for b
# values of 4 to 2^17 bits each (Python 3.11, 2 vCPUs), where without a
# budget a 1.9 MB file of 400 distinct 4,000-digit b values took two
# minutes. 2^17 bits admits every family leaf whose text fits the input
# budget of `cyindex verify` (build_index_prime(16001) has 56,014),
# build_sylvester(k) for k <= 16 (88,639 at k = 16) and 9 b values at the
# default int-to-str digit limit of 4,300 digits.
COEFF_BITS_BUDGET = 2**17


def _check(rep: NodeReport, name: str, ok: bool, detail: str = "") -> bool:
    rep.checks.append((name, bool(ok), detail))
    return bool(ok)


def _verify_wps_leaf(leaf: LogLeaf, rep: NodeReport) -> tuple[int | None, int | None]:
    """The checks of one explicit leaf, each fact computed once, so the cost
    is linear in the leaf's size: its weights plus the (variable, exponent)
    pairs of its equations."""
    space = leaf.space
    w = space.weights
    space_text = str(space)
    _check(rep, "weights-valid", len(w) >= 2 and min(w) >= 1, space_text)

    nv = len(w)
    shape_ok = bool(leaf.entries)
    shape_detail = ""
    for coeff, eq in leaf.entries:
        if not eq.terms:
            shape_ok, shape_detail = False, "zero divisor equation"
            break
        if eq.nvars != nv:
            shape_ok, shape_detail = False, f"equation in {_bounded_int(eq.nvars)} variables on {space_text}"
            break
        if not eq.terms[0][1]:  # the constant monomial sorts last, so it comes first only alone
            shape_ok, shape_detail = False, "constant equation cuts out no divisor"
            break
    if not leaf.entries:
        shape_detail = "no divisor entries"
    _check(rep, "entry-shape", shape_ok, shape_detail)

    # StdCoeff fixes the value at (b - 1)/b; only b itself can be wrong
    std_ok = all(isinstance(coeff.b, int) and coeff.b >= 2 for coeff, _ in leaf.entries)
    _check(rep, "standard-coefficients", std_ok,
           _listed([coeff for coeff, _ in leaf.entries], str, " "))

    qh_ok, qh_detail = shape_ok, "not evaluated (entry shape invalid)"
    degs: list[int] = []
    if shape_ok:
        for i, (_, eq) in enumerate(leaf.entries):
            try:
                degs.append(weighted_degree(eq, space))
            except NotQuasiHomogeneous as err:
                qh_ok, qh_detail = False, f"entry {i}: {err}"
                break
        else:
            qh_detail = f"degrees [{_listed(degs, _bounded_int, ', ')}]"
    _check(rep, "quasi-homogeneous", qh_ok, qh_detail)

    _check(rep, "entries-distinct", _distinct_up_to_scaling([eq for _, eq in leaf.entries]))

    wf = is_well_formed(space)
    _check(rep, "well-formed", wf, space_text)

    deg_ok = False
    deg_detail = ""
    if shape_ok and qh_ok:
        # lcm(b) has at most as many bits as the b values together, and each
        # step below costs at most the product of two such sizes
        bits = sum([coeff.b.bit_length() for coeff, _ in leaf.entries])
        if bits > COEFF_BITS_BUDGET:
            deg_detail = f"resource budget: the b values have {bits} bits in all, above {COEFF_BITS_BUDGET}"
        else:
            # log_degree from the degrees above; scale is lcm(b), set whenever deg_ok is
            num, scale = _scaled_log_degree(space, leaf.entries, degs)
            deg_ok = num == 0
            deg_detail = f"log degree {_bounded_fraction(Fraction(num, scale))}"
    _check(rep, "degree-zero", deg_ok, deg_detail)

    # pair_index: on a well-formed space of degree zero, the lcm of the b values
    index = scale if wf and deg_ok else None
    _check(rep, "index-computed", index is not None,
           _bounded_int(index) if index is not None else "preconditions failed")

    klt_ok = False
    try:
        rep.klt = is_klt_leaf(leaf)
        klt_ok = rep.klt.passed
        klt_detail = rep.klt.strategy
    except ValueError as err:
        klt_detail = str(err)
    _check(rep, "klt", klt_ok, klt_detail)

    return (space.dim if len(w) >= 2 else None,
            index if rep.passed else None)


# A leaf of at most this many monomials in all takes its verdict from
# _leaf_verdict. The leaves that repeat are small: in theorem_sweep (seed 1,
# 16 passes) 2,393 of 2,500 leaf verifications cover 52 distinct leaves of at
# most 64 monomials, and such a leaf's checks cost about 50 us against about
# 5 us to hash it. Bigger leaves are rarely repeated, and holding them raised
# verify_corpus's peak RSS from 28.1 to 33.8 MB in a sizing run.
_MEMO_MAX_MONOMIALS = 64

# The verdicts held. 128 is more than twice the 52 small leaves of that
# sweep, and with the gate bounds the memo to 128 x 64 monomials.
_MEMO_LEAVES = 128


def _memo_holds(leaf: LogLeaf) -> bool:
    """Whether the leaf memos, of the verdict here and of the text in codec,
    hold a leaf: one of at most _MEMO_MAX_MONOMIALS monomials in all,
    counted as the entry-shape check reads them, that hashes. Only a library
    caller can build a leaf that does not hash."""
    if sum([len(eq.terms) for _, eq in leaf.entries]) > _MEMO_MAX_MONOMIALS:
        return False
    try:
        hash(leaf)  # worked out once per leaf, so the memo's own lookup reuses it
    except TypeError:
        return False
    return True


@lru_cache(maxsize=_MEMO_LEAVES)
def _leaf_verdict(leaf: LogLeaf) -> tuple[tuple[tuple[str, bool, str], ...], KltReport | None,
                                          tuple[int | None, int | None]]:
    """The checks, klt report and (dim, index) that _verify_wps_leaf gives a
    leaf, computed once per equal leaf and process.

    Sound because the key is everything _verify_wps_leaf reads: the weights,
    each entry's b and terms, and the strategy, which make up LogLeaf's
    equality and hash. It reads no other state, so equal leaves get
    identical checks. The loader and the public constructors build only
    exact ints, Fractions and strs, whose equality is their value. The
    checks come back as a tuple, so a caller copies them into its own
    report, and the KltReport is frozen, so it is shared. A test that
    patches a function the checks call clears the memo first
    (`_leaf_verdict.cache_clear()`)."""
    rep = NodeReport("", "wps_leaf")
    result = _verify_wps_leaf(leaf, rep)
    return tuple(rep.checks), rep.klt, result


def _verify_node(cert: Certificate, path: str,
                 reports: list[NodeReport]) -> tuple[int | None, int | None]:
    match cert:
        case WpsLeaf(leaf):
            rep = NodeReport(path, "wps_leaf")
            reports.append(rep)
            if _memo_holds(leaf):
                checks, rep.klt, result = _leaf_verdict(leaf)
                rep.checks = list(checks)
                return result
            return _verify_wps_leaf(leaf, rep)  # a leaf the memo does not hold, checked afresh
        case EllipticLeaf(dim):
            rep = NodeReport(path, "elliptic_leaf")
            reports.append(rep)
            ok = _check(rep, "elliptic-dim", type(dim) is int and dim >= 1,  # exact int, so no bool
                        _bounded_int(dim) if type(dim) is int else str(dim))
            return (dim, 1) if ok else (None, None)
        case Product(factors):
            rep = NodeReport(path, "product")
            reports.append(rep)
            _check(rep, "product-arity", len(factors) >= 2, f"{len(factors)} factors")
            dims: list[int | None] = []
            idxs: list[int | None] = []
            for i, f in enumerate(factors):
                d, ix = _verify_node(f, f"{path}.factors[{i}]", reports)
                dims.append(d)
                idxs.append(ix)
            if rep.passed and all(d is not None for d in dims) and all(ix is not None for ix in idxs):
                return sum(dims), lcm(*idxs)
            return (None, None)
    raise TypeError(f"not a certificate node: {cert!r}")


def verify_certificate(cert: Certificate, mode: str = "strict") -> VerificationReport:
    """Recheck every claim a certificate makes, trusting nothing.

    For each explicit leaf: weights, entry shapes, standard coefficients,
    quasi-homogeneity, pairwise-distinct entries, well-formedness, exact
    degree zero, the index, and the full klt report. For the tree: product
    arity, dimension sums and index lcms. Check failures are recorded in
    the report, never thrown. Every leaf is explicit, so "strict" and
    "trusting" run the same checks; the mode is validated and echoed in the
    report.
    """
    if mode not in ("strict", "trusting"):
        raise ValueError(f"mode must be 'strict' or 'trusting', got {mode!r}")
    reports: list[NodeReport] = []
    dim, index = _verify_node(cert, "$", reports)
    passed = all(r.passed for r in reports) and dim is not None and index is not None
    return VerificationReport(mode, dim, index, passed, reports)
