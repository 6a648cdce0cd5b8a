"""The independent verifier of index certificates, and the certificate tree.

A certificate is a tree witnessing that an integer m is the index of a klt
Calabi-Yau pair of a given dimension with standard coefficients:

  wps_leaf        an explicit pair on a weighted projective space
  elliptic_leaf   an abelian factor of dimension k (index 1, empty boundary)
  product         combines factors; dimensions add, indices combine by lcm

The verifier recomputes everything from raw data: well-formedness,
quasi-homogeneity, exact degree zero, standard coefficients, the index, the
klt report, and the tree arithmetic. Every leaf is explicit, so nothing
is taken on trust and there is one set of checks.

A wps_leaf node is a LogLeaf. A sweep over (n, m) meets the same few core
leaves again and again, and the builder and the reader hand back the same
leaf object for each. A leaf keeps what its first verification found, the
checks, the klt report and (dim, index), in its __dict__, so every later
verification of that object copies them (_verify_node). A report is the
same bytes whether it was worked out or kept, and equal leaves in separate
objects are each checked once.

The degree arithmetic of a leaf is bounded by the bits of its distinct b
values (COEFF_BITS_BUDGET); over the budget, degree-zero fails and names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class EllipticLeaf:
    dim: int


@dataclass(frozen=True)
class Product:
    factors: tuple["Certificate", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


Certificate = LogLeaf | EllipticLeaf | Product


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
            "dim": self.dim,
            "index": self.index,
            "passed": self.passed,
            "leaf_reports": [r.as_obj() for r in self.leaf_reports],
        }


# The most bits that the distinct b values of one leaf may have in all before
# its degree arithmetic (lcm(b), the log degree and its reduced fraction)
# runs; above it, degree-zero fails with a resource budget detail. That
# arithmetic takes one big-integer step per distinct b, each at most
# quadratic in the sum. Near the budget, 9 distinct 14,280-bit b values
# (128,520 bits) repeated over 30,000 entries verify in 0.15 s (Python 3.11,
# 2 vCPUs), where without a budget a 1.9 MB file of 400 distinct 4,000-digit
# b values took two minutes. A family leaf repeats a few b values
# (build_index_prime(16001) charges 14 bits), and build_sylvester(k) passes
# for k <= 16 (88,639 bits of distinct b values at k = 16).
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
        if type(eq) is int:  # x_j in nv variables, j below nv as LogLeaf checks
            continue
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

    # StdCoeff fixes the value at (b - 1)/b, so only b can be wrong; each distinct b is read once
    distinct_b = {coeff.b for coeff, _ in leaf.entries}
    std_ok = all([isinstance(b, int) and b >= 2 for b in distinct_b])
    _check(rep, "standard-coefficients", std_ok,
           _listed(leaf.entries, lambda entry: str(entry[0]), " "))

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

    _check(rep, "entries-distinct", _distinct_up_to_scaling([eq for _, eq in leaf.entries], nv))

    wf = is_well_formed(space)
    _check(rep, "well-formed", wf, space_text)

    deg_ok = False
    deg_detail = ""
    if shape_ok and qh_ok:
        # lcm(b) has at most as many bits as the distinct b values together, and
        # each step below, one per distinct b, costs at most the product of two such sizes
        bits = sum([b.bit_length() for b in distinct_b])
        if bits > COEFF_BITS_BUDGET:
            deg_detail = f"resource budget: the distinct b values have {bits} bits in all, above {COEFF_BITS_BUDGET}"
        else:
            # log_degree from the degrees above; scale is lcm(b), set whenever deg_ok is
            num, scale = _scaled_log_degree(space, leaf.entries, degs)
            deg_ok = num == 0
            deg_detail = f"log degree {_bounded_fraction(num, scale)}"
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


def _verify_node(cert: Certificate, path: str,
                 reports: list[NodeReport]) -> tuple[int | None, int | None]:
    match cert:
        case LogLeaf():
            # The verdict is kept in the leaf's own __dict__: sound because the leaf
            # is frozen and _verify_wps_leaf reads only its fields, which the loader
            # and the public constructors build from tuples, exact ints and strs.
            # Each report copies the kept checks and shares the frozen
            # KltReport. A test that patches what the checks call uses a fresh leaf.
            kept = vars(cert)
            if "_verdict" not in kept:
                rep = NodeReport(path, "wps_leaf")
                result = _verify_wps_leaf(cert, rep)
                kept["_verdict"] = (tuple(rep.checks), rep.klt, result)
            checks, klt, result = kept["_verdict"]
            reports.append(NodeReport(path, "wps_leaf", list(checks), klt))
            return result
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
    the report, never thrown. `mode` selects nothing; it is validated only
    for the benchmark's calls (bench/workloads.py:177 and :548), which
    ROADMAP item 4 drops.
    """
    if mode not in ("strict", "trusting"):
        raise ValueError(f"mode must be 'strict' or 'trusting', got {mode!r}")
    reports: list[NodeReport] = []
    dim, index = _verify_node(cert, "$", reports)
    passed = all(r.passed for r in reports) and dim is not None and index is not None
    return VerificationReport(dim, index, passed, reports)
