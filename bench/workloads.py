"""The three workloads: their seeded plans, set-up, timed ops and checks.

A plan is a list of passes over the same slots. A slot is one kind of op
of one cost class (say "realize, verify a pair with n in [120, 130)"); each
pass draws a fresh input for every slot from the seed, so inputs seldom
repeat across passes and a cache keyed on inputs cannot turn later passes
into replays, while every slot is still measured once per pass.

Every op runs single-threaded in this process, one after another (a closed
loop with one client). `execute` is the timed call into the program;
`check` compares its result with the known answer from `oracle` or from
the parameters the input was built with, and returns the bytes that go into
the output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from pathlib import Path

import oracle


@dataclass
class Op:
    slot: str
    kind: str
    params: tuple
    expect: object = None
    mode: str = ""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class _Draws:
    """Stratified draws for the slots of a plan.

    Over the passes, each slot gets one point in each of P equal parts of
    [0, 1): pass p takes the part at the bit-reversal of p, counted from the
    top, so the passes run first cover each class evenly (both halves after
    two passes, all quarters after four, ...) and a run that time cuts
    short still sees the whole class. Pass 0 takes the top part, so the
    largest input of each class runs in every run. The seed sets where in
    its part each point falls. A slot's inputs then cover its cost class
    evenly whatever the seed and however many passes run, so the seed moves
    the figures little.
    """

    def __init__(self, rng: random.Random, passes: int):
        bits = max(passes - 1, 1).bit_length()
        bitrev = sorted(range(passes), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
        self.order = [passes - 1 - part for part in bitrev]
        self.rng, self.passes, self.points, self.p = rng, passes, {}, 0

    def __call__(self, key) -> float:
        if key not in self.points:
            self.points[key] = [(part + self.rng.random()) / self.passes for part in self.order]
        return self.points[key][self.p]

    def pick(self, key, items):
        return items[int(self(key) * len(items))]

    def between(self, key, lo: int, hi: int) -> int:
        return lo + int(self(key) * (hi - lo))


@lru_cache(maxsize=None)
def _by_phi(n: int) -> tuple[int, ...]:
    return tuple(sorted(oracle.phi_at_most(2 * n), key=lambda m: (oracle.phi(m), m)))


def _phi_slice(n: int, k: int, parts: int) -> tuple[int, ...]:
    """The k-th of `parts` equal slices of {m : phi(m) <= 2n} ordered by
    phi(m). phi(m) sets the padding depth, and so the cost of realize(n, m)."""
    members = _by_phi(n)
    lo = k * len(members) // parts
    return members[lo:max((k + 1) * len(members) // parts, lo + 1)]


def _walk_equal(a, b) -> bool:
    """Structural equality of two certificate trees, without recursion
    (the trees are deeper than the default recursion limit allows for
    dataclass equality)."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        fx, fy = getattr(x, "factors", None), getattr(y, "factors", None)
        if fx is None:
            if x != y:
                return False
        elif len(fx) != len(fy):
            return False
        else:
            todo.extend(zip(fx, fy))
    return True


def _failing(report_obj: dict) -> set[str]:
    return {
        check["name"]
        for rep in report_obj["leaf_reports"]
        for check in rep["checks"]
        if not check["passed"]
    }


# ---------------------------------------------------------------------------
# theorem_sweep
# ---------------------------------------------------------------------------


class TheoremSweep:
    """realize -> dumps -> loads -> verify(trusting) over seeded (n, m) pairs.

    Chosen because realize, numtheory and the certificate walk do most of the
    work, and leaves repeat heavily across pairs, so flattening the padding
    chain and memoising leaf verification show here.
    """

    name = "theorem_sweep"
    # Narrow n strata keep each slot's cost class tight. The top stays well
    # below the depth where the padded chain hits the default recursion
    # limit (dumps from n ~ 500, realize from n ~ 510), also when traced. It
    # appears twice so that the slowest cost class holds enough samples for
    # op_tail_ms to fall inside it.
    STRATA = ((5, 8), (14, 17), (28, 32), (50, 55), (85, 93), (120, 130),
              (150, 162), (180, 196), (205, 222), (205, 222))
    PAIRS_PER_N = 8
    PASSES = 16
    # realize(n, m) with n past the recursion limit: the known answer is a
    # certificate of dimension n - 1 and index m; today it crashes
    PROBE_N = (520, 600)

    def plan(self, seed: int, tiny: bool) -> tuple[list[list[Op]], list[Op]]:
        rng = _rng(self.name, seed)
        strata = self.STRATA[:3] if tiny else self.STRATA
        pairs = 2 if tiny else self.PAIRS_PER_N
        npasses = 2 if tiny else self.PASSES
        draw = _Draws(rng, npasses)
        passes = []
        for draw.p in range(npasses):
            ops = []
            for s, (lo, hi) in enumerate(strata):
                n = draw.between(("n", s), lo, hi)
                ops.append(Op(f"n{s}.enumerate", "enumerate", (n,), oracle.phi_at_most(2 * n)))
                for k in range(pairs):
                    m = draw.pick(("m", s, k), _phi_slice(n, k, pairs))
                    ops.append(Op(f"n{s}.pair{k}", "pair", (n, m)))
            rng.shuffle(ops)
            passes.append(ops)
        probes = []
        for _ in range(2):
            n = rng.randrange(*self.PROBE_N)
            probes.append(Op("probe", "pair", (n, rng.choice((1, 2, 3, 4, 6)))))
        return passes, probes

    def setup(self, cy, passes, workdir: Path):
        return None

    def execute(self, cy, ctx, op: Op):
        if op.kind == "enumerate":
            return cy.indices_with_phi_at_most(2 * op.params[0])
        n, m = op.params
        cert = cy.realize(n, m)
        text = cy.certificate_dumps(cert)
        back = cy.certificate_loads(text)
        return cert, text, back, cy.verify_certificate(back, "trusting")

    def check(self, cy, ctx, op: Op, result) -> tuple[bool, bytes]:
        if op.kind == "enumerate":
            return result == op.expect, " ".join(map(str, result)).encode()
        n, m = op.params
        cert, text, back, report = result
        ok = (_walk_equal(cert, back) and report.passed
              and report.dim == n - 1 and report.index == m)
        out = text + "\n" + json.dumps(report.as_obj(), sort_keys=True)
        return ok, out.encode()


# ---------------------------------------------------------------------------
# verify_corpus
# ---------------------------------------------------------------------------

_LYING_CITATION = {"v": 1, "node": "cited_leaf", "dim": 1, "index": 5, "cite": "trust me"}


def _index_prime_dim(m: int) -> int:
    return (m + 3) // 4 if m % 4 == 1 else (m + 1) // 4


# Degree-zero coefficient patterns on P^2, as
# (b of the cubic or None, b of the conic or None, b of each line).
_PLANE_PATTERNS = (
    (2, 4, ()),
    (2, None, (2, 2, 2)),
    (2, None, (4, 4)),
    (2, None, (3, 6)),
    (3, None, (2, 2)),
    (3, 2, ()),
    (4, None, (4,)),
    (6, None, (2,)),
    (None, 2, (2, 2, 2, 2)),
    (None, 5, (2, 10)),
    (None, 3, (2, 2, 3)),
    (None, 4, (3, 6)),
    (None, None, (2, 3, 7, 42)),
    (None, None, (3, 4, 4, 6)),
    (None, None, (2, 2, 3, 3, 3)),
    (None, None, (2, 2, 2, 2, 2, 2)),
)

# plane slots: with the cubic, with the conic only, lines only, and a
# configuration made to fail (three concurrent lines, or two lines meeting
# on the cubic)
_PLANE_SLOTS = (
    [p for p in _PLANE_PATTERNS if p[0] is not None],
    [p for p in _PLANE_PATTERNS if p[0] is None and p[1] is not None],
    [p for p in _PLANE_PATTERNS if p[0] is None and p[1] is None],
    [p for p in _PLANE_PATTERNS if len(p[2]) >= 3 or (p[0] is not None and len(p[2]) == 2)],
)

# Single-field mutations of a family_A / family_B leaf (m >= 13) and the
# check that must name the failure.
_TAMPERS = (
    ("weight-bump", "quasi-homogeneous"),
    ("b-change", "degree-zero"),
    ("entry-duplicated", "entries-distinct"),
    ("strategy-swap", "klt"),
    ("constant-equation", "entry-shape"),
    ("single-factor-product", "product-arity"),
    ("unformed-weights", "well-formed"),
)

# Malformed files: each must be rejected as a parse error (exit 65).
_MALFORMED = ("truncated", "missing-weights", "version-2", "zero-denominator",
              "negative-exponent", "unknown-node", "short-exponents", "b-one")


class VerifyCorpus:
    """`cyindex verify FILE --mode M --format json` over a seeded corpus.

    Chosen because the codec, wpspairs, sncklt and the CLI do the work and
    realize does none. Inputs are distinct, so leaf memoisation should
    predict no change here; the large family leaves and the hyperplane
    subsets make the latency tail.
    """

    name = "verify_corpus"
    PASSES = 8

    def plan(self, seed: int, tiny: bool) -> tuple[list[list[Op]], list[Op]]:
        rng = _rng(self.name, seed)
        npasses = 2 if tiny else self.PASSES
        draw = _Draws(rng, npasses)
        passes = []
        for p in range(npasses):
            draw.p = p
            ops: list[Op] = []
            mode = ("strict", "trusting")
            for k, (lo, hi) in enumerate(((20, 24), (20, 24), (60, 66), (60, 66), (150, 162))):
                n = draw.between(("realized-n", k), lo, hi)
                m = draw.pick(("realized-m", k), _phi_slice(n, k % 2, 2))
                ops.append(Op(f"realized{k}", "realized", (n, m), (n - 1, m), mode[k % 2]))
            big = ((17, 41),) if tiny else ((17, 41), (361, 401), (901, 1001), (1901, 2001), (1901, 2001))
            for k, (lo, hi) in enumerate(big):
                m = lo + 2 * draw.between(("index_prime", k), 0, (hi - lo) // 2)
                ops.append(Op(f"index_prime{k}", "index_prime", (m,), (_index_prime_dim(m), m),
                              mode[k % 2]))
            for k, (bases, exps) in enumerate((((2,), range(10, 14)), ((3, 5, 7), range(4, 8)),
                                               ((41, 43, 47), range(2, 4)))):
                b, e = draw.pick(("prime_power", k), [(b, e) for b in bases for e in exps])
                ops.append(Op(f"prime_power{k}", "prime_power", (b, e), (b + e - 3, b**e), mode[k % 2]))
            for k, (nv, count) in enumerate(((3, 6), (4, 8)) if tiny else ((3, 6), (4, 8), (5, 10), (6, 12))):
                ts = tuple(rng.sample(range(10, 40), count))
                ops.append(Op(f"vandermonde{k}", "vandermonde", (nv, ts), (nv - 1, 2), mode[k % 2]))
            for k, patterns in enumerate(_PLANE_SLOTS):
                pattern = draw.pick(("plane", k), patterns)
                ops.append(self._plane_op(rng, k, pattern, mode[k % 2], snc_wanted=k != 3))
            for k in range(3):
                kind, check = draw.pick(("tamper", k), _TAMPERS)
                m = 41 + 2 * draw.between(("tamper-m", k), 0, 10)
                ops.append(Op(f"tamper{k}", "tamper", (kind, m), check, mode[k % 2]))
            for k in range(3):
                ops.append(Op(f"malformed{k}", "malformed",
                              (draw.pick(("malformed", k), _MALFORMED), rng.randrange(5, 60, 2)),
                              None, mode[k % 2]))
            depth = draw.between("depth", 200, 221)
            leaf_index = rng.choice((2, 3, 4, 6))
            ops.append(Op("nested", "nested", (depth, leaf_index), (depth + 1, leaf_index), mode[p % 2]))
            rng.shuffle(ops)
            passes.append(ops)
        probes = [
            Op("probe", "nested", (3000, 2), (3001, 2), "trusting"),
            Op("probe", "lying_citation", (), None, "trusting"),
        ]
        return passes, probes

    def _plane_op(self, rng, k, pattern, mode, snc_wanted: bool) -> Op:
        cubic, conic, line_bs = pattern
        while True:
            lines = [(rng.randrange(0, 9), rng.randrange(0, 30)) for _ in line_bs]
            if not snc_wanted:
                if len(lines) >= 3:
                    # lines y = jx + tz with one t all pass through (0 : t : 1)
                    t = lines[0][1]
                    lines[:3] = [(j, t) for j in rng.sample(range(9), 3)]
                elif cubic is not None and len(lines) == 2:
                    # y = 0 and y = x + z meet at (1 : 0 : -1) on the cubic
                    lines = [(0, 0), (1, 1)]
                else:
                    continue
            lines = tuple(lines)
            if len(set(lines)) != len(lines):
                continue
            if oracle.plane_is_snc(lines, conic is not None, cubic is not None) == snc_wanted:
                bs = [b for b in (cubic, conic) if b is not None] + list(line_bs)
                return Op(f"plane{k}", "plane", (cubic, conic, line_bs, lines),
                          (2, lcm(*bs), snc_wanted), mode)

    # -- set-up: build every file with the program's builders and serializer --

    def setup(self, cy, passes, workdir: Path):
        import cyindex.cli  # noqa: F401  (the ops call cyindex.cli.main)

        workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for p, ops in enumerate(passes):
            for i, op in enumerate(ops):
                text, cited = self._build(cy, op)
                path = workdir / f"{p}-{i}.json"
                path.write_text(text, encoding="utf-8")
                files[id(op)] = (str(path), cited)
        return files

    def _build(self, cy, op: Op) -> tuple[str, bool]:
        kind, params = op.kind, op.params
        if kind == "realized":
            text = cy.certificate_dumps(cy.realize(*params))
            return text, '"node":"cited_leaf"' in text
        if kind == "index_prime":
            return cy.certificate_dumps(cy.WpsLeaf(cy.build_index_prime(*params))), False
        if kind == "prime_power":
            return cy.certificate_dumps(cy.WpsLeaf(cy.build_prime_power(*params))), False
        if kind == "vandermonde":
            nv, ts = params
            eqs = [cy.SparsePoly.linear_form([t**i for i in range(nv)]) for t in ts]
            leaf = cy.LogLeaf(cy.Wps((1,) * nv), tuple((cy.StdCoeff(2), eq) for eq in eqs),
                              "hyperplane_arrangement")
            return cy.certificate_dumps(cy.WpsLeaf(leaf)), False
        if kind == "plane":
            return cy.certificate_dumps(cy.WpsLeaf(_plane_leaf(cy, *params))), False
        if kind == "nested":
            depth, index = params
            cert = cy.base_leaf(1, index)
            for _ in range(depth):
                cert = cy.Product((cert, cy.EllipticLeaf(1)))
            if depth < 400:
                return cy.certificate_dumps(cert), False
            # too deep for the program's serializer; written the same way
            text = cy.certificate_dumps(cy.base_leaf(1, index))
            head = '{"factors":['
            tail = ',{"dim":1,"node":"elliptic_leaf","v":1}],"node":"product","v":1}'
            return head * depth + text + tail * depth, False
        if kind == "lying_citation":
            return json.dumps(_LYING_CITATION, sort_keys=True), True
        if kind == "tamper":
            return _tampered(cy, *params), False
        if kind == "malformed":
            return _malformed(cy, *params), False
        raise ValueError(kind)

    # -- ops ---------------------------------------------------------------

    def execute(self, cy, ctx, op: Op):
        path, _ = ctx[id(op)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cy.cli.main(["verify", path, "--mode", op.mode, "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, cy, ctx, op: Op, result) -> tuple[bool, bytes]:
        code, out, err = result
        digest = f"{code}\n{out}\n{err}".encode()
        kind = op.kind
        if kind == "malformed":
            return code == 65 and err.startswith("parse error"), digest
        if kind == "lying_citation":
            # 5 is not an index in dimension 1 (I(1) = {1, 2, 3, 4, 6})
            return code == 1, digest
        if kind == "nested" and code in (1, 2, 3, 64, 65) and op.params[0] >= 400:
            return True, digest  # a documented refusal of a very deep file
        if code not in (0, 1):
            return False, digest
        report = json.loads(out)
        if kind == "tamper":
            return code == 1 and not report["passed"] and op.expect in _failing(report), digest
        dim, index = op.expect[:2]
        snc = op.expect[2] if kind == "plane" else True
        _, cited = ctx[id(op)]
        if not snc:
            return code == 1 and "klt" in _failing(report), digest
        if op.mode == "strict" and cited:
            return code == 1 and _failing(report) == {"cited-leaf-strict"}, digest
        return (code == 0 and report["passed"] and report["dim"] == dim
                and report["index"] == index), digest


def _plane_leaf(cy, cubic, conic, line_bs, lines):
    P = cy.SparsePoly
    entries = []
    if cubic is not None:
        fermat = P.from_terms(3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))])
        entries.append((cy.StdCoeff(cubic), fermat))
    if conic is not None:
        entries.append((cy.StdCoeff(conic), P.from_terms(3, [(1, (1, 0, 1)), (-1, (0, 2, 0))])))
    for b, (j, t) in zip(line_bs, lines):
        entries.append((cy.StdCoeff(b), P.linear_form((-j, 1, -t))))
    return cy.LogLeaf(cy.Wps((1, 1, 1)), tuple(entries), "plane_arrangement")


def _tampered(cy, kind: str, m: int) -> str:
    if kind == "unformed-weights":
        obj = json.loads(cy.certificate_dumps(cy.base_leaf(1, 2)))
        obj["weights"] = [2, 2]
        return json.dumps(obj, sort_keys=True)
    obj = json.loads(cy.certificate_dumps(cy.WpsLeaf(cy.build_index_prime(m))))
    if kind == "weight-bump":
        obj["weights"][0] += 1
    elif kind == "b-change":
        obj["entries"][0]["b"] += 2
    elif kind == "entry-duplicated":
        obj["entries"][1]["eq"] = obj["entries"][0]["eq"]
    elif kind == "strategy-swap":
        obj["strategy"] = "family_B" if obj["strategy"] == "family_A" else "family_A"
    elif kind == "constant-equation":
        obj["entries"][0]["eq"] = [{"c": [1, 1], "e": [0] * len(obj["weights"])}]
    elif kind == "single-factor-product":
        obj = {"v": 1, "node": "product", "factors": [obj]}
    else:
        raise ValueError(kind)
    return json.dumps(obj, sort_keys=True)


def _malformed(cy, kind: str, m: int) -> str:
    text = cy.certificate_dumps(cy.WpsLeaf(cy.build_index_prime(m)))
    if kind == "truncated":
        return text[: len(text) // 2]
    obj = json.loads(text)
    if kind == "missing-weights":
        del obj["weights"]
    elif kind == "version-2":
        obj["v"] = 2
    elif kind == "zero-denominator":
        obj["entries"][0]["eq"][0]["c"] = [1, 0]
    elif kind == "negative-exponent":
        obj["entries"][0]["eq"][0]["e"][0] = -1
    elif kind == "unknown-node":
        obj["node"] = "mystery_leaf"
    elif kind == "short-exponents":
        obj["entries"][0]["eq"][0]["e"].pop()
    elif kind == "b-one":
        obj["entries"][0]["b"] = 1
    else:
        raise ValueError(kind)
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# plane_search
# ---------------------------------------------------------------------------


def _plane_classes():
    """Cost classes of search queries, keyed by slot prefix.

    The cost of a miss is fixed by the number of candidate multisets, which
    depends only on the number of divisors of the index and on K; every
    member of a miss class is a miss by the oracle, so it enumerates the
    whole space.
    """
    by_divisors: dict[int, list[int]] = {}
    for idx in range(2, 400):
        by_divisors.setdefault(len(oracle.divisors(idx)), []).append(idx)

    def misses(dim, ndiv, k):
        return [(dim, i, k) for i in by_divisors[ndiv] if oracle.first_plane_multiset(dim, i, k) is None]

    hits = [(d, i, k) for d in (1, 2) for i in range(2, 60) for k in (4, 5)
            if oracle.first_plane_multiset(d, i, k) is not None]
    quick = [(d, i, k) for d in (1, 2) for i in range(5, 30) for k in (4, 5)
             if len(oracle.divisors(i)) <= 4 and oracle.first_plane_multiset(d, i, k) is None]
    # Per-pass counts put the median inside the homogeneous P^1 miss class
    # and op_tail_ms inside the P^2 miss class, away from class boundaries.
    return {
        "miss_d2_12div_k4": (4, misses(2, 12, 4)),
        "miss_d1_12div_k5": (6, misses(1, 12, 5)),
        "hit": (5, hits),
        "quick_miss": (2, quick),
    }


class PlaneSearch:
    """search_plane_pair(dim, index, K) queries, each hit re-verified.

    Chosen because search enumeration dominates and the verifier is almost
    idle; the only workload where search pruning shows.
    """

    name = "plane_search"
    PASSES = 16

    def plan(self, seed: int, tiny: bool) -> tuple[list[list[Op]], list[Op]]:
        rng = _rng(self.name, seed)
        classes = _plane_classes()
        if tiny:
            classes = {"hit": (3, classes["hit"][1]), "quick_miss": (2, classes["quick_miss"][1])}
        npasses = 2 if tiny else self.PASSES
        draw = _Draws(rng, npasses)
        passes = []
        for draw.p in range(npasses):
            ops = []
            for cls, (count, members) in classes.items():
                for k in range(count):
                    # slots of one class draw from disjoint interleaved sublists
                    q = draw.pick((cls, k), members[k::count])
                    ops.append(Op(f"{cls}{k}", "search", q, oracle.first_plane_multiset(*q)))
            rng.shuffle(ops)
            passes.append(ops)
        return passes, []

    def setup(self, cy, passes, workdir: Path):
        return None

    def execute(self, cy, ctx, op: Op):
        leaf = cy.search_plane_pair(*op.params)
        if leaf is None:
            return None, None
        return leaf, cy.verify_certificate(cy.WpsLeaf(leaf), "strict")

    def check(self, cy, ctx, op: Op, result) -> tuple[bool, bytes]:
        leaf, report = result
        if leaf is None:
            return op.expect is None, b"none"
        dim, index, _ = op.params
        # degree of each entry from its first monomial's exponents
        combo = tuple((c.b, sum(eq.monomials[0][1])) for c, eq in leaf.entries)
        ok = (combo == op.expect and report.passed
              and report.dim == dim and report.index == index)
        return ok, cy.certificate_dumps(cy.WpsLeaf(leaf)).encode()


WORKLOADS = {w.name: w for w in (TheoremSweep(), VerifyCorpus(), PlaneSearch())}
