"""In-memory spans around the public functions of each cyindex layer.

`Tracer.install()` wraps each traced function and rebinds the wrapper in
every loaded `cyindex.*` module namespace that holds the original, so calls
made from another module and recursive calls (which look the name up in
their own module's globals) are caught too. `uninstall()` puts the
originals back. The package source is never edited.

A span's self time is its duration minus the durations of its traced
children. Layer-boundary spans are kept as records (op id, span id, parent
id, name, start, end); the hottest leaf functions only add to the totals,
and `certificate_dim` is timed only at its outermost call, so the traced
run stays bounded.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# (module, attribute, span name, record spans?)
_TIMED = (
    ("cyindex.numtheory", "indices_with_phi_at_most", "numtheory.enumerate", True),
    ("cyindex.certify", "realize", "realize", True),
    ("cyindex.certify", "certificate_dim", "realize.certificate_dim", True),
    ("cyindex.certify", "build_index_prime", "realize.builders", True),
    ("cyindex.certify", "build_prime_power", "realize.builders", True),
    ("cyindex.certify", "base_leaf", "realize.builders", True),
    ("cyindex.certify", "certificate_dumps", "codec.dumps", True),
    ("cyindex.certify", "certificate_loads", "codec.loads", True),
    ("cyindex.certify", "verify_certificate", "verify", True),
    ("cyindex.certify", "search_plane_pair", "search", True),
    ("cyindex.sncklt", "is_klt_leaf", "sncklt.is_klt_leaf", True),
    ("cyindex.sncklt", "family_snc_check", "sncklt.family", True),
    ("cyindex.sncklt", "hyperplane_arrangement_snc", "sncklt.hyperplane", True),
    ("cyindex.sncklt", "plane_arrangement_snc", "sncklt.plane", True),
    ("cyindex.cli", "main", "cli.main", True),
    ("cyindex.wpspairs", "weighted_degree", "wpspairs.weighted_degree", False),
    ("cyindex.wpspairs", "is_well_formed", "wpspairs.is_well_formed", False),
    ("cyindex.wpspairs", "log_degree", "wpspairs.log_degree", False),
    ("cyindex.wpspairs", "pair_index", "wpspairs.pair_index", False),
    ("cyindex.wpspairs", "SparsePoly.proportional_to", "wpspairs.proportional_to", False),
)
# counted, not timed: their time stays in the caller's self time
_COUNTED = (
    ("cyindex.numtheory", "euler_phi", "numtheory.euler_phi"),
    ("cyindex.numtheory", "factorize", "numtheory.factorize"),
)

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "numtheory.enumerate.calls": "count",
    "numtheory.enumerate.self_s": "s",
    "numtheory.enumerate.sieve_entries": "count",
    "numtheory.euler_phi.calls": "count",
    "numtheory.factorize.calls": "count",
    "realize.calls": "count",
    "realize.self_s": "s",
    "realize.certificate_dim.calls": "count",
    "realize.certificate_dim.self_s": "s",
    "realize.builders.calls": "count",
    "realize.builders.self_s": "s",
    "realize.max_depth": "count",
    "realize.nodes": "count",
    "codec.dumps.self_s": "s",
    "codec.loads.self_s": "s",
    "codec.bytes": "bytes",
    "verify.calls": "count",
    "verify.self_s": "s",
    "verify.wps_leaves": "count",
    "verify.distinct_wps_leaves": "count",
    "verify.leaf_reuse_ratio": "ratio",
    "verify.checks": "count",
    "wpspairs.weighted_degree.calls": "count",
    "wpspairs.weighted_degree.per_entry": "ratio",
    "wpspairs.is_well_formed.calls": "count",
    "wpspairs.is_well_formed.self_s": "s",
    "wpspairs.log_degree.calls": "count",
    "wpspairs.proportional_to.calls": "count",
    "wpspairs.proportional_to.self_s": "s",
    "wpspairs.self_s": "s",
    "sncklt.is_klt_leaf.self_s": "s",
    "sncklt.family.calls": "count",
    "sncklt.family.self_s": "s",
    "sncklt.hyperplane.calls": "count",
    "sncklt.hyperplane.self_s": "s",
    "sncklt.hyperplane.subsets": "count",
    "sncklt.plane.calls": "count",
    "sncklt.plane.self_s": "s",
    "search.calls": "count",
    "search.self_s": "s",
    "search.snc_attempts": "count",
    "search.hits": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.self_coverage": "ratio",
}


def _resolve(modname: str, attr: str):
    owner = importlib.import_module(modname)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans, call counts and layer counters of one traced run."""

    def __init__(self):
        self.op_id = -1
        self.on = False  # spans are taken only while an op runs, not its check
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.distinct_leaves: set = set()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._realize_depth = 0
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _timed(self, name: str, fn, record: bool, enter=None, leave=None, after=None):
        """One wrapper frame per call, so traced recursion stays shallow."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.active[name] -= 1
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    tracer.spans.append((tracer.op_id, sid, parent, name, t0, t1))
                if leave is not None:
                    leave(args, result)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.on:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer-specific counters -----------------------------------------------

    def _certificate_dim(self, fn):
        """Times the outermost call only. While it runs, the certify module
        sees the original function, so the recursive walk adds no frames;
        the walk visits each node once, so its calls are the node count."""
        import cyindex.certify as certify

        tracer = self

        def leave(args, result):
            certify.certificate_dim = wrapper
            t0 = perf_counter()
            tracer.calls["realize.certificate_dim"] += _count_nodes(args[0]) - 1
            if tracer._stack:  # keep the counting out of the caller's self time
                tracer._stack[-1][1] += perf_counter() - t0

        timed = self._timed("realize.certificate_dim", fn, True, leave=leave)

        def wrapper(cert):
            if not tracer.on:
                return fn(cert)
            certify.certificate_dim = fn
            return timed(cert)

        return wrapper

    def _realize(self, fn):
        tracer = self

        def enter(args):
            tracer._realize_depth += 1
            tracer.counts["realize.max_depth"] = max(
                tracer.counts["realize.max_depth"], tracer._realize_depth
            )

        def leave(args, result):
            tracer._realize_depth -= 1
            if tracer._realize_depth == 0 and result is not None:
                tracer.counts["realize.nodes"] += _count_nodes(result)

        return self._timed("realize", fn, True, enter=enter, leave=leave)

    def _hooks(self, name: str):
        """(enter, after) callbacks that derive a layer's counters from the
        arguments and results of its calls."""
        counts, active = self.counts, self.active
        enter = after = None

        if name == "numtheory.enumerate":
            def enter(args):  # the sieve scans 2B^2 entries
                counts["numtheory.enumerate.sieve_entries"] += 2 * args[0] ** 2
        elif name == "codec.dumps":
            def after(args, text):
                counts["codec.bytes"] += len(text)
        elif name == "codec.loads":
            def enter(args):
                counts["codec.bytes"] += len(args[0])
        elif name == "verify":
            def after(args, report):
                counts["verify.checks"] += sum(len(r.checks) for r in report.leaf_reports)
        elif name == "sncklt.is_klt_leaf":
            def enter(args):  # the verifier checks kltness once per wps leaf
                if active["verify"]:
                    counts["verify.wps_leaves"] += 1
                    counts["verify.entries"] += len(args[0].entries)
                    self.distinct_leaves.add(args[0])
        elif name == "sncklt.hyperplane":
            def enter(args):  # every subset of size min(k, nv) is ranked
                vecs = args[0]
                if isinstance(vecs, list) and vecs:
                    counts["sncklt.hyperplane.subsets"] += comb(len(vecs), min(len(vecs), len(vecs[0])))
        elif name == "sncklt.plane":
            def enter(args):
                if active["search"]:
                    counts["search.snc_attempts"] += 1
        elif name == "search":
            def after(args, leaf):
                counts["search.hits"] += leaf is not None
        elif name == "cli.main":
            starts = []  # the caller captures stdout in a StringIO

            def enter(args):
                starts.append(sys.stdout.tell() if hasattr(sys.stdout, "getvalue") else None)

            def after(args, code):
                start = starts.pop()
                if start is not None:
                    counts["cli.stdout_bytes"] += len(sys.stdout.getvalue()[start:].encode())
        elif name == "wpspairs.weighted_degree":
            def enter(args):  # the verifier's own calls, not the klt checkers'
                if active["verify"] and not any(active[k] for k in _SNCKLT):
                    counts["verify.weighted_degree"] += 1
        return enter, after

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module("cyindex.cli")
        wrappers = []
        for modname, attr, name, record in _TIMED:
            owner, leaf = _resolve(modname, attr)
            fn = getattr(owner, leaf)
            if name == "realize":
                wrapped = self._realize(fn)
            elif name == "realize.certificate_dim":
                wrapped = self._certificate_dim(fn)
            else:
                enter, after = self._hooks(name)
                wrapped = self._timed(name, fn, record, enter=enter, after=after)
            wrappers.append((fn, wrapped, owner, leaf))
        for modname, attr, name in _COUNTED:
            owner, leaf = _resolve(modname, attr)
            fn = getattr(owner, leaf)
            wrappers.append((fn, self._counted(name, fn), owner, leaf))
        for fn, wrapped, owner, leaf in wrappers:
            if isinstance(owner, type):
                self._rebind(owner, leaf, fn, wrapped)
                continue
            for modname in sorted(sys.modules):
                mod = sys.modules[modname]
                if (modname == "cyindex" or modname.startswith("cyindex.")) and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, fn, wrapped)

    def _rebind(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- roll-up -----------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """The per-layer metrics; the walls are the summed op times of the
        same ops run traced and untraced."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        wps = counts["verify.wps_leaves"]
        entries = counts["verify.entries"]
        values = {
            "numtheory.enumerate.calls": calls["numtheory.enumerate"],
            "numtheory.enumerate.self_s": self_s["numtheory.enumerate"],
            "numtheory.enumerate.sieve_entries": counts["numtheory.enumerate.sieve_entries"],
            "numtheory.euler_phi.calls": calls["numtheory.euler_phi"],
            "numtheory.factorize.calls": calls["numtheory.factorize"],
            "realize.calls": calls["realize"],
            "realize.self_s": self_s["realize"],
            "realize.certificate_dim.calls": calls["realize.certificate_dim"],
            "realize.certificate_dim.self_s": self_s["realize.certificate_dim"],
            "realize.builders.calls": calls["realize.builders"],
            "realize.builders.self_s": self_s["realize.builders"],
            "realize.max_depth": counts["realize.max_depth"],
            "realize.nodes": counts["realize.nodes"],
            "codec.dumps.self_s": self_s["codec.dumps"],
            "codec.loads.self_s": self_s["codec.loads"],
            "codec.bytes": counts["codec.bytes"],
            "verify.calls": calls["verify"],
            "verify.self_s": self_s["verify"],
            "verify.wps_leaves": wps,
            "verify.distinct_wps_leaves": len(self.distinct_leaves),
            "verify.leaf_reuse_ratio": len(self.distinct_leaves) / wps if wps else 0.0,
            "verify.checks": counts["verify.checks"],
            "wpspairs.weighted_degree.calls": calls["wpspairs.weighted_degree"],
            "wpspairs.weighted_degree.per_entry": counts["verify.weighted_degree"] / entries if entries else 0.0,
            "wpspairs.is_well_formed.calls": calls["wpspairs.is_well_formed"],
            "wpspairs.is_well_formed.self_s": self_s["wpspairs.is_well_formed"],
            "wpspairs.log_degree.calls": calls["wpspairs.log_degree"],
            "wpspairs.proportional_to.calls": calls["wpspairs.proportional_to"],
            "wpspairs.proportional_to.self_s": self_s["wpspairs.proportional_to"],
            "wpspairs.self_s": sum(v for k, v in self_s.items() if k.startswith("wpspairs.")),
            "sncklt.is_klt_leaf.self_s": self_s["sncklt.is_klt_leaf"],
            "sncklt.family.calls": calls["sncklt.family"],
            "sncklt.family.self_s": self_s["sncklt.family"],
            "sncklt.hyperplane.calls": calls["sncklt.hyperplane"],
            "sncklt.hyperplane.self_s": self_s["sncklt.hyperplane"],
            "sncklt.hyperplane.subsets": counts["sncklt.hyperplane.subsets"],
            "sncklt.plane.calls": calls["sncklt.plane"],
            "sncklt.plane.self_s": self_s["sncklt.plane"],
            "search.calls": calls["search"],
            "search.self_s": self_s["search"],
            "search.snc_attempts": counts["search.snc_attempts"],
            "search.hits": counts["search.hits"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.stdout_bytes": counts["cli.stdout_bytes"],
            "trace.overhead_ratio": traced_wall / untraced_wall,
            "trace.self_coverage": sum(self_s.values()) / traced_wall,
        }
        assert list(values) == list(PER_LAYER)
        return values


_SNCKLT = ("sncklt.is_klt_leaf", "sncklt.family", "sncklt.hyperplane", "sncklt.plane")


def _count_nodes(cert) -> int:
    """Nodes of a certificate tree, walked without recursion."""
    count, todo = 0, [cert]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(getattr(node, "factors", ()))
    return count
