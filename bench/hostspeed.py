"""Host speed, sampled beside each timed op, to scale its wall time.

The benchmark runs on a few vCPUs of a shared host whose speed flips
between modes some 1.8x apart, for seconds to minutes at a time (see
bench/README.md, Noise). A fixed piece of pure-Python work that never
touches cyindex, the reference kernel, is timed right after each op, before
the op's check, so it is timed before and after every op with only the
previous op's check between. The op's time is scaled by REF_KERNEL_S over
the mean of the two: the time the op would have taken on a host where the
kernel takes REF_KERNEL_S. A change to the program does not move the
kernel, so it moves the scaled time as it moves the wall time.

The host's modes speed up different code by different amounts: object
allocation and JSON gain the most, tight loops over small integers less.
So the kernel does some of each, as the program does: it builds a tree of
small objects with Fraction weights, round-trips it through JSON and walks
it, then runs gcd and weighted-sum loops over slices of an integer tuple
(the shape of the well-formedness and degree checks). It runs with the
garbage collector off, so the program's heap does not enter its time.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from math import gcd
from time import perf_counter

# Near the kernel's time in the common, slower mode of the 2-vCPU host the
# benchmark was tuned on (0.87 ms); scaled figures read as milliseconds on a
# host where the kernel takes 1 ms.
REF_KERNEL_S = 0.001
_DEPTH = 4  # 2**5 - 1 nodes
_WEIGHTS = tuple(range(3, 124, 2))


class _Node:
    __slots__ = ("weight", "kids")

    def __init__(self, weight, kids):
        self.weight, self.kids = weight, kids


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node((Fraction(i, 7), 3 * i + 1), ())
    return _Node((Fraction(depth, i + 2), depth), (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1)))


def _encode(node: _Node) -> dict:
    return {"w": [str(node.weight[0]), node.weight[1]], "k": [_encode(k) for k in node.kids]}


def _walk(obj: dict) -> Fraction:
    total, todo = Fraction(0), [obj]
    while todo:
        x = todo.pop()
        total += Fraction(x["w"][0]) * x["w"][1]
        todo.extend(x["k"])
    return total


def _loops(weights: tuple[int, ...]) -> int:
    total = 0
    for i in range(len(weights)):
        rest = weights[:i] + weights[i + 1:]
        g = 0
        for a in rest:
            g = gcd(g, a)
        total += g + sum(a * e for a, e in zip(rest, reversed(rest)))
    return total


def _kernel() -> tuple[Fraction, int]:
    return _walk(json.loads(json.dumps(_encode(_build(_DEPTH, 1))))), _loops(_WEIGHTS)


_EXPECT = _kernel()


def kernel_s() -> float:
    """Wall time of the reference kernel, run twice back to back: the
    first run warms the caches that the work before it left cold, and only
    the second is timed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = perf_counter()
        value = _kernel()
        dt = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if value != _EXPECT:
        raise RuntimeError("reference kernel gave a different value")
    return dt


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time at the reference speed, given the kernel's
    time right before and right after it."""
    return seconds * REF_KERNEL_S / ((before + after) / 2)
