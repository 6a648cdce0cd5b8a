"""The schema v1 text codec of certificates: the writer and the reader.

The reader reads the writer's own text without json.loads
(_read_writer_text). A flat product is cut into its pieces by one
compiled pattern, and every piece, or the bare text, is read by one rule
(_read_writer_piece). A leaf text is cut with str operations, and only
the nonzero entries of its dense vectors are read, each found by one
search of a copy of the text in which every nonzero digit is marked
(_scan_leaf); an elliptic text is read by its one number. A node is kept
only if the writer writes exactly that text for it (_read_piece). Each
leaf text of at most 8,192 characters is also held, once per process and
digit limit (_read_leaf_text): at most 128 texts, least recently used
first out, so a text met again hands back the same node.
Every other text goes to the one general path, json.loads and one
field-by-field walk, which raises each error at its absolute JSON path,
built as the walk descends (certificate_loads, logleaf_from_obj).

A wps_leaf node is a LogLeaf. A family leaf's int entry j is written as
the dense vector of x_j with coefficient [1,1], the text of
SparsePoly.variable(nv, j), which the scanner reads back as j.

The writer keeps the text of a leaf of at most 8,192 characters in the
leaf's __dict__, with the digit limit it was written under (_node_text),
so a leaf met again, as the builder and the reader hand them back, is
written once per digit limit. The read-back test of _read_piece keeps no
text on its leaf.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .verify import Certificate, EllipticLeaf, Product
from .wpspairs import (
    KLT_STRATEGIES,
    LogLeaf,
    SparsePoly,
    StdCoeff,
    Wps,
    _ONE,
    exponent_pairs,
)

__all__ = [
    "CertificateParseError",
    "certificate_from_obj",
    "certificate_dumps",
    "certificate_loads",
    "logleaf_from_obj",
]


# ---------------------------------------------------------------------------
# serialization (schema v1)
# ---------------------------------------------------------------------------
# Dense exponent vectors exist only in the text. The writer makes the text in
# one pass from the (variable, exponent) pairs, with the bytes of json.dumps
# with sorted keys and compact separators. The general reader is one walk
# over the object, field by field, that reports the first fault where it is;
# it scans each vector once into pairs and builds each equation with
# SparsePoly.from_pairs.


class CertificateParseError(ValueError):
    """Schema violation, with a JSON-path location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
        self._message = message

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold the location already
        return type(self), (self._message, self.location)


# json.dumps(value, sort_keys=True, separators=(",", ":")), for what the writer does not format itself
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# The text of a leaf is _LEAF_HEAD, its entries joined by ",", _LEAF_STRATEGY,
# its strategy as a JSON string, _LEAF_WEIGHTS, its weights joined by ",",
# and "]}"; that of an elliptic leaf is its dim between _ELLIPTIC_HEAD and
# _ELLIPTIC_TAIL; that of a product is its factors' texts, joined by ",",
# between _PRODUCT_HEAD and _PRODUCT_TAIL.
_LEAF_HEAD = '{"entries":['
_LEAF_STRATEGY = '],"node":"wps_leaf","strategy":'
_LEAF_WEIGHTS = ',"v":1,"weights":['
_ELLIPTIC_HEAD, _ELLIPTIC_TAIL = '{"dim":', ',"node":"elliptic_leaf","v":1}'
_PRODUCT_HEAD = '{"factors":['
_PRODUCT_TAIL = '],"node":"product","v":1}'

# A leaf text of at most this many characters is held by the reader memo,
# and kept on its node by the writer; every part certify._held_part holds
# writes less (build_index_prime(127): 6,057). In theorem_sweep (seed 1, 16
# passes) 2,414 of 2,500 leaf reads cover 57 distinct texts of at most
# 8,192 characters, about 111 KB; a 16 KB gate would hold 253 KB and a
# 64 KB gate 851 KB, and held big leaves cost peak RSS.
_MEMO_MAX_CHARS = 8192

# The leaf texts the reader memo holds: more than twice the 57 of that sweep.
_MEMO_TEXTS = 128


def _leaf_text(leaf: LogLeaf) -> str:
    """The schema v1 text of a leaf, written from its (variable, exponent)
    pairs into one flat list of pieces that is joined once. Keys come in
    sorted order, and every number is written as json.dumps writes an int:
    weights, exponents and Fraction parts are exact ints, and "%d" writes an
    int subclass b by its int value. A dense exponent vector is its nonzero
    exponents, each written with its comma, and slices of one run of "0,"
    between them; the vector's last comma is left out by writing its last
    run of zeros one character short, or by trimming its last exponent. An
    int entry j is written as the one monomial 1 * x_j in len(weights)
    variables: its dense vector is j zeros, 1, then the rest of the zeros."""
    out = [_LEAF_HEAD]
    zeros = ""
    weights = leaf.space.weights
    for coeff, eq in leaf.entries:
        nv = len(weights) if type(eq) is int else eq.nvars  # the weight count on every leaf that verifies
        if len(zeros) != 2 * nv:
            zeros = "0," * nv
        if type(eq) is int:  # zeros[2j + 1:2nv - 1] is "," + "0," * (nv - j - 1) less its last comma
            out.append('{"b":%d,"eq":[{"c":[1,1],"e":[%s1%s]}]},'
                       % (coeff.b, zeros[:2 * eq], zeros[2 * eq + 1:2 * nv - 1]))
            continue
        out.append('{"b":%d,"eq":[' % coeff.b)
        for c, pairs in eq.terms:
            out.append('{"c":[%d,%d],"e":[' % (c.numerator, c.denominator))
            at = 0
            for v, x in pairs:
                out.append(zeros[: 2 * (v - at)])
                out.append("%d," % x)
                at = v + 1
            if at < nv:
                out.append(zeros[: 2 * (nv - at) - 1])
            else:
                out[-1] = out[-1][:-1]
            out.append("]},")
        if eq.terms:
            out[-1] = "]}]},"
        else:
            out.append("]},")
    if leaf.entries:
        out[-1] = out[-1][:-1]
    out += (_LEAF_STRATEGY, _json_text(leaf.klt_strategy), _LEAF_WEIGHTS, ",".join(map(str, weights)), "]}")
    return "".join(out)


def _node_text(cert: Certificate) -> str:
    """The text of a node. A leaf text of at most _MEMO_MAX_CHARS is kept
    in the node's __dict__ with the int-to-str digit limit it was written
    under, and returned again only under that limit."""
    match cert:
        case LogLeaf():
            digits = sys.get_int_max_str_digits()
            kept = vars(cert).get("_text")
            if kept is not None and kept[0] == digits:
                return kept[1]
            text = _leaf_text(cert)
            if len(text) <= _MEMO_MAX_CHARS:
                vars(cert)["_text"] = (digits, text)
            return text
        case EllipticLeaf(dim):
            return _ELLIPTIC_HEAD + _json_text(dim) + _ELLIPTIC_TAIL
        case Product(factors):
            return _PRODUCT_HEAD + ",".join(map(_node_text, factors)) + _PRODUCT_TAIL
    raise TypeError(f"not a certificate node: {cert!r}")


def certificate_dumps(cert: Certificate) -> str:
    """The schema v1 text of a certificate: the bytes json.dumps writes with
    sorted keys and compact separators, written in one pass. Products recurse
    through _node_text, so a wrapper bound to this name (bench/tracing.py)
    sees one call per certificate."""
    return _node_text(cert)


def _need(obj: dict, key: str, loc: str):
    if not isinstance(obj, dict):
        raise CertificateParseError("expected an object", loc)
    if key not in obj:
        raise CertificateParseError(f"missing field {key!r}", loc)
    return obj[key]


def _need_int(value, loc: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CertificateParseError(f"expected an integer, got {value!r}", loc)
    if minimum is not None and value < minimum:
        raise CertificateParseError(f"integer {value} below minimum {minimum}", loc)
    return value


def logleaf_from_obj(obj: dict, loc: str = "$") -> LogLeaf:
    weights = _need(obj, "weights", loc)
    if not isinstance(weights, list) or len(weights) < 2:
        raise CertificateParseError("weights must be a list of at least 2 integers", f"{loc}.weights")
    for i, w in enumerate(weights):
        _need_int(w, f"{loc}.weights[{i}]")
    if min(weights) < 1:
        raise CertificateParseError("weights must be positive", f"{loc}.weights")
    strategy = _need(obj, "strategy", loc)
    if strategy not in KLT_STRATEGIES:
        raise CertificateParseError(f"unknown strategy {strategy!r}", f"{loc}.strategy")
    entries_obj = _need(obj, "entries", loc)
    if not isinstance(entries_obj, list):
        raise CertificateParseError("entries must be a list", f"{loc}.entries")
    nv = len(weights)
    variables = tuple(range(nv))
    entries = []
    for i, ent in enumerate(entries_obj):
        eloc = f"{loc}.entries[{i}]"
        b = _need_int(_need(ent, "b", eloc), f"{eloc}.b", minimum=2)
        eq_obj = _need(ent, "eq", eloc)
        if not isinstance(eq_obj, list) or not eq_obj:
            raise CertificateParseError("eq must be a nonempty monomial list", f"{eloc}.eq")
        terms = []
        bad = None  # the first monomial whose exponents break a rule, located after every c is checked
        for j, mono in enumerate(eq_obj):
            mloc = f"{eloc}.eq[{j}]"
            c = _need(mono, "c", mloc)
            if not isinstance(c, list) or len(c) != 2:
                raise CertificateParseError("c must be [numerator, denominator]", f"{mloc}.c")
            num, den = _need_int(c[0], f"{mloc}.c[0]"), _need_int(c[1], f"{mloc}.c[1]")
            if den == 0:
                raise CertificateParseError("zero denominator", f"{mloc}.c")
            if num == 0:
                raise CertificateParseError("zero coefficient monomial", f"{mloc}.c")
            e = _need(mono, "e", mloc)
            if not isinstance(e, list):
                raise CertificateParseError("e must be a list", f"{mloc}.e")
            pairs = exponent_pairs(e, variables) if len(e) == nv else None  # one scan into pairs
            if pairs is None and bad is None:
                bad = j
            terms.append((_ONE if num == 1 == den else Fraction(num, den), pairs))
        if bad is not None:
            e, mloc = eq_obj[bad]["e"], f"{eloc}.eq[{bad}]"
            for k, x in enumerate(e):
                _need_int(x, f"{mloc}.e[{k}]", minimum=0)
            if len(e) != nv:
                raise CertificateParseError(f"exponent vector of length {len(e)}, expected {nv}", f"{mloc}.e")
            raise CertificateParseError(f"exponents must be nonnegative integers, got {tuple(e)}", f"{eloc}.eq")
        try:  # the pairs are valid and no coefficient is zero, so only a repeated vector is left to raise
            eq = SparsePoly.from_pairs(nv, terms)
        except ValueError as err:
            raise CertificateParseError(str(err), f"{eloc}.eq") from err
        entries.append((StdCoeff(b), eq))
    try:
        return LogLeaf(Wps(tuple(weights)), tuple(entries), strategy)
    except ValueError as err:
        raise CertificateParseError(str(err), loc) from err


def certificate_from_obj(obj, loc: str = "$") -> Certificate:
    if not isinstance(obj, dict):
        raise CertificateParseError("expected an object", loc)
    v = _need(obj, "v", loc)
    if type(v) is not int or v != 1:  # exact int, so neither true nor 1.0
        raise CertificateParseError(f"unsupported schema version {v!r}", f"{loc}.v")
    node = _need(obj, "node", loc)
    if node == "wps_leaf":
        return logleaf_from_obj(obj, loc)
    if node == "elliptic_leaf":
        return EllipticLeaf(_need_int(_need(obj, "dim", loc), f"{loc}.dim", minimum=1))
    if node == "product":
        factors_obj = _need(obj, "factors", loc)
        if not isinstance(factors_obj, list):
            raise CertificateParseError("factors must be a list", f"{loc}.factors")
        return Product(tuple(certificate_from_obj(f, f"{loc}.factors[{i}]") for i, f in enumerate(factors_obj)))
    raise CertificateParseError(f"unknown node kind {node!r}", f"{loc}.node")


# a copy of a leaf text in which every nonzero digit is "#", so that one
# find locates the next nonzero entry of a dense vector
_NONZERO_DIGITS = str.maketrans("123456789", "#########")

# between two pieces of a flat product: a "}" closing one, the "," to cut at,
# and the head of a leaf or an elliptic leaf
_PIECE_CUT = re.compile(r'\},\{"(?:entries|dim)":')


def _scan_leaf(text: str) -> LogLeaf | None:
    """The leaf a wps_leaf text cut like the writer's holds, read with str
    operations instead of json.loads; None where the cuts are not found.
    Only the nonzero entries of a dense vector are read. The text is copied
    once with every nonzero digit made "#"; in each vector the closing "]"
    is found once, and each nonzero entry by one find of "#" in the copy,
    bounded by that "]". Every entry between two nonzero ones is "0," in
    the writer's text, so an entry's index is half its offset from where
    the last read entry ended, plus the entries read before it. A vector
    spelt otherwise may be misread, and _read_piece keeps the leaf only if
    it writes back to the same text.

    The leaf is built by Wps, StdCoeff, SparsePoly.from_pairs in
    len(weights) variables and LogLeaf, and every equation has a monomial,
    so it is a leaf the general path can return; the one monomial 1 * x_j
    is handed to LogLeaf as j, the form LogLeaf holds it in. What only the
    text's form decides (key order, number spelling, vector length, reduced
    coefficients) is not checked here; _read_piece does that by writing the
    leaf back. Raises only ValueError, an int over the int-to-str digit
    limit included, and ZeroDivisionError, for a zero denominator."""
    if not text.startswith(_LEAF_HEAD) or not text.endswith("]}"):
        return None
    tail = text.rfind(_LEAF_STRATEGY)
    weights_at = text.find(_LEAF_WEIGHTS, tail)
    if tail < 0 or weights_at < 0:
        return None
    strategy = text[tail + len(_LEAF_STRATEGY) + 1:weights_at - 1]  # inside its quotes
    weights = tuple(map(int, text[weights_at + len(_LEAF_WEIGHTS):-2].split(",")))
    nv = len(weights)
    marked = text.translate(_NONZERO_DIGITS)
    stds: dict[int, StdCoeff] = {}  # one StdCoeff per distinct b
    entries = []
    pos = len(_LEAF_HEAD)
    while pos < tail:  # one entry: {"b":B,"eq":[monomial,...]}
        at = text.find(',"eq":[', pos)
        if at < 0 or not text.startswith('{"b":', pos):
            return None
        b = int(text[pos + 5:at])
        coeff = stds.get(b)
        if coeff is None:
            coeff = stds[b] = StdCoeff(b)
        pos, terms = at + 7, []
        while True:  # one monomial: {"c":[N,D],"e":[vector]}
            comma = text.find(",", pos)
            at = text.find('],"e":[', comma)
            if comma < 0 or at < 0 or not text.startswith('{"c":[', pos):
                return None
            num, den = int(text[pos + 6:comma]), int(text[comma + 1:at])
            pos, pairs, var = at + 7, [], 0  # var: the index of the entry at pos
            close = text.find("]", pos)  # found, as the text ends in "]}"
            while (at := marked.find("#", pos, close)) >= 0:
                var += (at - pos) >> 1  # the entries before it are "0,"
                end = text.find(",", at, close)
                if end < 0:
                    end = close
                pairs.append((var, int(text[at:end])))
                pos, var = end + 1, var + 1
            pos = close
            terms.append((_ONE if num == 1 == den else Fraction(num, den), pairs))
            if not text.startswith("]},", pos):
                break
            pos += 3
        if len(terms) == 1 and terms[0][0] is _ONE and len(pairs) == 1 and pairs[0][1] == 1:
            entries.append((coeff, pairs[0][0]))  # 1 * x_j, held as j
        else:
            entries.append((coeff, SparsePoly.from_pairs(nv, terms)))
        pos += 5  # past ']}]},' to the next entry, or past the ']}]}' before the tail
    return LogLeaf(Wps(weights), tuple(entries), strategy)


def _read_piece(piece: str) -> Certificate | None:
    """The node a leaf or elliptic leaf text reads as, if the text is
    exactly what the writer writes for that node; otherwise None, for the
    general path to read and report. No json.loads runs. _scan_leaf and the
    elliptic test (an int dim >= 1) build only nodes the general path can
    return, and the write-back test keeps one only for its writer's text
    (why that is sound: _read_writer_text)."""
    try:
        if piece.startswith(_ELLIPTIC_HEAD) and piece.endswith(_ELLIPTIC_TAIL):
            dim = int(piece[len(_ELLIPTIC_HEAD):-len(_ELLIPTIC_TAIL)])
            node = EllipticLeaf(dim) if dim >= 1 else None
            return node if node is not None and _node_text(node) == piece else None
        # written back keeping no text: a leaf read from text is seldom
        # written again, and the text it kept would be a second copy of the piece
        leaf = _scan_leaf(piece)
        return leaf if leaf is not None and _leaf_text(leaf) == piece else None
    except (ValueError, ZeroDivisionError):
        return None


@lru_cache(maxsize=_MEMO_TEXTS)
def _read_leaf_text(piece: str, digits: int) -> Certificate | None:
    """_read_piece, held per piece text and int-to-str digit limit `digits`,
    so that a hit returns only what was read under the same limit."""
    return _read_piece(piece)


def _read_writer_piece(piece: str, digits: int) -> Certificate | None:
    """How one piece, a bare text or a factor of a flat product, is read: a
    leaf text of at most _MEMO_MAX_CHARS through _read_leaf_text under the
    digit limit `digits`, a bigger leaf or an elliptic text by _read_piece
    unheld, and anything else as None."""
    if piece.startswith(_LEAF_HEAD):
        return _read_leaf_text(piece, digits) if len(piece) <= _MEMO_MAX_CHARS else _read_piece(piece)
    if piece.startswith(_ELLIPTIC_HEAD):
        return _read_piece(piece)  # up to hundreds of padding dimensions, which would push the leaves out
    return None


def _read_writer_text(text: str) -> Certificate | None:
    """The node a text reads as when it is the writer's text, or None.

    A flat product, _PRODUCT_HEAD + ",".join(p_i) + _PRODUCT_TAIL, is cut at
    the "," of each match of _PIECE_CUT between its head and tail, all found
    in one pass before any piece is read, and each p_i is read by
    _read_writer_piece; any other text is one piece. A piece that reads as
    None makes the whole text None. The int-to-str digit limit is read once.

    Sound: a piece reads as a node f only if the writer's text of f is the
    piece, and the general path reads the writer's text of f back as f (the
    codec's round trip; test_writer_matches_the_reference_bytes pins it).
    For a product, json.loads(text) is then {"factors": [json.loads(p_i),
    ...], "node": "product", "v": 1}, so the general path returns
    Product(f) too. Such a p_i nests at most 6 levels, with no whitespace
    and no unknown keys, so the general path meets no recursion limit that
    the piece did not, and a memo hit reuses a value read under the same
    digit limit.
    """
    digits = sys.get_int_max_str_digits()
    if not (text.startswith(_PRODUCT_HEAD) and text.endswith(_PRODUCT_TAIL)):
        return _read_writer_piece(text, digits)
    start, end = len(_PRODUCT_HEAD), len(text) - len(_PRODUCT_TAIL)
    factors = []
    for cut in [match.start() + 1 for match in _PIECE_CUT.finditer(text, start, end)] + [end]:
        node = _read_writer_piece(text[start:cut], digits)
        if node is None:
            return None
        factors.append(node)
        start = cut + 1
    return Product(factors)


def certificate_loads(text: str) -> Certificate:
    """The certificate a schema v1 text holds, or CertificateParseError with
    the location of the first fault.

    A str that is the writer's text, less one trailing newline as `cyindex
    realize --out` writes it, is read without json.loads by
    _read_writer_text; json.loads ignores trailing whitespace, so the
    newline changes nothing. Every other text, bytes included, is read
    whole, newline and all, by the general path, which makes every error and
    location.
    """
    if type(text) is str:
        body = text[:-1] if text.endswith("\n") else text  # as `cyindex realize --out` writes it
        node = _read_writer_text(body)
        if node is not None:
            return node
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise CertificateParseError(f"invalid JSON: {err.msg}", f"line {err.lineno} column {err.colno}") from err
    except ValueError as err:  # the other ValueError json.loads raises: an int over the int-to-str digit limit
        raise CertificateParseError(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from err
    except RecursionError as err:
        raise CertificateParseError("nested too deeply to parse") from err
    try:
        return certificate_from_obj(obj)
    except RecursionError as err:
        raise CertificateParseError("nested too deeply to parse") from err
