"""Differential polynomials in the variables x_i[k] (formally X_i^(k)).

A differential polynomial lives in Q[X_i^(k) : 0 <= i <= N, k >= 0].  The
module provides derivations such as E_pq (gl(N+1)), gradings, the
differential-homogeneity test (the derivations L_m of the Leibniz action of
one-variable polynomials, on packed codes), a text serialization and
the JSON-ready dict form (``to_json_dict``).
Family ranks and coordinates in a span are the generic
:func:`exact.span_rank` and :func:`exact.solve_in_span`, bound here.

The library applies no matrix to a polynomial: GL stability is certified
from the derivations E_pq (``verify.check_basis_gl_lie``).  Monomials of
bounded order are packed into ints by :class:`MonoCodec` for the Wronskian
and D_T expansions.  The generic ring substitution :func:`substitute` (any
coefficient ring) has no caller in the library.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import namedtuple
from collections.abc import Callable, Mapping
from fractions import Fraction

from .exact import SparseComb, ONE, add_terms, linear_combination
from .exact import solve_in_span, span_rank  # bound here for callers

# A differential monomial: ((i, k, e), ...) with e > 0, sorted by (i, -k).
DMono = tuple[tuple[int, int, int], ...]

_EMPTY: DMono = ()


def _mono_from_exps(exps: Mapping[tuple[int, int], int]) -> DMono:
    items = [(i, k, e) for (i, k), e in exps.items() if e]
    items.sort(key=lambda t: (t[0], -t[1]))
    return tuple(items)


def mono_mul(a: DMono, b: DMono) -> DMono:
    if not a:
        return b
    if not b:
        return a
    exps = {(i, k): e for i, k, e in a}
    for i, k, e in b:
        exps[(i, k)] = exps.get((i, k), 0) + e
    return _mono_from_exps(exps)


def mono_degree(m: DMono) -> int:
    return sum(e for _, _, e in m)


def mono_weight(m: DMono) -> int:
    return sum(k * e for _, k, e in m)


def mono_order(m: DMono) -> int:
    return max((k for _, k, _ in m), default=0)


def mono_multidegree(m: DMono, n: int) -> list[int]:
    """The degree in each of x_0, ..., x_n (all derivative orders together)."""
    out = [0] * (n + 1)
    for i, _, e in m:
        out[i] += e
    return out


def mono_sort_key(m: DMono):
    # Ascending sort under this key lists monomials from largest to smallest
    # in the variable order x0[K] > ... > x0[0] > x1[K] > ... > xN[0].
    return tuple(((i, -k), -e) for i, k, e in m)


class DiffPoly(SparseComb):
    """Sparse differential polynomial with Fraction coefficients."""

    __slots__ = ("n",)
    _shape = ("n",)
    _mismatch = "mixed ambient variable bounds"
    _key_mul = staticmethod(mono_mul)

    def __init__(self, n: int, terms: Mapping[DMono, Fraction] | None = None):
        if n < 0:
            raise ValueError("ambient index bound must be >= 0")
        self.n = n
        super().__init__(terms)

    @classmethod
    def zero(cls, n: int) -> "DiffPoly":
        return cls(n)

    @classmethod
    def const(cls, c: Fraction, n: int) -> "DiffPoly":
        return cls(n, {_EMPTY: c})

    @classmethod
    def var(cls, i: int, k: int, n: int) -> "DiffPoly":
        if not 0 <= i <= n:
            raise ValueError(f"variable index {i} exceeds bound {n}")
        if k < 0:
            raise ValueError("negative derivative order")
        return cls(n, {((i, k, 1),): ONE})

    def __repr__(self) -> str:
        return to_text(self)


class Gradings(namedtuple("Gradings", "degree weight order")):
    """Degree/weight are None when monomials disagree (inhomogeneous / non-isobaric)."""
    __slots__ = ()


def gradings(p: DiffPoly) -> Gradings:
    if not p:
        raise ValueError("the zero polynomial has no degree, weight or order")
    degs = {mono_degree(m) for m in p.terms}
    wts = {mono_weight(m) for m in p.terms}
    order = max(mono_order(m) for m in p.terms)
    return Gradings(degree=degs.pop() if len(degs) == 1 else None,
                    weight=wts.pop() if len(wts) == 1 else None,
                    order=order)


def substitute(p: DiffPoly, image: Callable[[int, int], DiffPoly], n_out: int | None = None) -> DiffPoly:
    """Ring substitution x_i[k] -> image(i, k), extended multiplicatively."""
    one = DiffPoly.const(ONE, p.n if n_out is None else n_out)
    powers: dict[tuple[int, int, int], DiffPoly] = {}

    def mono_image(mono: DMono) -> DiffPoly:
        acc = one
        for i, k, e in mono:
            powed = powers.get((i, k, e))
            if powed is None:
                powed = powers[(i, k, e)] = image(i, k) ** e
            acc = acc * powed
        return acc

    return linear_combination(one, ((c, mono_image(mono)) for mono, c in p.terms.items()))


def is_diff_homogeneous(p: DiffPoly) -> tuple[bool, int | None]:
    """Decide whether Q . p = Q^d p holds for every one-variable polynomial Q.

    Q acts through its Taylor data (mu_0, ..., mu_K) = (Q, Q', ..., Q^(K)) at
    a point, K the order of p, by x_i[k] -> sum_j C(k,j) mu_{k-j} x_i[j].  The
    data with mu_0 != 0 form a commutative group: the scalars mu_0 times the
    connected unipotent group U of data with mu_0 = 1.  The identity is
    polynomial in the mu's, so it holds for all data as soon as it holds on
    the Zariski-dense set mu_0 != 0, that is on the group.  The scalars give
    ordinary homogeneity of degree d.  In characteristic 0, p is invariant
    under U exactly when it is killed by the Lie algebra of U (Humphreys,
    Linear Algebraic Groups, sec. 15), which is spanned by the derivations

        L_m = sum_{i, k >= m} C(k, m) x_i[k-m] d/dx_i[k],   m = 1..K.

    So the test is: one degree d for every monomial, then L_m p = 0 for each m.

    Whether L_m p vanishes does not change when p is scaled, so one pass
    writes p times the lcm of its denominators as packed codes with int
    coefficients, and checks the degree on the way.  Each variable x_i[k] of
    p gets a field of d.bit_length() bits, numbered as it is first met, so a
    code is as wide as p has variables, whatever the values of i and k (a
    :class:`MonoCodec`, with a field for every (i, k) up to the largest,
    would spend about i * K fields on x_i[K]).

    If p has x_i[k], k >= 1, but not x_i[k-1], then L_1 p != 0: a monomial
    of L_1 p that holds x_i[k-1] comes from one term of p and one factor
    x_i[k]^e of it, so its coefficient k e c is not cancelled.  So the
    orders of each x_i in p run from 0 up, K is less than the number of
    variables, and L_m moves one unit of the exponent e of x_i[k] into the
    field of x_i[k-m], with the factor e C(k, m).  The images are built one
    m at a time, and the first nonzero one ends the test.  They need no
    split by weight: L_m maps the weight-w part of p into weight w - m, so
    the images of different weight parts share no monomial and cannot cancel.
    """
    if not p:
        raise ValueError("the zero polynomial is excluded")
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    degree = sum(e for _, _, e in next(iter(p.terms)))
    bits = max(degree.bit_length(), 1)
    fields: dict[tuple[int, int], int] = {}  # (i, k) -> the field of x_i[k]
    terms = []  # (code, [(field, c e) per factor x_i[k]^e of order >= 1]), c an int
    for mono, c in p.terms.items():
        c = c.numerator * (den // c.denominator)
        w, size, lowerable = 0, 0, []
        for i, k, e in mono:
            f = fields.get((i, k))
            if f is None:
                f = fields[(i, k)] = len(fields)
            w += e << f * bits
            size += e
            if k:
                lowerable.append((f, c * e))
        if size != degree:
            return (False, None)
        terms.append((w, lowerable))
    if any(k and (i, k - 1) not in fields for i, k in fields):
        return (False, None)
    for m in range(1, max((k for _, k in fields), default=0) + 1):
        steps: list[tuple[int, int] | None] = [None] * len(fields)  # (code change, C(k, m))
        for (i, k), f in fields.items():
            if k >= m:
                steps[f] = ((1 << fields[(i, k - m)] * bits) - (1 << f * bits), math.comb(k, m))
        image: dict[int, int] = {}
        get = image.get
        for w, lowerable in terms:
            for f, ce in lowerable:
                step = steps[f]
                if step is not None:
                    v = w + step[0]
                    image[v] = get(v, 0) + ce * step[1]
        if any(image.values()):
            return (False, None)
    return (True, degree)


def gl_elementary(p: int, q: int) -> Callable[[int, int], tuple[int, int, int] | None]:
    """The variable images of E_pq = sum_k x_p[k] d/dx_q[k] for :func:`derive`."""
    return lambda i, k: (p, k, 1) if i == q else None


def derive(p: DiffPoly, image: Callable[[int, int], tuple[int, int, int] | None]) -> DiffPoly:
    """D p for the derivation D with D x_i[k] = c x_j[h] where
    ``image(i, k)`` is (j, h, c), and D x_i[k] = 0 where it is None.

    Each output monomial is the input factor tuple with two edits, so it
    needs no sort: the factor (i, k) loses one from its exponent (or is
    dropped), then (j, h) gains one (or goes in at its (j, -h) place).  The
    coefficients stay in the ring of p's (int coefficients give int ones).
    """

    def pairs():
        for mono, a in p.terms.items():
            for at, (i, k, e) in enumerate(mono):
                img = image(i, k)
                if img is None:
                    continue
                j, h, c = img
                if e > 1:
                    rest = mono[:at] + ((i, k, e - 1),) + mono[at + 1:]
                else:
                    rest = mono[:at] + mono[at + 1:]
                put = 0
                for j2, h2, _ in rest:
                    if j2 > j or (j2 == j and h2 <= h):
                        break
                    put += 1
                if put < len(rest) and rest[put][0] == j and rest[put][1] == h:
                    yield rest[:put] + ((j, h, rest[put][2] + 1),) + rest[put + 1:], a * (e * c)
                else:
                    yield rest[:put] + ((j, h, 1),) + rest[put:], a * (e * c)

    return p.with_terms(add_terms({}, pairs()))


class MonoCodec:
    """Packed exponent codes of monomials of jet order < ``orders`` and
    exponents < 2^``bits``: one int per monomial, holding the exponent of
    x_i[k] in the field of ``bits`` bits at index i*orders + (orders-1-k).
    A product of monomials is the sum of their codes, and the fields from the
    lowest up come in the (i, -k) order of DMono factors.  The Wronskian
    builder (``wronskian.build_wronskian``), the D_T (``hwv._d_t_codes``) and
    the multiplicity solver (:meth:`lowered`) share it."""

    __slots__ = ("orders", "bits", "_mask", "_factors", "_lowerings")

    def __init__(self, orders: int, bits: int):
        self.orders, self.bits = orders, bits
        self._mask = (1 << bits) - 1
        self._factors: dict[int, tuple[int, int, int]] = {}  # one tuple per (i, k, e), shared
        # per top, per field: the (code shift, C(k, m)) of each L_m, m <= top
        self._lowerings: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}

    def unit(self, i: int, k: int) -> int:
        """The code of x_i[k]."""
        return 1 << ((i * self.orders + self.orders - 1 - k) * self.bits)

    def decode(self, w: int) -> DMono:
        """The monomial of code ``w``: one step per factor, lowest field first."""
        bits, mask, factors = self.bits, self._mask, self._factors
        mono = []
        while w:
            shift = (w & -w).bit_length() - 1
            shift -= shift % bits
            field = w & (mask << shift)
            w -= field
            factor = factors.get(field)
            if factor is None:
                i, r = divmod(shift // bits, self.orders)
                factor = factors[field] = (i, self.orders - 1 - r, field >> shift)
            mono.append(factor)
        return tuple(mono)

    def lowered(self, terms: Mapping[int, int], top: int) -> dict[int, int]:
        """(L_1 + ... + L_top) p for p = ``terms`` ({code: int coefficient}),
        with L_m x_i[k] = C(k, m) x_i[k-m] as in :func:`is_diff_homogeneous`.
        Lowering x_i[k] by m moves one unit of its exponent m fields up, into
        x_i[k-m].  L_m lowers the weight by m, so on an isobaric p the images
        of the different L_m share no monomial, and p is killed by all of
        them exactly when this sum is zero.  The code shifts and binomials of
        each field are built once per codec and ``top``."""
        bits, mask, orders = self.bits, self._mask, self.orders
        steps = self._lowerings.setdefault(top, {})
        out: dict[int, int] = {}
        get = out.get
        for w, c in terms.items():
            rest = w
            while rest:
                field = ((rest & -rest).bit_length() - 1) // bits
                shift = field * bits
                e = (rest >> shift) & mask
                rest -= e << shift
                lowering = steps.get(field)
                if lowering is None:
                    k = orders - 1 - field % orders
                    lowering = steps[field] = tuple(
                        (((1 << m * bits) - 1) << shift, math.comb(k, m))
                        for m in range(1, min(k, top) + 1))
                ce = c * e
                for delta, b in lowering:
                    v = w + delta
                    out[v] = get(v, 0) + ce * b
        return {v: x for v, x in out.items() if x}


# ---------------------------------------------------------------------------
# Text grammar and JSON serialization.

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# One factor, with the whitespace around it: x<i>[<k>]^<e> (groups 1-3, the
# bracket and the exponent optional) or <int>/<int> (groups 4-5, the
# denominator optional).  Digits are ASCII.
_FACTOR = re.compile(r"\s*(?:x([0-9]+)(?:\s*\[\s*([0-9]+)\s*\])?(?:\s*\^\s*([0-9]+))?"
                     r"|([0-9]+)(?:\s*/\s*([0-9]+))?)\s*")
_TERM_OPERATOR = re.compile(r"([+\-])")
_VALUE = operator.itemgetter(1)
# One lexeme: a variable x<i> (group 1), an integer (group 2) or a symbol.
_LEXEME = re.compile(r"\s*(?:x([0-9]+)|([0-9]+)|[\[\]^*+\-/])")
_SPACE = re.compile(r"\s*")


def _lexical_check(text: str) -> None:
    """Raise the first lexical error in ``text``, if it has one: an integer
    too long to convert or an unexpected character."""
    at = 0
    while m := _LEXEME.match(text, at):
        for group in (1, 2):
            digits = m.group(group)
            if digits:
                try:
                    int(digits)
                except ValueError:  # beyond the interpreter's limit on digits to convert
                    raise ParseError(f"integer of {len(digits)} digits is too long",
                                     m.start(group)) from None
        at = m.end()
    at = _SPACE.match(text, at).end()
    if at < len(text):
        if text[at] == "x" and text[at + 1:at + 2].isdigit():
            at += 1  # a non-ASCII digit after 'x' is what is unexpected
        raise ParseError(f"unexpected character {text[at]!r}", at)


def _locate_error(text: str, n: int | None) -> None:
    """Raise the ParseError of a text that :func:`parse` does not accept;
    it never returns.
    A lexical error anywhere outranks a syntax error, so it is raised first.
    Then one scan reads factor after factor and builds nothing: it raises
    at the first factor that is malformed, has an index above ``n`` or a
    zero denominator, or is followed by no '*', '+', '-' or end of input."""
    _lexical_check(text)
    at = _SPACE.match(text).end()
    if at == len(text):
        raise ParseError("empty expression", 0)
    if text[at] in "+-":
        at += 1
    while True:
        m = _FACTOR.match(text, at)
        if m is None:
            raise ParseError("expected a coefficient or a variable", _SPACE.match(text, at).end())
        i, k, e, a, b = m.groups()
        if i is not None and n is not None and int(i) > n:
            raise ParseError(f"variable index {int(i)} exceeds bound {n}", m.start(1) - 1)
        if b is not None and not int(b):
            raise ParseError("zero denominator", m.start(4))
        at = m.end()
        sym = text[at:at + 1]
        if sym not in ("*", "+", "-"):
            break
        at += 1
    if not sym:
        raise AssertionError(f"parse rejected the well-formed text {text!r}")
    # A '[' or '^' after a variable, or a '/' after an integer, that starts no
    # complete bracket, exponent or denominator; else the missing operator.
    nxt = _SPACE.match(text, at + 1).end()
    if i is not None and sym == "[" and k is None and e is None:
        lexeme = _LEXEME.match(text, at + 1)
        if lexeme and lexeme.group(2):
            raise ParseError("expected ']'", _SPACE.match(text, lexeme.end()).end())
        raise ParseError("expected an integer", nxt)
    if i is not None and sym == "^" and e is None or a is not None and sym == "/" and b is None:
        raise ParseError("expected an integer", nxt)
    raise ParseError("expected '+', '-' or end of input", at)


def _read_factor(text: str, n: int | None):
    """``((i, -k), (i, k, e))`` for the factor x<i>[<k>]^<e>, with the key
    ``()`` in place of (i, -k) when e is 0 (it sorts first, so the term is
    merged and the factor dropped); ``(None, (num, den))`` for a
    coefficient; None for a text that is no factor or has an index above
    ``n``, a zero denominator or an integer too long to convert."""
    m = _FACTOR.fullmatch(text)
    if m is None:
        return None
    i, k, e, a, b = m.groups()
    try:
        if i is None:
            b = int(b) if b else 1
            return (None, (int(a), b)) if b else None
        i, k, e = int(i), (int(k) if k else 0), (int(e) if e else 1)
    except ValueError:  # beyond the interpreter's limit on digits to convert
        return None
    return ((i, -k) if e else (), (i, k, e)) if n is None or i <= n else None


def parse(text: str, n: int | None = None) -> DiffPoly:
    """Parse the textual grammar: terms of rational coefficients and factors
    x<i>[<k>]^<e>, combined with '*', '+', '-'.  Whitespace is insignificant.
    The variable bound ``n`` defaults to the largest index used (0 if none).

    No factor holds an operator, so the text is split at its '+' and '-',
    then each term at its '*'.  Each distinct factor text is read once per
    call (:func:`_read_factor`).  A term whose factors come in the (i, -k)
    order that :func:`to_text` writes is its monomial as it stands; factors
    out of order are sorted, and only a repeated (i, k) or an exponent 0
    sends a term through a dict that adds the exponents.
    A text this reader does not accept goes to :func:`_locate_error`, which
    raises its first lexical error (an unexpected character, or an integer
    too long to convert) if it has one, else its first syntax error, with
    the position of the offending token (the end of the text when the input
    ends early).
    """
    pieces = _TERM_OPERATOR.split(text)  # term, operator, term, ..., term
    if pieces[0].strip():
        pieces.insert(0, "+")  # so that the pieces are operator, term, ..., operator, term
    elif len(pieces) > 1:
        del pieces[0]  # the whitespace before a leading sign
    else:
        _locate_error(text, n)
    read: dict[str, tuple] = {}  # factor text -> _read_factor(text, n)
    get = read.get
    pairs = []
    for sign, term in zip(pieces[::2], pieces[1::2]):
        num, den = (-1 if sign == "-" else 1), 1
        entries = []  # the _read_factor entries of the term's variables
        last, merge = (-1, 0), False  # (-1, 0) comes before the (i, -k) of every factor
        for f in term.split("*"):
            entry = get(f)
            if entry is None:
                entry = read[f] = _read_factor(f, n)
                if entry is None:
                    _locate_error(text, n)
            key, value = entry
            if key is None:
                num *= value[0]
                den *= value[1]
            else:
                merge = merge or key <= last
                last = key
                entries.append(entry)
        if merge:  # out of order, repeated, or with an exponent 0 (whose key () sorts first)
            entries.sort()
            merge = not entries[0][0] or len(dict(entries)) < len(entries)
        if merge:  # a repeated (i, k) or an exponent 0: add the exponents by (i, -k)
            exps: dict[tuple[int, int], int] = {}
            for _, (i, k, e) in entries:
                exps[i, -k] = exps.get((i, -k), 0) + e
            mono = tuple([(i, -h, e) for (i, h), e in sorted(exps.items()) if e])
        else:
            mono = tuple(map(_VALUE, entries))
        pairs.append((mono, Fraction(num) if den == 1 else Fraction(num, den)))
    if n is None:
        n = max((value[0] for key, value in read.values() if key is not None), default=0)
    return DiffPoly(n, add_terms({}, pairs))


def _mono_text(m: DMono) -> str:
    parts = []
    for i, k, e in sorted(m, key=lambda t: (t[0], -t[1])):
        s = f"x{i}"
        if k:
            s += f"[{k}]"
        if e > 1:
            s += f"^{e}"
        parts.append(s)
    return "*".join(parts)


def to_text(p: DiffPoly) -> str:
    """Canonical printer; inverse of :func:`parse`.  ValueError when a
    coefficient is too long to print (:func:`_coeff_text`)."""
    if not p:
        return "0"
    pieces = []
    for mono, c in sorted(p.terms.items(), key=lambda t: mono_sort_key(t[0])):
        mtext = _mono_text(mono)
        mag = abs(c)
        if not mtext:
            body = _coeff_text(mag)
        elif mag == 1:
            body = mtext
        else:
            body = f"{_coeff_text(mag)}*{mtext}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def _coeff_text(c: Fraction) -> str:
    """str(c); ValueError naming the limit when c has more digits than the
    interpreter converts to text (``sys.get_int_max_str_digits``)."""
    try:
        return str(c)
    except ValueError:
        raise ValueError("a coefficient has more digits than the interpreter's limit of "
                         f"{sys.get_int_max_str_digits()} for int-to-str conversion") from None


def to_json_dict(p: DiffPoly) -> dict:
    terms = []
    for mono, c in sorted(p.terms.items(), key=lambda t: mono_sort_key(t[0])):
        terms.append({"coeff": _coeff_text(c),
                      "monomial": [[i, k, e] for i, k, e in sorted(mono, key=lambda t: (t[0], -t[1]))]})
    return {"N": p.n, "terms": terms}
