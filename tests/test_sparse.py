"""The shared sparse linear-combination core (``exact.SparseComb``).

DiffPoly, MultiPoly (also the tensor power: a tensor is a MultiPoly with every
exponent <= k) and GroupAlgebraElem take their arithmetic from one base class,
and so does the test oracle's ParamPoly (``formal``), which also serves as a
coefficient ring of DiffPoly.  sympy is the independent oracle here (tests
only): sums, differences, products, scalings and powers must equal sympy's
``expand`` of the same expressions; group-algebra products are compared with
an explicit convolution that composes the permutation images by hand.
"""

import itertools
from collections import defaultdict
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from diffhom.dpoly import DiffPoly, mono_mul
from diffhom.exact import add_terms, linear_combination
from diffhom.hwv import MultiPoly
from diffhom.tableaux import GroupAlgebraElem, Permutation
from formal import ParamPoly

F = Fraction
PARAMS = ("a", "b")
SYM = {name: sympy.Symbol(name) for name in PARAMS}

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
exps = st.integers(0, 2)


def _sym(c):
    if isinstance(c, ParamPoly):
        return param_sym(c)
    return sympy.Rational(c.numerator, c.denominator)


def param_sym(p: ParamPoly):
    return sum((_sym(c) * sympy.Mul(*(SYM[n] ** e for n, e in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


def diff_sym(p: DiffPoly):
    return sum((_sym(c) * sympy.Mul(*(sympy.Symbol(f"x{i}_{k}") ** e for i, k, e in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


def multi_sym(p: MultiPoly):
    return sum((_sym(c) * sympy.Mul(*(sympy.Symbol(f"X{i}") ** e for i, e in enumerate(expo)))
                for expo, c in p.terms.items()), sympy.Integer(0))


@st.composite
def param_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple((n, e) for n, e in zip(PARAMS, (draw(exps), draw(exps))) if e)
        terms[mono] = draw(rationals)
    return ParamPoly(terms)


def _dmono(draw, n):
    """A canonical differential monomial: factors sorted by (i, -k)."""
    exps_by_var = {(i, k): draw(exps) for i in range(n + 1) for k in range(2)}
    one = ()
    for (i, k), e in exps_by_var.items():
        for _ in range(e):
            one = mono_mul(one, ((i, k, 1),))
    return one


@st.composite
def diff_polys(draw, parametric=False):
    n = 1
    coeffs = param_polys() if parametric else rationals
    terms = {_dmono(draw, n): draw(coeffs) for _ in range(draw(st.integers(0, 3)))}
    return DiffPoly(n, terms)


@st.composite
def multi_polys(draw):
    terms = {(draw(exps), draw(exps)): draw(rationals) for _ in range(draw(st.integers(0, 4)))}
    return MultiPoly(2, terms)


CASES = [
    (param_polys(), param_sym, rationals),
    (diff_polys(), diff_sym, rationals),
    (diff_polys(parametric=True), diff_sym, param_polys()),
    (multi_polys(), multi_sym, rationals),
]


def _clean(x):
    return all(x.terms.values())


def _same(sym, x, expected):
    assert _clean(x), "a zero coefficient was stored"
    assert sympy.expand(sym(x) - expected) == 0


@pytest.mark.parametrize("strategy,sym,scalars", CASES,
                         ids=["ParamPoly", "DiffPoly", "DiffPoly[ParamPoly]", "MultiPoly"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_sympy(strategy, sym, scalars, data):
    a, b = data.draw(strategy), data.draw(strategy)
    c = data.draw(scalars)
    e = data.draw(st.integers(0, 3))
    sa, sb = sym(a), sym(b)
    _same(sym, a + b, sa + sb)
    _same(sym, a - b, sa - sb)
    _same(sym, -a, -sa)
    _same(sym, a * b, sa * sb)
    _same(sym, a.scale(c), sa * _sym(c))
    _same(sym, a ** e, sa ** e)
    assert (a + b) - b == a
    diff = a - a
    assert not diff and diff.terms == {}


@given(a=param_polys(), c=st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_parampoly_mixes_with_scalars(a, c):
    sa = param_sym(a)
    _same(param_sym, a + c, sa + c)
    _same(param_sym, c + a, sa + c)
    _same(param_sym, c - a, c - sa)
    _same(param_sym, a * F(c, 2), sa * sympy.Rational(c, 2))
    assert (ParamPoly.const(c) == c) and (ParamPoly.const(c) == F(c))


def _perms(d):
    return [Permutation(p) for p in itertools.permutations(range(1, d + 1))]


@st.composite
def group_elems(draw, d):
    perms = _perms(d)
    picks = draw(st.lists(st.sampled_from(perms), max_size=6))
    return GroupAlgebraElem(d, {s: draw(rationals) for s in picks})


def convolution(u, v):
    """sum c1 c2 (s1 s2) with (s1 s2)(i) = s1(s2(i)) composed by hand."""
    out = defaultdict(Fraction)
    for s1, c1 in u.terms.items():
        for s2, c2 in v.terms.items():
            images = tuple(s1.images[s2.images[i] - 1] for i in range(u.d))
            out[Permutation(images)] += c1 * c2
    return {s: c for s, c in out.items() if c}


@pytest.mark.parametrize("d", [3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_group_algebra_product_is_the_convolution(d, data):
    u, v, w = (data.draw(group_elems(d)) for _ in range(3))
    assert (u * v).terms == convolution(u, v)
    assert _clean(u * v)
    assert (u * v) * w == u * (v * w)
    assert GroupAlgebraElem.unit(d) * u == u == u * GroupAlgebraElem.unit(d)
    assert u ** 2 == u * u and u ** 0 == GroupAlgebraElem.unit(d)


@pytest.mark.parametrize("left,right", [
    (DiffPoly.var(0, 1, 1), DiffPoly.var(0, 1, 2)),
    (MultiPoly.var(0, 2), MultiPoly.var(0, 3)),
    (GroupAlgebraElem.unit(3), GroupAlgebraElem.unit(4)),
], ids=["DiffPoly", "MultiPoly", "GroupAlgebraElem"])
def test_mismatched_shapes_raise(left, right):
    with pytest.raises(ValueError):
        left + right
    with pytest.raises(ValueError):
        left - right
    with pytest.raises(ValueError):
        left * right
    assert left != right


def test_add_terms_drops_cancelled_keys():
    terms = add_terms({}, [("x", F(1)), ("y", F(0)), ("x", F(-1)), ("z", F(2))])
    assert terms == {"z": F(2)}
    assert add_terms(terms, [("z", F(-2))]) is terms and terms == {}


def test_linear_combination_matches_repeated_sums():
    xs = [DiffPoly.var(0, 1, 1), DiffPoly.var(1, 0, 1) * DiffPoly.var(0, 1, 1)]
    cs = [F(3), F(-1, 2)]
    expected = xs[0].scale(cs[0]) + xs[1].scale(cs[1])
    assert linear_combination(DiffPoly.zero(1), zip(cs, xs)) == expected
    assert not linear_combination(DiffPoly.zero(1), [(F(1), xs[0]), (F(-1), xs[0])])
