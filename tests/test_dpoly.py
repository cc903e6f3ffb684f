"""Differential polynomials: parsing, gradings, the Q-action, homogeneity,
the GL action.

The Q-action with formal parameters lives in the test oracle ``formal``, and
so does the GL action ``formal_matrix_action``, which the library does not
have: its properties are checked here, and on the canonical basis it is
compared with the determinant of the Wronskian matrix whose columns the
matrix has transformed."""

import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from diffhom.dpoly import (DiffPoly, ParseError, derive, gl_elementary, gradings,
                           is_diff_homogeneous, mono_multidegree, parse, span_rank,
                           solve_in_span, to_json_dict, to_text)
from diffhom.exact import det_expansion
from diffhom.wronskian import enumerate_canonical_basis
from formal import (ParamPoly, UniPoly, as_parampoly, formal_derivation_verdict, formal_derive,
                    formal_matrix_action, formal_parse, formal_verdict, from_json_dict, lowering,
                    q_action, unipoly_mul)

F = Fraction
WRONSK2 = "x0*x1[1] - x1*x0[1]"


def test_parse_single_variable():
    assert parse("x0", 0) == DiffPoly.var(0, 0, 0)


def test_parse_wronskian():
    p = parse(WRONSK2, 1)
    assert p.terms == {((0, 0, 1), (1, 1, 1)): F(1), ((0, 1, 1), (1, 0, 1)): F(-1)}


def test_parse_coefficient_and_exponent():
    p = parse("3/2*x2[4]^2", 2)
    assert p.terms == {((2, 4, 2),): F(3, 2)}


def test_parse_rejects_large_index():
    with pytest.raises(ParseError):
        parse("x3", 2)


def test_parse_default_bound_is_largest_index():
    assert parse("x0*x2[1] - x2*x0[1]").n == 2
    assert parse("3/4").n == 0


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("x0 + @", 0)
    assert err.value.pos == 5


@pytest.mark.parametrize("text, n, message", [
    ("x3^0", 2, "variable index 3 exceeds bound 2 (at position 0)"),
    ("x0 * 1/0", 0, "zero denominator (at position 5)"),
    ("x0[2", 0, "expected ']' (at position 4)"),
    ("x0 x1", 1, "expected '+', '-' or end of input (at position 3)"),
    ("x0^", 0, "expected an integer (at position 3)"),
    ("x0 + *", 0, "expected a coefficient or a variable (at position 5)"),
])
def test_parse_error_messages(text, n, message):
    with pytest.raises(ParseError) as err:
        parse(text, n)
    assert str(err.value) == message


@pytest.mark.parametrize("prefix, digit, pos", [("x0^", "9", 3), ("x0 + x", "1", 6),
                                                 ("x0 - ", "7", 5)])
def test_parse_overlong_integer_is_a_parse_error(prefix, digit, pos):
    # past the interpreter's limit on digits that int() converts
    with pytest.raises(ParseError) as err:
        parse(prefix + digit * 5000, 0)
    assert str(err.value) == f"integer of 5000 digits is too long (at position {pos})"


@pytest.mark.parametrize("text, message", [
    ("\uff15*x0[1]", "unexpected character '\uff15' (at position 0)"),
    ("x0[\uff11]", "unexpected character '\uff11' (at position 3)"),
    ("x0^\u0663", "unexpected character '\u0663' (at position 3)"),
    # 'x' must be followed by an ASCII digit: the digit after it is unexpected
    ("x\u0663 + x0", "unexpected character '\u0663' (at position 1)"),
    ("2*x\u0663", "unexpected character '\u0663' (at position 3)"),
    ("x\u0663[1] - x0", "unexpected character '\u0663' (at position 1)"),
    ("x0 + x\uff15[1]", "unexpected character '\uff15' (at position 6)"),
    # an 'x' before anything but a digit is itself unexpected
    ("x + x0", "unexpected character 'x' (at position 0)"),
    # a lexical error anywhere outranks an earlier syntax error
    ("x0 x1 + 3/\u0663", "unexpected character '\u0663' (at position 10)"),
])
def test_parse_rejects_non_ascii_digits(text, message):
    # the grammar's <int> is ASCII: int() would read these digits
    for parser in (parse, formal_parse):
        with pytest.raises(ParseError) as err:
            parser(text, 1)
        assert str(err.value) == message


def test_gradings_square():
    assert gradings(parse("x0^2", 0)) == gradings(parse("x0*x0", 0))
    g = gradings(parse("x0^2", 0))
    assert (g.degree, g.weight, g.order) == (2, 0, 0)


def test_gradings_wronskian():
    g = gradings(parse(WRONSK2, 1))
    assert (g.degree, g.weight, g.order) == (2, 1, 1)


def test_gradings_flags_mixed():
    g = gradings(parse("x0 + x0[1]", 0))
    assert g.degree == 1 and g.weight is None and g.order == 1


def test_gradings_rejects_zero():
    with pytest.raises(ValueError):
        gradings(DiffPoly.zero(0))


def test_q_action_constant_t():
    p = DiffPoly.var(0, 0, 0)
    out = q_action(UniPoly.t_power(1), p)
    assert out.terms == {((0, 0, 1),): ParamPoly.var("T")}


def test_q_action_affine_on_first_derivative():
    # (al + T) acting on x0[1] gives (al + T) x0[1] + x0
    q = UniPoly([ParamPoly.var("al"), F(1)])
    out = q_action(q, DiffPoly.var(0, 1, 0))
    assert out.terms[((0, 0, 1),)] == 1
    assert out.terms[((0, 1, 1),)] == ParamPoly.var("al") + ParamPoly.var("T")


def test_q_action_generic_degree_one_scales_wronskian():
    q = UniPoly([ParamPoly.var("mu0"), ParamPoly.var("mu1")])
    p = parse(WRONSK2, 1)
    assert q_action(q, p) == p.scale(as_parampoly(q) ** 2)


def test_q_action_multiplicativity_on_homogeneous():
    q1 = UniPoly([F(1), F(2)])
    q2 = UniPoly([F(-1), F(0), F(1)])
    p = parse(WRONSK2, 1)
    prod = unipoly_mul(q1, q2)
    assert q_action(prod, p) == p.scale(as_parampoly(prod) ** 2)
    assert q_action(q1, p) == p.scale(as_parampoly(q1) ** 2)


def test_is_diff_homogeneous_examples():
    assert is_diff_homogeneous(parse("x0", 0)) == (True, 1)
    assert is_diff_homogeneous(parse("x0[1]", 0)) == (False, None)
    assert is_diff_homogeneous(parse(WRONSK2, 1)) == (True, 2)
    # killed by L_1 + L_2 but not by L_1: the images of the weight-2 and the
    # weight-1 part cancel in the sum, so each L_m is tested on its own
    assert is_diff_homogeneous(parse("x0*x0[2] - x0[1]^2 - x0*x0[1]", 0)) == (False, None)
    # x0[1] is missing, so the image 2 x0*x0[1] of L_1 cannot be cancelled
    assert is_diff_homogeneous(parse("x0*x0[2] - x0^2", 0)) == (False, None)
    # a constant has no variable and no L_m to test
    assert is_diff_homogeneous(parse("-1/2", 0)) == (True, 0)
    # one code field per variable of p: x1000000[1000000] takes one, not 10^12
    assert is_diff_homogeneous(parse("x1000000[1000000]")) == (False, None)
    assert is_diff_homogeneous(parse("x0[1000000000]*x1")) == (False, None)
    assert is_diff_homogeneous(parse("x1000000000*x0[1] - x0*x1000000000[1]")) == (True, 2)
    assert is_diff_homogeneous(parse("x1000000000*x0[1] - x0*x1000000000[2]")) == (False, None)


def test_is_diff_homogeneous_implies_scaling():
    p = parse(WRONSK2, 1)
    verdict, d = is_diff_homogeneous(p)
    assert verdict
    assert q_action(UniPoly([F(5)]), p) == p.scale(F(5) ** d)


def test_is_diff_homogeneous_rejects_zero():
    with pytest.raises(ValueError):
        is_diff_homogeneous(DiffPoly.zero(1))


def test_is_diff_homogeneous_scales_rational_coefficients():
    # the verdict is read off p times the lcm of its denominators
    assert is_diff_homogeneous(parse("1/2*x0*x1[1] - 1/2*x1*x0[1]", 1)) == (True, 2)
    assert is_diff_homogeneous(parse("-6/35*x0*x1[1] + 6/35*x1*x0[1]", 1)) == (True, 2)
    assert is_diff_homogeneous(parse("6/5*x0*x1[1] - 4/5*x1*x0[1]", 1)) == (False, None)
    assert is_diff_homogeneous(parse("2/3*x0[2]*x0 - 1/2*x0[1]^2", 0)) == (False, None)


def test_derive_lowering_and_gl_derivations():
    # L_1 x0[2]*x1 = 2 x0[1]*x1;  L_2 x0[2]^2 = 2 x0*x0[2];  L_3 kills order 2
    assert derive(parse("x0[2]*x1", 1), lowering(1)) == parse("2*x0[1]*x1", 1)
    assert derive(parse("x0[2]^2", 0), lowering(2)) == parse("2*x0*x0[2]", 0)
    assert not derive(parse("x0[2]^2", 0), lowering(3))
    # E_01 = sum_k x0[k] d/dx1[k]: x1[1]*x1 -> x0[1]*x1 + x1[1]*x0, kills x0 alone
    e01 = gl_elementary(0, 1)
    assert derive(parse("x1[1]*x1", 1), e01) == parse("x0[1]*x1 + x1[1]*x0", 1)
    assert not derive(parse("x0[3]*x0", 1), e01)


def test_mono_multidegree():
    (mono,) = parse("x0[2]^2*x0*x2[1]", 2).terms
    assert mono_multidegree(mono, 2) == [3, 0, 1]
    assert mono_multidegree((), 1) == [0, 0]


def test_matrix_action_identity():
    p = parse(WRONSK2, 1)
    eye = [[F(1), F(0)], [F(0), F(1)]]
    assert formal_matrix_action(eye, p) == p


def test_matrix_action_scaling():
    p = parse(WRONSK2, 1)
    two = [[F(2), F(0)], [F(0), F(2)]]
    assert formal_matrix_action(two, p) == p.scale(F(4))


def test_matrix_action_rejects_size_mismatch():
    with pytest.raises(ValueError):
        formal_matrix_action([[F(1)]], parse(WRONSK2, 1))
    with pytest.raises(ValueError):
        formal_matrix_action([[F(1), F(0)], [F(0)]], parse(WRONSK2, 1))


def test_matrix_action_preserves_gradings():
    p = parse(WRONSK2, 1)
    a = [[F(1), F(2)], [F(3), F(5)]]
    g1, g2 = gradings(p), gradings(formal_matrix_action(a, p))
    assert g1 == g2


def test_matrix_action_preserves_diff_homogeneity():
    p = parse(WRONSK2, 1)
    a = [[F(2), F(1)], [F(7), F(4)]]  # det = 1
    assert is_diff_homogeneous(formal_matrix_action(a, p)) == (True, 2)


def test_span_rank_examples():
    x0, x1 = parse("x0", 1), parse("x1", 1)
    assert span_rank([x0, x1]) == 2
    p = parse("x0*x1", 1)
    assert span_rank([p, p.scale(F(2))]) == 1
    assert span_rank([]) == 0


def test_solve_in_span():
    basis = [parse("x0", 1), parse("x1", 1)]
    target = parse("3*x0 - 2*x1", 1)
    assert solve_in_span(basis, [target]) == [[F(3), F(-2)]]
    assert solve_in_span(basis, [parse("x0[1]", 1)]) == [None]


def _json_roundtrip(p: DiffPoly) -> DiffPoly:
    return from_json_dict(json.loads(json.dumps(to_json_dict(p))))


def test_json_roundtrip():
    p = parse("1/3*x0^2 - x1[2]*x0 + 4*x1", 1)
    assert _json_roundtrip(p) == p


def _json_monomial(factors, n=1):
    return from_json_dict({"N": n, "terms": [{"coeff": "1", "monomial": factors}]})


def test_json_rejects_repeated_factor():
    with pytest.raises(ValueError):
        _json_monomial([[0, 0, 1], [0, 0, 2]])


def test_json_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        _json_monomial([[0, 0, -2]])
    with pytest.raises(ValueError):
        _json_monomial([[0, 0, 0]])


def test_json_rejects_negative_order():
    with pytest.raises(ValueError):
        _json_monomial([[0, -1, 1]])


def test_json_rejects_variable_beyond_bound():
    with pytest.raises(ValueError):
        _json_monomial([[5, 0, 1]], n=1)
    with pytest.raises(ValueError):
        _json_monomial([[-1, 0, 1]], n=1)


def test_json_rejects_floats_in_a_factor():
    # int() would truncate this to x0[1]^2
    with pytest.raises(ValueError):
        _json_monomial([[0.7, 1.9, 2.5]])


def test_json_rejects_booleans_and_strings_in_a_factor():
    # int() would read this as x1[1]^2
    with pytest.raises(ValueError):
        _json_monomial([[True, "1", 2]])


def test_json_rejects_a_float_bound():
    with pytest.raises(ValueError):
        _json_monomial([[0, 0, 1]], n=1.9)


def _json_coeff(coeff):
    return from_json_dict({"N": 0, "terms": [{"coeff": coeff, "monomial": [[0, 1, 1]]}]})


def test_json_coeff_is_a_string_or_an_integer():
    x = parse("x0[1]", 0)
    assert _json_coeff("-2/3") == x.scale(F(-2, 3))
    assert _json_coeff("0.1") == x.scale(F(1, 10))  # a decimal string is exact
    assert _json_coeff(7) == x.scale(F(7))
    # Fraction(0.1) is 3602879701896397/36028797018963968, Fraction(True) is 1,
    # Fraction("1/0") raises ZeroDivisionError and Fraction([1]) TypeError
    for bad in (0.1, 2.0, True, False, None, [1], {"1": 2}, "1/0", "x", ""):
        with pytest.raises(ValueError):
            _json_coeff(bad)


# --- property tests ------------------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=8).filter(bool)


@st.composite
def diff_polys(draw):
    n = draw(st.integers(0, 2))
    nterms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(nterms):
        nvars = draw(st.integers(1, 3))
        exps = {}
        for _ in range(nvars):
            i = draw(st.integers(0, n))
            k = draw(st.integers(0, 3))
            exps[(i, k)] = exps.get((i, k), 0) + draw(st.integers(1, 2))
        mono = tuple(sorted(((i, k, e) for (i, k), e in exps.items()),
                            key=lambda t: (t[0], -t[1])))
        terms[mono] = draw(coeffs)
    return DiffPoly(n, terms)


@given(p=diff_polys())
@settings(max_examples=80)
def test_parse_print_roundtrip(p):
    assert parse(to_text(p), p.n) == p


@given(p=diff_polys())
@settings(max_examples=40)
def test_json_roundtrip_property(p):
    assert _json_roundtrip(p) == p


def _parse_outcome(parser, text, n):
    """("ok", n, terms) of the parsed polynomial, or ("error", message, position)."""
    try:
        p = parser(text, n)
    except ParseError as exc:
        return ("error", str(exc), exc.pos)
    return ("ok", p.n, p.terms)


# Pieces of the grammar, and stray characters: a letter, symbols outside the
# grammar, non-ASCII digits and whitespace, an integer past the digit limit.
FRAGMENTS = (["x", "x0", "x1", "x2", "x12", "0", "1", "2", "7", "10", "[", "]", "^", "*", "+",
              "-", "/", " ", "  ", "x0[1]", "x1^2", "3/4", "y", "@", "(", ".", "\u0663",
              "\uff15", "\t", "\n", "\u00a0"] + ["9" * 4301])


@st.composite
def parse_inputs(draw):
    """Joined fragments, or a valid sum with characters inserted, deleted or replaced."""
    n = draw(st.none() | st.integers(0, 3))
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=12))), n
    text, _, _ = draw(sum_texts())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS[:-1]) | st.just("")) + text[at + cut:]
    return text, n


@given(case=parse_inputs())
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_token_list_parser(case):
    # the same polynomial, or a ParseError with the same message and position
    text, n = case
    assert _parse_outcome(parse, text, n) == _parse_outcome(formal_parse, text, n)


@pytest.mark.parametrize("text", ["", "  ", "-", "x0 +", "x0 x1 @", "x0[2", "x0[^2", "x0[1][2]",
                                  "x0^2[1]", "x0^[1]", "x0[1]^", "3/", "3/ x0", "1/2/3", "3[1]",
                                  "x0/2", "x5[9]^", "x5 @", "x0 * 1/0 + @", "x 0", "- - x0",
                                  "x0^0 + 0*x1", "+x0 ]", "x0[" + "9" * 4301,
                                  "x1*x0[2]*x0*x0", "x1[1]*x0*x1^2",
                                  "x0[1]*x1 + 2*x0[1] - x0[1]*x1^2 + x0[1]",
                                  "x5^0", "x0 + x0*1/0", "x0 + x9", "x0 [ 2 ] ^ 3",
                                  "x0 + - x1", "+-x0", "x0 -- x1", "x0 -", "x0 *", "x0 * + x1",
                                  "x0 + 2*x1^" + "9" * 4301, "x0 + x\u0663"])
def test_parse_matches_the_token_list_parser_on_edge_cases(text):
    for n in (None, 1):
        assert _parse_outcome(parse, text, n) == _parse_outcome(formal_parse, text, n)


@pytest.mark.parametrize("n, d", [(1, 6), (2, 4), (3, 3)])
def test_parse_matches_the_token_list_parser_on_the_largest_basis_elements(n, d):
    # what the check benchmark feeds parse: to_text of canonical basis elements
    first, second = sorted((p for _, p in enumerate_canonical_basis(n, d)),
                           key=lambda p: -len(p.terms))[:2]
    for p in (first, first.scale(F(-3, 7)) + second.scale(F(5, 2))):
        text = to_text(p)
        assert _parse_outcome(parse, text, n) == _parse_outcome(formal_parse, text, n)
        assert parse(text, n) == p


@st.composite
def term_texts(draw, n):
    """One term as text, with the DiffPoly product of its factors."""
    pieces, value = [], DiffPoly.const(Fraction(1), n)
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            num, den = draw(st.integers(0, 12)), draw(st.sampled_from([None, 1, 2, 3, 6]))
            pieces.append(f"{num}" if den is None else f"{num}/{den}")
            value = value * DiffPoly.const(Fraction(num, den or 1), n)
        else:
            i, k, e = draw(st.integers(0, n)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
            text = f"x{i}"
            if k or draw(st.booleans()):
                text += f"[{k}]"
            if e != 1 or draw(st.booleans()):
                text += f"^{e}"
            pieces.append(text)
            value = value * DiffPoly.var(i, k, n) ** e
    sep = draw(st.sampled_from(["*", " * ", "*  "]))
    return sep.join(pieces), value


@st.composite
def sum_texts(draw):
    n = draw(st.integers(0, 2))
    text, value = "", DiffPoly.zero(n)
    for j in range(draw(st.integers(1, 4))):
        term, term_value = draw(term_texts(n))
        negative = draw(st.booleans())
        if j:
            text += " - " if negative else " + "
        elif negative:
            text += "-"
        text += term
        value = value - term_value if negative else value + term_value
    return text, n, value


@given(case=sum_texts())
@settings(max_examples=150)
def test_parse_matches_factor_products(case):
    text, n, value = case
    assert parse(text, n) == value


@pytest.mark.parametrize("text, n, expected", [
    ("x0*x0[1]*x0", 0, DiffPoly.var(0, 0, 0) ** 2 * DiffPoly.var(0, 1, 0)),
    ("x1[2]^0", 1, DiffPoly.const(Fraction(1), 1)),
    ("x0^0*x0^2*x0[1]^0", 0, DiffPoly.var(0, 0, 0) ** 2),
    ("x0*3/4*x1*2", 1, (DiffPoly.var(0, 0, 1) * DiffPoly.var(1, 0, 1)).scale(Fraction(3, 2))),
    ("x0*x1[1] - x1[1]*x0", 1, DiffPoly.zero(1)),
    ("2*x0^2 - x0*x0 - x0^2", 0, DiffPoly.zero(0)),
    ("0*x0[5]", 0, DiffPoly.zero(0)),
])
def test_parse_repeated_factors_zero_exponents_and_cancellation(text, n, expected):
    p = parse(text, n)
    assert p == expected
    assert all(p.terms.values())


# --- derive against the rebuild-and-sort derivation ------------------------

@st.composite
def derivations(draw, n):
    if draw(st.booleans()):
        return lowering(draw(st.integers(1, 4)))
    return gl_elementary(draw(st.integers(0, n)), draw(st.integers(0, n)))


@given(p=diff_polys(), data=st.data())
@settings(max_examples=200)
def test_derive_matches_formal_derive(p, data):
    image = data.draw(derivations(p.n))
    assert derive(p, image).terms == formal_derive(p, image).terms
    # int coefficients stay int
    q = p.with_terms({mono: c.numerator * 7 for mono, c in p.terms.items()})
    out = derive(q, image).terms
    assert out == formal_derive(q, image).terms
    assert all(type(c) is int for c in out.values())


# --- the derivation test against the formal Taylor-data substitution ------

def test_formal_verdict_examples():
    assert formal_verdict(parse(WRONSK2, 1)) == (True, 2)
    assert formal_verdict(parse("x0[1]", 0)) == (False, None)
    assert formal_verdict(parse("x0*x1[2] - x1*x0[2]", 1)) == (False, None)


BASIS_GRID = [(1, d) for d in range(1, 6)] + [(2, d) for d in range(1, 4)] + [(3, 1), (3, 2)]


@lru_cache(maxsize=None)
def canonical_basis(n: int, d: int) -> tuple[DiffPoly, ...]:
    return tuple(poly for _, poly in enumerate_canonical_basis(n, d))


@pytest.mark.parametrize("n, d", BASIS_GRID)
def test_basis_elements_agree_with_formal_substitution(n, d):
    for poly in canonical_basis(n, d):
        assert is_diff_homogeneous(poly) == formal_verdict(poly) == (True, d)


def _monomial(draw, n, orders):
    """The product of one x_i[k] per k in ``orders``, each i drawn from 0..n."""
    value = DiffPoly.const(Fraction(1), n)
    for k in orders:
        value = value * DiffPoly.var(draw(st.integers(0, n)), k, n)
    return value


@st.composite
def monomials(draw, n, degree, weight):
    """A monomial of the given degree and weight in x_0..x_n."""
    cuts = sorted(draw(st.lists(st.integers(0, weight), min_size=degree - 1, max_size=degree - 1)))
    return _monomial(draw, n, [b - a for a, b in zip([0] + cuts, cuts + [weight])])


@st.composite
def perturbed_basis_elements(draw):
    """A canonical basis element plus a monomial of its degree and weight."""
    n, d = draw(st.sampled_from(BASIS_GRID))
    poly = draw(st.sampled_from(canonical_basis(n, d)))
    mono = draw(monomials(n, d, gradings(poly).weight))
    return poly + mono.scale(draw(coeffs))


@given(p=perturbed_basis_elements())
@settings(max_examples=120, deadline=None)
def test_perturbed_basis_elements_agree_with_formal_substitution(p):
    assume(p)
    assert is_diff_homogeneous(p) == formal_verdict(p)


@st.composite
def order_three_monomials(draw, n, degree):
    """A monomial of the given degree in x_0..x_n, of order <= 3."""
    return _monomial(draw, n, [draw(st.integers(0, 3)) for _ in range(degree)])


@st.composite
def basis_combinations(draw):
    """A rational combination of basis elements of one (N, d) with order <= 3,
    sometimes plus monomials of degree d and order <= 3."""
    n, d = draw(st.sampled_from([(n, d) for n, d in BASIS_GRID if d <= 3]))
    basis = [poly for poly in canonical_basis(n, d) if gradings(poly).order <= 3]
    p = DiffPoly.zero(n)
    for poly in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4)):
        p = p + poly.scale(draw(coeffs))
    for mono in draw(st.lists(order_three_monomials(n, d), max_size=2)):
        p = p + mono.scale(draw(coeffs))
    return p


@given(p=basis_combinations())
@settings(max_examples=150, deadline=None)
def test_homogeneous_order_three_polynomials_agree_with_formal_substitution(p):
    assume(p)
    assert is_diff_homogeneous(p) == formal_verdict(p)


@given(p=diff_polys())
@settings(max_examples=120, deadline=None)
def test_order_three_polynomials_agree_with_formal_substitution(p):
    assert is_diff_homogeneous(p) == formal_verdict(p)


@given(p=basis_combinations() | perturbed_basis_elements(),
       den=st.sampled_from([2, 3, 7, 12, 7919]), num=st.integers(-20, 20).filter(bool))
@settings(max_examples=120, deadline=None)
def test_polynomials_with_denominators_agree_with_formal_substitution(p, den, num):
    # the integer L_m test runs on p times the lcm of its denominators
    q = p.scale(Fraction(num, den))
    assume(any(c.denominator != 1 for c in q.terms.values()))
    assert is_diff_homogeneous(q) == formal_verdict(q) == is_diff_homogeneous(p)


@st.composite
def non_isobaric_sums(draw):
    """A rational combination of basis elements of one (N, d) at two or more
    weights, sometimes plus a monomial of degree d at another weight."""
    n, d = draw(st.sampled_from([(n, d) for n, d in BASIS_GRID if d >= 2]))
    by_weight: dict[int, list[DiffPoly]] = {}
    for poly in canonical_basis(n, d):
        by_weight.setdefault(gradings(poly).weight, []).append(poly)
    weights = draw(st.lists(st.sampled_from(sorted(by_weight)), min_size=2, max_size=3,
                            unique=True))
    p = DiffPoly.zero(n)
    for w in weights:
        p = p + draw(st.sampled_from(by_weight[w])).scale(draw(coeffs))
    if draw(st.booleans()):
        p = p + draw(monomials(n, d, draw(st.integers(0, d * (d - 1))))).scale(draw(coeffs))
    return p


@given(p=diff_polys() | perturbed_basis_elements() | basis_combinations() | non_isobaric_sums())
@settings(max_examples=300, deadline=None)
def test_packed_code_test_matches_the_derivation_and_substitution_oracles(p):
    # L_m on packed codes, one m at a time and unsplit by weight, against
    # derive over (i, k, e) tuples and the Taylor-data substitution
    assume(p)
    assert is_diff_homogeneous(p) == formal_derivation_verdict(p) == formal_verdict(p)


# --- the GL action on the columns of the Wronskian matrix -------------------

ACTION_GRID = ([(1, d) for d in range(1, 6)] + [(2, d) for d in range(1, 5)]
               + [(3, d) for d in range(1, 4)])


def _action_matrices(size: int, seed: int) -> list[list[list]]:
    """Seeded matrices: two integer ones (Fraction entries, then int
    entries), one with denominators up to 4, a singular one (two equal rows)
    and the zero matrix."""
    rng = random.Random(seed)

    def draw():
        return [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]

    singular = draw()
    singular[-1] = list(singular[0])
    return [[[F(x) for x in row] for row in draw()], draw(),
            [[F(x, rng.randint(1, 4)) for x in row] for row in draw()], singular,
            [[0] * size for _ in range(size)]]


@pytest.mark.parametrize("n, d", ACTION_GRID)
def test_matrix_action_matches_formal_on_canonical_basis(n, d):
    # the matrix acts on the columns of the Wronskian matrix: the column of
    # t^e x_v, entry r!/(r-e)! x_v[r-e] in row r, becomes that of
    # t^e sum_l a[v][l] x_l, and the determinant is the formal image
    zero, one = DiffPoly.zero(n), DiffPoly.const(F(1), n)
    for a in _action_matrices(n + 1, 1009 * n + d):
        for datum, poly in enumerate_canonical_basis(n, d):
            rows = [[DiffPoly(n, {((l, r - e, 1),): math.perm(r, e) * a[v][l]
                                  for l in range(n + 1) if a[v][l]}) if r >= e else zero
                     for e, v in datum.pairs()] for r in range(d)]
            assert det_expansion(rows, zero, one).terms == formal_matrix_action(a, poly).terms
