"""Wronskian construction, the canonical basis, triangular rewriting, wedges.

The packed row-by-row expansion of ``build_wronskian`` (monomial entries)
is compared against the minor expansion ``det_expansion`` of the Wronskian
matrix over DiffPoly, whose entries ``formal`` computes independently from
``UniPoly`` derivatives, and against the tuple expansion it replaced.  The
shifted-power family of ``scripts/theta_ranks.py``, a sum of monomial
Wronskians by multilinearity, is compared against both on rational entries.
The row-by-row expansion ``_expand`` itself, on matrices of one monomial
(or zero) per entry, is compared against ``det_expansion`` over DiffPoly,
and the order-major census codes against the decoded canonical basis.
The memoized rewriting and the graded exterior pass of the wedge identities
are compared against the work queue and the ``det_expansion`` minors of
``formal``.
"""

import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diffhom.dpoly import (DiffPoly, MonoCodec, derive, gradings, is_diff_homogeneous,
                           parse, solve_in_span, span_rank, substitute, to_text)
from diffhom import wronskian
from diffhom.exact import det_expansion, linear_combination
from diffhom.wronskian import (_codec, _expand, _integral_rows, _wedge_coordinates,
                               basis_manifest, build_wronskian, canonical_codes,
                               enumerate_canonical_basis, enumerate_canonical_data,
                               first_wedge_failure, formal_codes, reduce_to_triangular,
                               standard_nilpotent, verify_wedge_identity)
from formal import (UniPoly, WronskSpec, code_order, expand_combination,
                    formal_build_wronskian, formal_canonical_codes, formal_matrix_action,
                    formal_reduce_to_triangular, formal_wedge_coordinates, formal_wronskian,
                    lowering, oracle_wronskian, wronskian_matrix)

F = Fraction


def _script(name: str):
    """The module of ``scripts/<name>.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


theta_ranks = _script("theta_ranks")
theta_family_rank = theta_ranks.theta_family_rank


def assert_matches_oracle(spec: WronskSpec, n: int, built: DiffPoly, coeff_type=int) -> None:
    """``built`` is the Wronskian of ``spec``, every coefficient of
    ``coeff_type``: ``int`` for a Wronskian of monomial entries, ``Fraction``
    for the script's sums of them with ``Fraction`` weights."""
    assert built == oracle_wronskian(spec, n)
    assert all(type(c) is coeff_type for c in built.terms.values())


def test_wronskian_degree_one():
    assert build_wronskian([(0, 0)], 0) == parse("x0", 0)


def test_wronskian_repeated_variable_gives_square():
    assert build_wronskian([(0, 0), (1, 0)], 0) == parse("x0^2", 0)


def test_wronskian_matrix_entries_match_hand_expansion():
    # W(x0, t x0, t x1, t^3 x1, x2, t^4 x2) with N = 2
    spec = WronskSpec.monomials([0, 1, 1, 3, 0, 4], [0, 0, 1, 1, 2, 2])
    mat = wronskian_matrix(spec, 2)
    assert mat[3][3] == parse("6*x1", 2)
    assert mat[4][5] == parse("24*x2", 2)
    assert mat[5][5] == parse("120*x2[1]", 2)
    assert not mat[0][1]


@pytest.mark.parametrize("n, d", [(1, d) for d in range(1, 7)] + [(2, d) for d in range(1, 5)]
                         + [(3, d) for d in range(1, 4)])
def test_build_wronskian_matches_det_expansion_on_canonical_data(n, d):
    # every element of the canonical basis is a build_wronskian
    for datum, poly in enumerate_canonical_basis(n, d):
        assert_matches_oracle(WronskSpec.monomials(*zip(*datum.pairs())), n, poly)


def _theta_family(n, d, theta):
    """(spec, the script's Wronskian) for every index tuple of the
    shifted-power family of (N, d, theta)."""
    for tup in itertools.product(range(n + 1), repeat=d):
        spec = WronskSpec(tuple((UniPoly.shifted_power(theta, j), v) for j, v in enumerate(tup)))
        yield spec, theta_ranks.shifted_wronskian(tup, theta, n)


@pytest.mark.parametrize("theta", [F(1), F(-2, 3), F(5, 2)])
def test_build_wronskian_matches_det_expansion_on_theta_family(theta):
    # rational entries (theta+t)^j, summed from monomial Wronskians
    for n, d in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        for spec, built in _theta_family(n, d, theta):
            assert_matches_oracle(spec, n, built, Fraction)


def _every_term_shifted_wronskian(variables, theta, n):
    """The script's shifted_wronskian before it skipped the zero terms: the
    sum of all d! monomial Wronskians."""
    theta = F(theta)
    return linear_combination(DiffPoly.zero(n), (
        (math.prod(math.comb(j, m) * theta ** (j - m) for j, m in enumerate(ms)),
         build_wronskian(tuple(zip(ms, variables)), n))
        for ms in itertools.product(*(range(j + 1) for j in range(len(variables))))))


@pytest.mark.parametrize("theta", [F(1), F(-2, 3)])
def test_shifted_wronskian_matches_the_sum_of_every_term(theta):
    for n, d in [(0, 4), (1, 1), (1, 2), (1, 3), (1, 4), (2, 3)]:
        for tup in itertools.product(range(n + 1), repeat=d):
            assert (theta_ranks.shifted_wronskian(tup, theta, n)
                    == _every_term_shifted_wronskian(tup, theta, n)), (tup, theta)


def test_build_formal_wronskian_matches_det_expansion():
    for d in range(1, 5):
        for alpha in itertools.product(range(d + 1), repeat=d):
            spec = WronskSpec.monomials(alpha, tuple(range(d)))
            assert_matches_oracle(spec, d - 1, formal_wronskian(alpha))


@pytest.mark.parametrize("n, d, theta", [(1, 5, F(1)), (1, 5, F(-2, 3)), (2, 4, F(5, 2)),
                                         (3, 3, F(-1))])
def test_build_wronskian_matches_tuple_expansion_on_theta_family(n, d, theta):
    for spec, built in _theta_family(n, d, theta):
        assert built == formal_build_wronskian(spec, n)


def test_build_wronskian_matches_tuple_expansion_on_formal_specs():
    # d = 5 over five distinct variables, and every exponent of {0..5}^3
    rng = random.Random(5)
    alphas = [tuple(rng.randrange(6) for _ in range(5)) for _ in range(40)]
    alphas += list(itertools.product(range(4), repeat=3))
    for alpha in alphas:
        spec = WronskSpec.monomials(alpha, tuple(range(len(alpha))))
        assert formal_wronskian(alpha) == formal_build_wronskian(spec, len(alpha) - 1)


def _order_major_mono(w, bits, l):
    """The monomial of an order-major census code: x_v[k] in the field of
    ``bits`` bits at index k*l + v, as (i, k, e) factors in (i, -k) order."""
    mask = (1 << bits) - 1
    factors = []
    field = 0
    while w >> field * bits:
        e = w >> field * bits & mask
        if e:
            k, v = divmod(field, l)
            factors.append((v, k, e))
        field += 1
    return tuple(sorted(factors, key=lambda f: (f[0], -f[1])))


@pytest.mark.parametrize("n, d", [(1, 5), (2, 4), (3, 3), (0, 4)])
def test_canonical_codes_decode_to_the_canonical_basis(n, d):
    data = enumerate_canonical_data(n, d)
    width, rows = canonical_codes(d, n + 1, data)
    bits = d.bit_length()
    assert width == bits * (n + 1)
    basis = enumerate_canonical_basis(n, d)
    assert [datum for datum, _ in basis] == data and len(rows) == len(data)
    rows_factorial = math.prod(math.factorial(r) for r in range(d))
    for codes, (_, poly) in zip(rows, basis):
        assert all(type(c) is int for c in codes.values())
        # each coefficient times c(M) = prod_{r<d} r! / prod k!^e
        decoded = {}
        for w, c in codes.items():
            mono = _order_major_mono(w, bits, n + 1)
            scale = math.prod(math.factorial(k) ** e for _, k, e in mono)
            assert rows_factorial % scale == 0
            decoded[mono] = F(c * rows_factorial // scale)
        assert DiffPoly(n, decoded) == poly
        # the top field of a code is its jet order, so codes sort by order
        assert {w: (w.bit_length() - 1) // width for w in codes} == {
            w: max((k for _, k, _ in _order_major_mono(w, bits, n + 1)), default=0)
            for w in codes}


def test_mono_codec_round_trip():
    codec = MonoCodec(4, 3)
    mono = ((0, 3, 2), (0, 0, 1), (2, 2, 7), (5, 1, 1))
    w = sum(e * codec.unit(i, k) for i, k, e in mono)
    assert codec.decode(w) == mono and code_order(codec, w) == 3
    assert codec.decode(0) == () and code_order(codec, 0) == 0
    assert code_order(codec, codec.unit(3, 0) * 5) == 0


def _random_monomial_matrix(rng, d, codec):
    """A d x d matrix of monomial entries (code, nonzero int) or None, drawn
    from a few variables, orders and coefficients so that codes collide, and
    at times with a repeated row, whose determinant is zero."""
    forms = [[(codec.unit(rng.randrange(2), rng.randrange(3)), rng.choice((-2, -1, 1, 3)))
              if rng.random() < 0.7 else None for _ in range(d)] for _ in range(d)]
    if d > 1 and rng.random() < 0.2:
        forms[-1] = list(forms[0])
    return forms


@pytest.mark.parametrize("d", range(1, 7))
def test_expand_matches_det_expansion_on_monomial_matrices(d):
    # one monomial or zero per entry, against the minor expansion over
    # DiffPoly; colliding codes make terms cancel
    rng = random.Random(d)
    codec = _codec(6)
    one, zero = DiffPoly.const(F(1), 1), DiffPoly.zero(1)
    cancelled = 0
    for _ in range(40 if d < 6 else 12):
        forms = _random_monomial_matrix(rng, d, codec)
        rows = [[DiffPoly(1, {codec.decode(e[0]): F(e[1])}) if e else zero for e in row]
                for row in forms]
        expected = det_expansion(rows, zero, one)
        got = _expand(forms)
        assert all(type(c) is int and c for c in got.values())
        assert DiffPoly(1, {codec.decode(w): F(c) for w, c in got.items()}) == expected
        cancelled += not got and all(any(row) for row in forms)
    assert d == 1 or cancelled


@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (0, 5)])
def test_mono_codec_lowered_matches_derive(n, d):
    # L_1 + ... + L_top on packed codes against derive with lowering(m),
    # summed over m, on the canonical basis and on top = 1 alone
    codec, rows = formal_canonical_codes(d, enumerate_canonical_data(n, d))
    for _, codes in rows:
        poly = DiffPoly(n, {codec.decode(w): F(c) for w, c in codes.items()})
        for top in (1, d - 1):
            expected = DiffPoly.zero(n)
            for m in range(1, top + 1):
                expected = expected + derive(poly, lowering(m))
            got = codec.lowered(codes, top)
            assert DiffPoly(n, {codec.decode(w): F(c) for w, c in got.items()}) == expected


def test_mono_codec_lowered_exponents():
    # x0[2]^3 x1[1]: L_1 moves one unit of x0[2] to x0[1] (times 3 * 2) or
    # x1[1] to x1 (times 1); L_2 moves x0[2] to x0 (times 3 * 1)
    codec = MonoCodec(3, 2)
    p = {3 * codec.unit(0, 2) + codec.unit(1, 1): 5}
    got = {codec.decode(w): c for w, c in codec.lowered(p, 2).items()}
    assert got == {((0, 2, 2), (0, 1, 1), (1, 1, 1)): 30,
                   ((0, 2, 3), (1, 0, 1)): 5,
                   ((0, 2, 2), (0, 0, 1), (1, 1, 1)): 15}


def test_build_wronskian_rejects_bad_specs():
    with pytest.raises(ValueError, match="at least one entry"):
        build_wronskian((), 0)
    with pytest.raises(ValueError, match="variable index 2 exceeds bound 1"):
        build_wronskian([(0, 0), (1, 2)], 1)


def test_wronskian_column_scaling_multilinearity():
    # the tuple expansion of a column scaled by 3 against the library's
    # unscaled monomial Wronskian
    base = WronskSpec.monomials([0, 1], [0, 1])
    scaled = WronskSpec(((UniPoly([F(3)]), 0), base.entries[1]))
    assert formal_build_wronskian(scaled, 1) == build_wronskian([(0, 0), (1, 1)], 1).scale(F(3))


def test_wronskian_equal_columns_vanish():
    assert not build_wronskian([(1, 0), (1, 0)], 0)


def test_canonical_basis_single_variable():
    basis = enumerate_canonical_basis(0, 2)
    assert len(basis) == 1
    datum, poly = basis[0]
    assert datum.m == (2,) and datum.flat_alpha == (0, 1)
    assert poly == parse("x0^2", 0)


def test_canonical_basis_two_variables_degree_two():
    basis = enumerate_canonical_basis(1, 2)
    polys = {to_text(p) for _, p in basis}
    assert polys == {"x1^2", "x0*x1", "x0^2", "-x0[1]*x1 + x0*x1[1]"}
    assert span_rank([p for _, p in basis]) == 4


@pytest.mark.parametrize("n, d", [(1, 5), (2, 4), (0, 3)])
def test_canonical_basis_shares_one_tuple_per_factor(n, d):
    # every element decodes under the one codec of degree d, so each distinct
    # (i, k, e) factor of the whole basis is one object; the memory of
    # `dh basis` rests on it
    factors = [f for _, poly in enumerate_canonical_basis(n, d) for mono in poly.terms
               for f in mono]
    assert len({id(f) for f in factors}) == len(set(factors))


def test_canonical_data_invariants():
    for n, d in [(1, 3), (2, 2), (3, 2)]:
        data = enumerate_canonical_data(n, d)
        assert len(data) == (n + 1) ** d
        for datum in data:
            flat = datum.flat_alpha
            assert all(a <= i - 1 for i, a in enumerate(flat, start=1))
            assert sum(datum.m) == d


def test_canonical_basis_properties():
    for n, d in [(0, 4), (1, 3), (2, 2)]:
        basis = enumerate_canonical_basis(n, d)
        assert len(basis) == (n + 1) ** d
        for datum, poly in basis:
            assert poly
            g = gradings(poly)
            assert g.order <= d - 1
            assert is_diff_homogeneous(poly) == (True, d)
        assert span_rank([p for _, p in basis]) == (n + 1) ** d


def test_gl_stability_seeded():
    rng = random.Random(4242)
    for n, d in [(1, 3), (2, 2)]:
        basis = [p for _, p in enumerate_canonical_basis(n, d)]
        for _ in range(3):
            a = [[F(rng.randint(-4, 4)) for _ in range(n + 1)] for _ in range(n + 1)]
            image = formal_matrix_action(a, basis[rng.randrange(len(basis))])
            if not image:
                continue
            assert solve_in_span(basis, [image])[0] is not None


def test_general_coefficient_wronskian_is_diff_homogeneous():
    # arbitrary one-variable coefficient polynomials, not just monomials t^a
    specs = [
        WronskSpec(((UniPoly([F(1), F(2), F(1)]), 0),    # (1+t)^2
                    (UniPoly([F(2), F(-1)]), 1),         # 2 - t
                    (UniPoly([F(0), F(0), F(0), F(1)]), 0))),  # t^3
        WronskSpec(((UniPoly([F(1), F(1)]), 0),
                    (UniPoly([F(1), F(1)]), 1))),
    ]
    for spec in specs:
        w = formal_build_wronskian(spec, 1)
        assert w == oracle_wronskian(spec, 1)
        if w:
            assert is_diff_homogeneous(w) == (True, spec.d)


def test_formal_wronskian_basics():
    assert formal_wronskian((0,)) == parse("x0", 0)
    w = formal_wronskian((0, 0))
    assert w == parse("x0*x1[1] - x1*x0[1]", 1)
    assert not formal_wronskian((1, 1))
    assert not formal_wronskian((0, 2))  # exponent >= d gives zero


def test_reduce_triangular_is_identity_on_triangular():
    assert reduce_to_triangular((0, 1, 0)) == [(F(1), (0, 1, 0))]


def test_reduce_single_violation_degree_two():
    assert reduce_to_triangular((1, 0)) == [(F(-1), (0, 1))]


def test_reduce_identity_exhaustive_small():
    for d in range(1, 4):
        for alpha in itertools.product(range(d), repeat=d):
            direct = formal_wronskian(alpha)
            reduced = reduce_to_triangular(alpha)
            for _, idx in reduced:
                assert all(a <= i - 1 for i, a in enumerate(idx, start=1))
            assert expand_combination(reduced, d) == direct


@pytest.mark.parametrize("d", range(1, 6))
def test_reduce_matches_work_queue_oracle(d):
    # every tuple of {0..d}^d: those with an entry equal to d index the zero
    # polynomial and rewrite to []
    for alpha in itertools.product(range(d + 1), repeat=d):
        reduced = reduce_to_triangular(alpha)
        assert reduced == formal_reduce_to_triangular(alpha), alpha
        assert all(type(c) is int for c, _ in reduced)
        if d in alpha:
            assert reduced == []


@pytest.mark.parametrize("alpha", [(6, 5, 4, 3, 2, 1, 0), (6, 0, 5, 1, 4, 2, 3)])
def test_reduce_matches_work_queue_oracle_at_seven(alpha):
    assert reduce_to_triangular(alpha) == formal_reduce_to_triangular(alpha)


@pytest.mark.parametrize("d", range(1, 5))
def test_formal_codes_decode_to_the_formal_wronskians(d):
    # the column-by-column prefix walk against the per-tuple row expansion
    codec = _codec(d)
    walked = list(formal_codes(d))
    assert [alpha for alpha, _ in walked] == list(itertools.product(range(d), repeat=d))
    for alpha, codes in walked:
        assert all(type(c) is int and c for c in codes.values())
        decoded = DiffPoly(d - 1, {codec.decode(w): F(c) for w, c in codes.items()})
        assert decoded == formal_wronskian(alpha), alpha


def test_trailing_substitution_lands_in_canonical_basis():
    # evaluating the distinct formal variables at repeated actual variables
    # maps each triangular element to a canonical basis element, or to zero
    n, d = 1, 3
    basis = [p for _, p in enumerate_canonical_basis(n, d)]
    triangular = [alpha for alpha in itertools.product(range(d), repeat=d)
                  if all(a <= i - 1 for i, a in enumerate(alpha, start=1))]
    for alpha in triangular:
        for assign in itertools.combinations_with_replacement(range(n + 1), d):
            w = formal_wronskian(alpha)
            image = substitute(w, lambda i, k: DiffPoly.var(assign[i], k, n), n_out=n)
            if not image:
                continue
            [coords] = solve_in_span(basis, [image])
            assert coords is not None
            nonzero = [c for c in coords if c]
            assert len(nonzero) == 1 and abs(nonzero[0]) == 1


def test_wedge_identity_top_and_bottom():
    nil = standard_nilpotent(3)
    assert verify_wedge_identity(nil, [(F(1), F(1), F(1))], 3)
    vectors = [(F(1), F(0), F(2)), (F(0), F(1), F(1)), (F(3), F(1), F(0))]
    assert verify_wedge_identity(nil, vectors, 1)


def test_wedge_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_wedge_identity([[F(1)]], [(F(1),)], 1)  # not nilpotent
    with pytest.raises(ValueError):
        verify_wedge_identity(standard_nilpotent(2), [(F(1), F(0))], 1)  # wrong count


def test_wedge_identity_checks_nilpotence_once_per_matrix():
    from diffhom import wronskian

    wronskian._is_nilpotent.cache_clear()
    nil = standard_nilpotent(4)
    for j in range(4):
        assert verify_wedge_identity(nil, [tuple(F(r == j) for r in range(4))] * 2, 3)
    assert verify_wedge_identity([list(row) for row in nil], [(F(1),) * 4] * 2, 3)
    assert wronskian._is_nilpotent.cache_info().misses == 1
    with pytest.raises(ValueError):
        verify_wedge_identity([[F(0), F(1)], [F(1), F(0)]], [(F(1), F(0))] * 2, 1)


def _per_tuple_failure(matrix, vectors, i):
    """The first tuple whose identity fails, one verify_wedge_identity call
    per tuple of indices in lexicographic order."""
    count = len(matrix) - i + 1
    return next((tup for tup in itertools.product(range(len(vectors)), repeat=count)
                 if not verify_wedge_identity(matrix, [vectors[j] for j in tup], i)), None)


def _vector_families(d: int, rng: random.Random):
    basis = [tuple(F(r == j) for r in range(d)) for j in range(d)]
    return [basis, basis[::-1],
            [tuple(_rational(rng) if rng.random() < 0.5 else F(0) for _ in range(d))
             for _ in range(d + 1)]]


@pytest.mark.parametrize("d", range(1, 5))
def test_first_wedge_failure_matches_the_per_tuple_loop(d):
    rng = random.Random(31 * d)
    for vectors in _vector_families(d, rng):
        for i in range(1, d + 1):
            assert _per_tuple_failure(standard_nilpotent(d), vectors, i) is None
            assert first_wedge_failure(standard_nilpotent(d), vectors, i) is None


@pytest.mark.parametrize("d", range(1, 5))
def test_first_wedge_failure_finds_an_injected_failure(d, monkeypatch):
    # a diagonal entry makes the matrix not nilpotent, and the nilpotence
    # test is bypassed, so some tuples fail; the walk names the same first
    # one as the per-tuple loop (for the standard basis at d = 4 and i = 1
    # that is (0, 1, 2, 3), past every tuple with a repeated vector)
    monkeypatch.setattr(wronskian, "_is_nilpotent", _integral_rows)
    rng = random.Random(37 * d)
    found = []
    for corner in range(d):
        matrix = standard_nilpotent(d)
        matrix[corner][corner] = F(1 + corner)
        for vectors in _vector_families(d, rng):
            for i in range(1, d + 1):
                expected = _per_tuple_failure(matrix, vectors, i)
                assert first_wedge_failure(matrix, vectors, i) == expected, (matrix, vectors, i)
                found.append(expected)
    assert any(tup is not None and any(tup) for tup in found)
    if d == 4:
        basis = _vector_families(d, rng)[0]
        matrix = standard_nilpotent(d)
        matrix[3][3] = F(1)
        assert first_wedge_failure(matrix, basis, 1) == (0, 1, 2, 3)


def test_first_wedge_failure_rejects_bad_input():
    with pytest.raises(ValueError):
        first_wedge_failure([[F(1)]], [(F(1),)], 1)  # not nilpotent
    with pytest.raises(ValueError):
        first_wedge_failure(standard_nilpotent(2), [(F(1), F(0))], 3)  # i out of range


def test_wedge_identity_random_seeded():
    rng = random.Random(99)
    for d in range(2, 5):
        nil = standard_nilpotent(d)
        for i in range(1, d + 1):
            for _ in range(5):
                vectors = [tuple(F(rng.randint(-6, 6)) for _ in range(d))
                           for _ in range(d - i + 1)]
                assert verify_wedge_identity(nil, vectors, i)


def _rational(rng: random.Random) -> Fraction:
    return F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))


def _random_matrix(d: int, rng: random.Random, diagonal: bool, full: bool) -> list[list[Fraction]]:
    """Random rational entries below the diagonal, and above it when ``full``;
    a positive diagonal when ``diagonal``, else zeros on it."""
    def entry(r: int, c: int) -> Fraction:
        if c == r:
            return F(rng.randint(1, 5), rng.randint(1, 3)) if diagonal else F(0)
        return _rational(rng) if c < r or full else F(0)
    return [[entry(r, c) for c in range(d)] for r in range(d)]


def _wedge_matrices(d: int, rng: random.Random):
    """(matrix, kind): the standard nilpotent map and two strictly lower
    triangular matrices ("nilpotent"), two lower triangular ones with a
    positive diagonal ("invertible sum") and one full matrix with a positive
    diagonal ("other")."""
    return [(standard_nilpotent(d), "nilpotent"),
            *[(_random_matrix(d, rng, False, False), "nilpotent") for _ in range(2)],
            *[(_random_matrix(d, rng, True, False), "invertible sum") for _ in range(2)],
            (_random_matrix(d, rng, True, True), "other")]


@pytest.mark.parametrize("d", range(1, 6))
def test_wedge_pass_matches_minor_oracle(d):
    # the pass sums M^a1 w_1 ^ ... over |a| = i with M the matrix scaled by
    # the lcm D of its denominators and each w_j the vector v_j scaled by the
    # lcm L_j of its own: the oracle's coordinates times D^i prod L_j.  The
    # vectors are in echelon form, so independent.  The sum is the t^i part
    # of wedge^c (1 - tN)^-1 applied to v_1 ^ ... ^ v_c, and for N lower
    # triangular with a positive diagonal that map is triangular with the
    # complete symmetric polynomials h_i of the diagonal, all positive, on its
    # diagonal: those sums cannot vanish, so a pass that loses terms fails
    rng = random.Random(7919 * d)
    for matrix, kind in _wedge_matrices(d, rng):
        rows = _integral_rows(matrix)
        big_d = math.lcm(*(c.denominator for row in matrix for c in row))
        for i in range(1, d + 1):
            vectors = [tuple(F(0) if r < j else _rational(rng) for r in range(d))
                       for j in range(d - i + 1)]
            scale = big_d ** i * math.prod(math.lcm(*(c.denominator for c in v))
                                           for v in vectors)
            expected = {sum(1 << r for r in key): c * scale
                        for key, c in formal_wedge_coordinates(matrix, vectors, i).items() if c}
            got = _wedge_coordinates(rows, vectors, i)
            assert got == expected, (matrix, vectors, i)
            assert all(type(c) is int for c in got.values())
            if kind == "nilpotent":
                assert not got
            elif kind == "invertible sum":
                assert got


def test_theta_family_degree_one():
    assert theta_family_rank(2, 1, F(1)) == 3


def test_theta_family_rejects_zero():
    with pytest.raises(ValueError):
        theta_family_rank(1, 2, F(0))


def test_theta_family_observed_ranks():
    # recorded observations; the full-rank value is conjectural, not asserted
    observed = {(1, 2): theta_family_rank(1, 2, F(1)),
                (1, 3): theta_family_rank(1, 3, F(1))}
    for (n, d), r in observed.items():
        assert 1 <= r <= (n + 1) ** d


def test_manifest_shape():
    manifest = basis_manifest(1, 2)
    assert len(manifest) == 4
    entry = manifest[1]
    assert set(entry) == {"m", "alpha", "order", "weight", "poly"}
    assert entry["m"] == [1, 1] and entry["alpha"] == [0, 0]
    assert entry["order"] == 1 and entry["weight"] == 1


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_reduce_identity_random_degree_four(data):
    alpha = tuple(data.draw(st.integers(0, 3)) for _ in range(4))
    direct = formal_wronskian(alpha)
    assert expand_combination(reduce_to_triangular(alpha), 4) == direct
