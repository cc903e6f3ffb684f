"""Exact scalars and deterministic linear algebra on sparse row dicts.

sympy is an independent oracle here (tests only): ranks, reduced kernel
bases and determinants are compared with its dense exact results.
"""

import copy
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from diffhom.exact import (ONE, ZERO, SparseComb, _forward, det_expansion, echelon,
                           linear_combination, nullspace_basis, operator_rows,
                           pivot_columns, rank, solve_in_span, span_rank)
from formal import ParamPoly

F = Fraction
P0 = ParamPoly.const(0)
P1 = ParamPoly.const(1)

sympy_det = sympy.Matrix.det


def sparse(dense):
    return [{j: F(v) for j, v in enumerate(row) if v} for row in dense]


def to_sympy(rows, ncols):
    def entry(i, j):
        v = F(rows[i].get(j, 0))
        return sympy.Rational(v.numerator, v.denominator)
    return sympy.Matrix(len(rows), ncols, entry)


def family(*columns):
    """Sparse combinations over the keys 0, 1, ...: one per dense column."""
    return [SparseComb(sparse([col])[0]) for col in columns]


def from_sympy(x):
    return F(int(x.p), int(x.q))


def param_to_sympy(p: ParamPoly):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(sympy.Symbol(n) ** e for n, e in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


def test_rank_empty_matrix():
    assert rank([], 0) == 0


def test_rank_identity():
    assert rank(sparse([[1 if i == j else 0 for j in range(3)] for i in range(3)]), 3) == 3


def test_rank_dependent_rows():
    assert rank(sparse([[1, 2], [2, 4]]), 2) == 1


def test_nullspace_identity_empty():
    assert nullspace_basis(sparse([[1, 0], [0, 1]]), 2) == []


def test_nullspace_single_relation():
    assert nullspace_basis(sparse([[1, 1]]), 2) == [{0: F(1), 1: F(-1)}]


def test_nullspace_zero_matrix():
    basis = nullspace_basis([{}], 3)
    assert len(basis) == 3
    assert basis[0] == {0: F(1)}


def test_nullspace_vectors_annihilate():
    rows = sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    for v in nullspace_basis(rows, 3):
        for row in rows:
            assert sum(c * v.get(j, 0) for j, c in row.items()) == 0


def test_rank_nullspace_solve_leave_input_intact():
    rows = sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis, (target,) = [SparseComb(r) for r in rows], family([1, 0, 2])
    before = copy.deepcopy((rows, [b.terms for b in basis], target.terms))
    rank(rows, 3)
    nullspace_basis(rows, 3)
    span_rank(basis)
    solve_in_span(basis, [target])
    assert (rows, [b.terms for b in basis], target.terms) == before


def test_solve_exact_solution():
    # x0 + x1 = 3, x0 - x1 = 1: the columns (1, 1) and (1, -1), the target (3, 1)
    (target,) = family([3, 1])
    assert solve_in_span(family([1, 1], [1, -1]), [target]) == [[F(2), F(1)]]


def test_solve_rejects_inconsistent_system():
    (target,) = family([1, 3])
    assert solve_in_span(family([1, 2], [1, 2]), [target]) == [None]


def test_solve_checks_empty_rows_with_nonzero_rhs():
    # the key 1 is in no basis member: 0 = 1 has no solution
    basis = family([1, 0])
    assert solve_in_span(basis, family([2, 1])) == [None]
    assert solve_in_span(basis, family([2, 0])) == [[F(2)]]


def test_operator_rows_sorted_outputs_and_columns():
    # three input keys mapped onto the output keys 0 and 1
    keys = ["a", "b", "c"]
    images = {"a": [(1, F(1))], "b": [(0, F(2)), (1, F(5))], "c": [(0, F(3))]}
    rows = operator_rows(keys, lambda key: images[key])
    assert rows == [{1: F(2), 2: F(3)}, {0: F(1), 1: F(5)}]
    assert list(rows[0]) == [1, 2]
    assert operator_rows([], lambda key: []) == []


def test_det_single_parameter():
    mu = ParamPoly.var("mu0")
    assert det_expansion([[mu]], P0, P1) == mu


def test_det_two_by_two():
    t = ParamPoly.var("t")
    assert det_expansion([[P1, t], [t, P1]], P0, P1) == P1 - t ** 2


def test_det_repeated_rows_is_zero():
    assert not det_expansion([[F(1), F(1), F(1)]] * 3, ZERO, ONE)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_expansion([[F(1), F(2), F(3)], [F(4), F(5), F(6)]], ZERO, ONE)


def test_det_matches_expansion():
    t = ParamPoly.var("t")
    u = ParamPoly.var("u")
    rows = [[t, u, P1],
            [ParamPoly.const(2), t * u, u],
            [t + u, P0, t]]
    oracle = sympy_det(sympy.Matrix([[param_to_sympy(e) for e in row] for row in rows]))
    got = param_to_sympy(det_expansion(rows, P0, P1))
    assert sympy.expand(oracle - got) == 0


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(a=rationals.filter(bool), b=rationals.filter(bool))
def test_rational_arithmetic_exact(a, b):
    assert (a / b) * (b / a) == 1


@st.composite
def small_matrices(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if draw(st.booleans()):
                v = draw(rationals)
                if v:
                    row[c] = v
        rows.append(row)
    return rows, ncols


big_rationals = st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))


@st.composite
def structured_matrices(draw, max_block_rows=4, max_cols=7):
    """Sparse rational matrices that stress the elimination: non-integral and
    large entries, repeated rows and scaled copies, and a hidden block
    structure (two independent blocks on interleaved column sets, their rows
    shuffled together)."""
    ncols = draw(st.integers(1, max_cols))
    in_a = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
    entries = rationals | big_rationals
    rows = []
    for block in (True, False):
        cols = [c for c in range(ncols) if in_a[c] == block]
        for _ in range(draw(st.integers(0, max_block_rows))):
            row = {}
            for c in cols:
                if draw(st.booleans()):
                    v = draw(entries)
                    if v:
                        row[c] = v
            rows.append(row)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        scale = draw(entries.filter(bool))
        rows.append({c: v * scale for c, v in draw(st.sampled_from(rows)).items()})
    return draw(st.permutations(rows)), ncols


matrices = small_matrices(max_rows=6, max_cols=6) | structured_matrices()


@given(m=small_matrices())
@settings(max_examples=60)
def test_rank_plus_kernel_dimension(m):
    rows, ncols = m
    assert rank(rows, ncols) + len(nullspace_basis(rows, ncols)) == ncols


@given(m=small_matrices(), data=st.data())
@settings(max_examples=60)
def test_insertion_order_does_not_matter(m, data):
    rows, ncols = m
    rows2 = [dict(data.draw(st.permutations(list(r.items())))) for r in rows]
    assert rank(rows, ncols) == rank(rows2, ncols)
    assert nullspace_basis(rows, ncols) == nullspace_basis(rows2, ncols)


@given(m=small_matrices(), data=st.data())
@settings(max_examples=60)
def test_row_permutation_preserves_kernel(m, data):
    rows, ncols = m
    rows2 = data.draw(st.permutations(rows))
    assert rank(rows, ncols) == rank(rows2, ncols)
    assert nullspace_basis(rows, ncols) == nullspace_basis(rows2, ncols)


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6):
    """Sparse int matrices, each row scaled by a common factor so that the
    content removal of the int rows has work to do."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        content = draw(st.sampled_from([1, 2, 6, -4, 10 ** 20]))
        row = {c: v * content for c in range(ncols)
               for v in [draw(st.integers(-9, 9))] if v and draw(st.booleans())}
        rows.append(row)
    return rows, ncols


@given(m=int_matrices())
@settings(max_examples=120, deadline=None)
def test_int_rows_eliminate_as_their_fractions(m):
    # the int path of _integer_row divides out the content only; the same
    # matrix in Fraction entries takes the denominator path
    rows, ncols = m
    before = copy.deepcopy(rows)
    fractions = [{c: F(v) for c, v in row.items()} for row in rows]
    assert _forward(rows, ncols) == _forward(fractions, ncols)
    assert echelon(rows, ncols) == echelon(fractions, ncols)
    assert rows == before
    # every pivot row is primitive: ints coprime with their pivot entry
    assert all(type(v) is int for _, _, row in _forward(rows, ncols) for v in row.values())
    assert all(math.gcd(p, *row.values()) == 1 for _, p, row in _forward(rows, ncols))


@given(m=matrices)
@settings(max_examples=120, deadline=None)
def test_rank_matches_sympy(m):
    rows, ncols = m
    assert rank(rows, ncols) == to_sympy(rows, ncols).rank()
    assert pivot_columns(rows, ncols) == list(to_sympy(rows, ncols).rref()[1])


@given(m=matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_matches_sympy_rref(m):
    rows, ncols = m
    kernel = to_sympy(rows, ncols).nullspace()
    expected = []
    if kernel:
        reduced, pivots = sympy.Matrix.hstack(*kernel).T.rref()
        expected = [{j: from_sympy(x) for j, x in enumerate(reduced.row(i)) if x}
                    for i in range(len(pivots))]
    assert nullspace_basis(rows, ncols) == expected


@given(m=matrices)
@settings(max_examples=80, deadline=None)
def test_echelon_pivots_are_one_in_ascending_columns(m):
    # the forward pass alone (pivot_columns) finds the pivots of the reduced form
    rows, ncols = m
    pivots = echelon(rows, ncols)
    cols = [col for col, _ in pivots]
    assert cols == sorted(set(cols)) == pivot_columns(rows, ncols)
    for col, row in pivots:
        assert row[col] == 1 and min(row) == col and all(row.values())
    assert all(c not in row for col, row in pivots for c in cols if c != col)


@given(m=matrices, data=st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_and_solve_leave_inputs_intact(m, data):
    rows, ncols = m
    basis = [SparseComb(r) for r in rows]
    target = SparseComb({c: data.draw(rationals) for c in range(ncols)})
    before = copy.deepcopy((rows, [b.terms for b in basis], target.terms))
    pivot_columns(rows, ncols)
    echelon(rows, ncols)
    [x] = solve_in_span(basis, [target])
    assert (rows, [b.terms for b in basis], target.terms) == before
    if x is not None:
        assert linear_combination(SparseComb(), zip(x, basis)) == target


@st.composite
def families(draw, max_size=5, max_keys=5):
    """A family of sparse combinations over the keys 0..nkeys-1, where a
    member may be a combination of earlier ones, and a target: zero, in the
    span of the family, or random.  The family may be empty."""
    nkeys = draw(st.integers(1, max_keys))

    def random_member():
        return SparseComb({c: draw(rationals) for c in range(nkeys) if draw(st.booleans())})

    def in_span(members):
        return linear_combination(SparseComb(), [(draw(rationals), b) for b in members])

    basis = []
    for _ in range(draw(st.integers(0, max_size))):
        basis.append(in_span(basis) if basis and draw(st.booleans()) else random_member())
    kind = draw(st.sampled_from(("zero", "span", "random")))
    target = {"zero": SparseComb, "span": lambda: in_span(basis), "random": random_member}[kind]()
    return basis, target, nkeys


def columns_to_sympy(members, nkeys):
    return to_sympy([{j: m.terms[i] for j, m in enumerate(members) if i in m.terms}
                     for i in range(nkeys)], len(members))


@given(f=families())
@settings(max_examples=150, deadline=None)
def test_span_rank_and_solve_in_span_match_sympy(f):
    basis, target, nkeys = f
    b, t = columns_to_sympy(basis, nkeys), columns_to_sympy([target], nkeys)
    assert span_rank(basis) == b.rank()
    [x] = solve_in_span(basis, [target])
    assert (x is None) == (b.row_join(t).rank() > b.rank())
    if x is None:
        return
    assert linear_combination(SparseComb(), zip(x, basis)) == target
    if basis:
        # sympy's Gauss-Jordan particular solution, its free parameters set to 0
        sol, params = b.gauss_jordan_solve(t)
        assert x == [from_sympy(v) for v in sol.subs({p: 0 for p in params})]
    else:
        assert x == [] and not target


@given(f=families(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_solve_in_span_of_many_targets_is_the_per_target_solve(f, data):
    # the drawn target and up to three random ones, then each target found
    # outside plus a basis member (outside too: it is nonzero in the row of
    # the outside target's pivot when that one comes first), in a drawn order
    basis, target, nkeys = f

    def member():
        return SparseComb({c: data.draw(rationals) for c in range(nkeys) if data.draw(st.booleans())})

    targets = [(target, False)] + [(member(), False) for _ in range(data.draw(st.integers(0, 3)))]
    if basis:
        targets += [(t + data.draw(st.sampled_from(basis)), True) for t, _ in targets
                    if solve_in_span(basis, [t])[0] is None]
    targets = data.draw(st.permutations(targets))
    together = solve_in_span(basis, [t for t, _ in targets])
    assert together == [solve_in_span(basis, [t])[0] for t, _ in targets]
    assert all(x is None for x, (_, shifted) in zip(together, targets) if shifted)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_det_expansion_matches_sympy(data):
    n = data.draw(st.integers(0, 5))
    rows = [[data.draw(rationals) for _ in range(n)] for _ in range(n)]
    expected = sympy_det(to_sympy(sparse(rows), n)) if n else sympy.Integer(1)
    assert det_expansion(rows, ZERO, ONE) == from_sympy(sympy.Rational(expected))


@given(data=st.data())
@settings(max_examples=40)
def test_det_row_swap_changes_sign(data):
    n = data.draw(st.integers(2, 4))
    rows = [[data.draw(rationals) for _ in range(n)] for _ in range(n)]
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]))
    swapped = list(rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert det_expansion(rows, ZERO, ONE) == -det_expansion(swapped, ZERO, ONE)
