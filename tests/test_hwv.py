"""Column determinants, tensor actions, lowering operators, kernels."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffhom import hwv, wronskian
from diffhom.cli import kernel_cost
from diffhom.exact import intersection_dim, nullspace_basis, operator_rows, rank
from diffhom.dpoly import parse, span_rank
from diffhom.tableaux import (Partition, Permutation, Tableau, canonical_tableau,
                              count_semistandard, count_standard,
                              partitions_of, semistandard_tableaux)
from diffhom.hwv import (MultiPoly, _coordinates, column_det, d_t, e_iso, full_kernel_vectors,
                         hwv_basis, j_ell, kernel_dim_full,
                         kernel_dim_isotypic, stacked_operator_rows,
                         symmetrizer_projection, tableau_projection,
                         tensor_of_tableau)
from diffhom.exact import det_expansion
from diffhom.dpoly import DiffPoly
import formal
from formal import ParamPoly, formal_matrix_action, tensor_sigma_action, young_operator_rows

F = Fraction


def test_column_det_examples():
    assert column_det([0], 1) == parse("x0", 1)
    assert column_det([0, 1], 1) == parse("x0*x1[1] - x1*x0[1]", 1)
    assert not column_det([0, 0], 1)


def test_column_det_rejects_too_many_rows():
    with pytest.raises(ValueError):
        column_det([0, 1, 2], 1)
    with pytest.raises(ValueError):
        column_det([0, -1], 1)


def _minor_expansion(t, n):
    """D_T as the product of its column determinants, each by the minor
    expansion ``det_expansion`` over DiffPoly."""
    out = DiffPoly.const(F(1), n)
    for col in t.columns():
        rows = [[DiffPoly.var(b, h, n) for b in range(len(col))] for h in col]
        out = out * det_expansion(rows, DiffPoly.zero(n), DiffPoly.const(F(1), n))
    return out


@pytest.mark.parametrize("parts", [(1,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1), (2, 1, 1, 1)])
def test_d_t_matches_the_minor_expansion(parts):
    # every filling over {0..2}, semi-standard or not (repeated column
    # entries give 0, unsorted columns a sign), in a wider ambient bound
    lam = Partition(parts)
    n = lam.nparts
    for filling in itertools.product(range(3), repeat=lam.size):
        t = Tableau(lam, filling)
        assert d_t(t, n) == _minor_expansion(t, n), filling


def test_d_t_examples():
    assert d_t(Tableau(Partition.of(2), (0, 0)), 1) == parse("x0^2", 1)
    assert d_t(Tableau(Partition.of(1, 1), (0, 1)), 1) == column_det([0, 1], 1)
    expected = column_det([0, 1], 1) * parse("x0", 1)
    assert d_t(Tableau(Partition.of(2, 1), (0, 0, 1)), 1) == expected


def test_d_t_rejects_tall_shape():
    with pytest.raises(ValueError):
        d_t(Tableau(Partition.of(1, 1), (0, 1)), 0)


def test_hwv_basis_counts_match_semistandard():
    for d in range(1, 5):
        for lam in partitions_of(d):
            for k in range(0, 4):
                basis = hwv_basis(lam, k, 3)
                assert len(basis) == count_semistandard(lam, k + 1)
                if basis:
                    assert span_rank([p for _, p in basis]) == len(basis)


def test_hwv_basis_empty_when_too_tall():
    assert hwv_basis(Partition.of(1, 1), 1, 0) == ()


def test_hwv_basis_single_row_k0():
    basis = hwv_basis(Partition.of(3), 0, 2)
    assert len(basis) == 1
    assert basis[0][1] == parse("x0^3", 2)


def test_hwv_basis_returns_the_shared_tuple():
    lam = Partition.of(2, 1)
    first = hwv_basis(lam, 2, 2)
    assert isinstance(first, tuple) and hwv_basis(lam, 2, 2) is first
    assert len(first) == count_semistandard(lam, 3)


def test_each_cached_result_is_one_object():
    # the D_T basis, the Wronskian basis and the J^(l) kernel are each handed
    # out as the cached object itself, with no copying wrapper beside the
    # cache and no second numbering of the tensor basis
    for module, name in [(hwv, "_semistandard_basis"), (hwv, "_basis_index"),
                         (wronskian, "canonical_basis")]:
        assert not hasattr(module, name), name
    basis = wronskian.enumerate_canonical_basis(1, 3)
    assert isinstance(basis, tuple) and wronskian.enumerate_canonical_basis(1, 3) is basis
    vectors = full_kernel_vectors(3, 2)
    assert vectors and all(type(v) is MultiPoly and v.nvars == 3 for v in vectors)


def test_tensor_of_tableau_row_major():
    t = tensor_of_tableau(Tableau(Partition.of(2, 1), (0, 2, 1)), 2)
    assert t.terms == {(0, 2, 1): F(1)}


def test_sigma_action_swap():
    t = MultiPoly(2, {(0, 1): F(1)})
    assert tensor_sigma_action(t, Permutation((2, 1))).terms == {(1, 0): F(1)}


def test_sigma_action_is_right_action():
    sigma = Permutation((2, 3, 1))
    tau = Permutation((1, 3, 2))
    t = MultiPoly(3, {(0, 1, 2): F(1)})
    lhs = tensor_sigma_action(tensor_sigma_action(t, sigma), tau)
    rhs = tensor_sigma_action(t, sigma * tau)
    assert lhs == rhs


def test_symmetrizer_projection_degree_two():
    t = MultiPoly(2, {(0, 1): F(1)})
    assert symmetrizer_projection(t, Partition.of(2)).terms == {(0, 1): F(1), (1, 0): F(1)}
    assert symmetrizer_projection(t, Partition.of(1, 1)).terms == {(0, 1): F(1), (1, 0): F(-1)}


def test_symmetrizer_projection_identity_degree_one():
    t = MultiPoly(1, {(1,): F(1)})
    assert symmetrizer_projection(t, Partition.of(1)) == t


def test_symmetrizer_almost_projection_on_tensors():
    for lam in partitions_of(3):
        m = F(math.factorial(3), count_standard(lam))
        for idx in itertools.product(range(2), repeat=3):
            t = MultiPoly(3, {idx: F(1)})
            once = symmetrizer_projection(t, lam)
            twice = symmetrizer_projection(once, lam)
            assert twice == once.scale(m)


COEFFICIENTS = {"int": st.integers(-4, 4),
                "Fraction": st.fractions(-4, 4, max_denominator=6),
                "mixed": st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)}


@st.composite
def tensors_with_shapes(draw):
    d = draw(st.integers(1, 4))
    lam = draw(st.sampled_from(partitions_of(d)))
    coefficients = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * d), coefficients, max_size=6))
    return MultiPoly(d, terms), lam


@given(tensors_with_shapes())
@settings(max_examples=150, deadline=None)
def test_symmetrizer_projection_is_the_sum_of_sigma_actions(case):
    # t.c_lam = sum over sigma of c_sigma (t.sigma), c_lam from the Fraction
    # oracle; int coefficients stay int, and none becomes a float
    t, lam = case
    expected = {}
    for sigma, c in formal.formal_young_symmetrizer(canonical_tableau(lam)).items():
        for idx, v in tensor_sigma_action(t, sigma).terms.items():
            expected[idx] = expected.get(idx, 0) + c * v
    image = symmetrizer_projection(t, lam)
    assert image.terms == {idx: v for idx, v in expected.items() if v}
    assert not any(isinstance(v, float) for v in image.terms.values())
    if all(type(v) is int for v in t.terms.values()):
        assert all(type(v) is int for v in image.terms.values())


def test_e_iso_images_of_the_basis_have_int_coefficients():
    for lam in partitions_of(4):
        n = lam.nparts - 1
        images = hwv._e_iso_family([p for _, p in hwv_basis(lam, 3, n)], lam, 3, n)
        assert images and all(type(v) is int for image in images for v in image.terms.values())


def test_j_ell_examples():
    assert not j_ell(MultiPoly(1, {(0,): F(1)}), 1)
    t = MultiPoly(2, {(1, 1): F(1)})
    assert j_ell(t, 1).terms == {(0, 1): F(1), (1, 0): F(1)}
    assert j_ell(t, 2).terms == {(0, 0): F(2)}


def test_j_ell_rejects_out_of_range():
    with pytest.raises(ValueError):
        j_ell(MultiPoly(2, {(0, 0): F(1)}), 3)


def test_j_ell_commutes_with_sigma_action():
    sigma = Permutation((3, 1, 2))
    for idx in itertools.product(range(3), repeat=3):
        t = MultiPoly(3, {idx: F(1)})
        for ell in range(1, 4):
            lhs = tensor_sigma_action(j_ell(t, ell), sigma)
            rhs = j_ell(tensor_sigma_action(t, sigma), ell)
            assert lhs == rhs


def test_kernel_dims_match_factorials():
    assert kernel_dim_full(1, 0) == 1
    assert kernel_dim_full(2, 1) == 2
    assert kernel_dim_full(3, 2) == 6


def test_kernel_dim_low_k_reported():
    # below the stabilizing local dimension the value is recorded, not asserted
    value = kernel_dim_full(3, 1)
    assert 0 <= value <= 8


def _ungraded_stack(d, k):
    """All J^(l) rows on the whole tensor basis at once, in product order."""
    keys = list(itertools.product(range(k + 1), repeat=d))

    def apply(idx):
        t = MultiPoly(d, {idx: F(1)})
        for ell in range(1, d + 1):
            for out, c in j_ell(t, ell).terms.items():
                yield (ell, out), c

    return operator_rows(keys, apply), len(keys)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(d + 2)])
def test_graded_kernel_dim_matches_ungraded_stack(d, k):
    rows, ncols = _ungraded_stack(d, k)
    assert kernel_dim_full(d, k) == ncols - rank(rows, ncols)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 4) for k in range(d + 2)])
def test_full_kernel_vectors_match_ungraded_nullspace(d, k):
    rows, ncols = _ungraded_stack(d, k)
    assert _columns(full_kernel_vectors(d, k), d, k) == nullspace_basis(rows, ncols)


def _columns(tensors, d, k):
    """Each tensor as a sparse row over the tensor basis in product order."""
    index = {idx: j for j, idx in enumerate(itertools.product(range(k + 1), repeat=d))}
    return [{index[idx]: c for idx, c in t.terms.items()} for t in tensors]


def _isotypic_image_rows(lam, k):
    """Spanning rows (over the tensor basis, in product order) of the image of
    right multiplication by the canonical Young symmetrizer of shape lam."""
    images = (symmetrizer_projection(MultiPoly(lam.size, {idx: F(1)}), lam)
              for idx in itertools.product(range(k + 1), repeat=lam.size))
    return _columns([v for v in images if v], lam.size, k)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(d + 2)]
                         + [(5, 2), (5, 3)])
def test_kernel_isotypic_matches_symmetrizer_image_intersection(d, k):
    # oracle: dim(ker J  intersect  image of c_lam), by three exact ranks
    kernel = _columns(full_kernel_vectors(d, k), d, k)
    for lam in partitions_of(d):
        expected = intersection_dim(kernel, _isotypic_image_rows(lam, k), (k + 1) ** d)
        assert kernel_dim_isotypic(lam, k) == expected, lam


def test_kernel_isotypic_certifies_an_integral_sum(monkeypatch):
    # the character-path oracle: a trace of 1/2 on every class gives chi_(2)
    # the multiplicity 1/2
    monkeypatch.setattr(formal, "_class_traces", lambda d, k, mu: {0: F(1, 2)})
    with pytest.raises(ArithmeticError):
        formal.character_multiplicities(2, 1)


def test_negative_multiplicity_raises(monkeypatch):
    # the Young-route oracle checks its Kostka subtraction: one rank too many
    # in every system makes the first multiplicity -1
    monkeypatch.setattr(formal, "rank", lambda rows, ncols: ncols + 1)
    formal.young_weight_multiplicities.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            formal.young_weight_multiplicities(3, 2, 1)
    finally:
        formal.young_weight_multiplicities.cache_clear()


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 6) for k in range(d + 2)] + [(6, 5)])
def test_weight_multiplicities_match_the_young_route(d, k):
    # oracle: Young-subgroup invariants and alternants with the Kostka
    # subtraction, every weight solved at its own k
    for w in range(d * k + 1):
        assert hwv.weight_multiplicities(d, k, w) == formal.young_weight_multiplicities(d, k, w), w


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 6) for k in range(d + 2)])
def test_weight_multiplicities_match_the_character_path(d, k):
    # oracle: class traces on the reduced kernel basis and the characters
    expected = formal.character_multiplicities(d, k)
    zero = (0,) * len(partitions_of(d))
    for w in range(d * k + 1):
        assert hwv.weight_multiplicities(d, k, w) == expected.get(w, zero), w


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 6) for k in range(d + 2)])
def test_no_kernel_above_the_middle_weight(d, k):
    # the blocks weight_multiplicities skips (2w > dk, where J^(1) is the
    # sl2 lowering operator at positive h-weight), eliminated in full
    nonzero = formal.character_multiplicities(d, k)
    for w in range(d * k // 2 + 1, d * k + 1):
        rows, ncols = stacked_operator_rows(d, k, w)
        assert ncols - rank(rows, ncols) == 0, w
        assert not any(nonzero.get(w, ())), w


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in (d, d + 1)])
def test_kernel_above_the_cap_is_the_capped_kernel(d, k):
    # weight_multiplicities reads k >= d at k = d-1; full_kernel_vectors
    # eliminates every weight at k itself
    vectors = full_kernel_vectors(d, k)
    assert kernel_dim_full(d, k) == len(vectors)
    assert all(max(idx) <= d - 1 for vec in vectors for idx in vec.terms)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 7) for k in (d - 1, d, d + 1)])
def test_duality_reading_matches_a_full_solve(d, k):
    # every weight solved at its own k with no weight skipped
    # (functional_system and rank at each lam), against the reading that
    # solves 2w <= d(d-1)/2 at k = d-1 and reads the rest by duality, the
    # sl2 zeros and the k >= d cap; and, up to d = 5, against the character
    # path on the tensor side.  The nullity cache is emptied between the
    # readings and the solves, so every solve builds its system at this k
    expected = formal.character_multiplicities(d, k) if d <= 5 else None
    zero = (0,) * len(partitions_of(d))
    reads = [hwv.weight_multiplicities(d, k, w) for w in range(d * k + 1)]
    hwv._nullities.clear()
    for w, read in enumerate(reads):
        assert read == hwv.solve_multiplicities(d, k, w), w
        assert expected is None or read == expected.get(w, zero), w


@pytest.mark.parametrize("d", range(1, 7))
def test_transposed_solver_matches_the_monomial_rows(d):
    # oracle: one row per image monomial and one column per D_T, the
    # orientation the solver replaced, at every k <= d and solved weight
    for k in range(d + 1):
        for w in hwv.solved_weights(d, k):
            expected = formal.formal_solve_multiplicities(d, k, w)
            assert hwv.solve_multiplicities(d, k, w) == expected, (k, w)


def test_nullity_key_holds_the_largest_entry_of_a_weight():
    # a cell of row i holds at least i: no tableau has entry sum below
    # b(lam) = sum_i i lam_i, and at w >= b(lam) the largest entry over the
    # alphabet {0..w} is e = l(lam) - 1 + w - b(lam), the k of the key,
    # held by the last cell
    for d in range(1, 8):
        for lam in partitions_of(d):
            least = lam.row_index_sum
            for w in range(least):
                assert hwv._nullity_key(lam, d + w, w) is None
                assert not any(semistandard_tableaux(lam, d + w + 1, total=w)), (lam, w)
            for w in range(least, least + 5):
                _, top, _ = hwv._nullity_key(lam, w, w)
                fillings = [t.filling for t in semistandard_tableaux(lam, w + 1, total=w)]
                assert max(max(f) for f in fillings) == top, (lam, w)
                assert any(f[-1] == top for f in fillings), (lam, w)


@pytest.mark.parametrize("ascending", [True, False])
def test_cached_nullities_match_the_uncached_oracle(ascending):
    # one nullity per (lam, min(k, e), w), e the largest entry a tableau of
    # that shape and weight holds, built at the k of the first caller, in
    # ascending or descending k; the oracle solves every system at its own
    # k with no cache
    formal.clear_solver_caches()
    for d in range(1, 6):
        for k in (range(d + 2) if ascending else reversed(range(d + 2))):
            for w in range(d * min(k, d - 1) + 1):
                assert (hwv.solve_multiplicities(d, k, w)
                        == formal.formal_solve_multiplicities(d, k, w)), (d, k, w)


@pytest.mark.parametrize("lam, k", [(Partition((2, 1)), 2), (Partition((3, 2, 1)), 3),
                                    (Partition((4, 2)), 5), (Partition((2, 2, 1, 1)), 4)])
def test_functional_system_columns_are_ascending_codes(lam, k):
    # row j is the L_1 + ... + L_k image of the j-th semi-standard D_T, and
    # column i is the i-th image code in ascending order, one column per code
    codec = hwv._codec(lam, k)
    for w in range(lam.size * k + 1):
        tableaux = list(semistandard_tableaux(lam, k + 1, total=w))
        images = [codec.lowered(p, k) for p in hwv._d_t_codes(tableaux, codec)]
        codes = sorted(set().union(*images))
        column = {code: i for i, code in enumerate(codes)}
        rows, ncols = hwv.functional_system(lam, k, w)
        assert ncols == len(codes) and len(rows) == len(tableaux), w
        assert rows == [{column[code]: c for code, c in image.items()} for image in images], w


@pytest.mark.parametrize("d", range(2, 7))
def test_duality_reads_the_conjugate_shape_at_k_equal_d_minus_1(d):
    # m_lam(w) = m_lam'(d(d-1)/2 - w) on solved multiplicities; conjugation
    # is a permutation of partitions_of(d), an involution fixing the
    # self-conjugate shapes
    top = d * (d - 1) // 2
    lams = partitions_of(d)
    conj = hwv._conjugates(d)
    assert [lams[j] for j in conj] == [lam.conjugate() for lam in lams]
    assert all(conj[j] == i for i, j in enumerate(conj))
    for w in range(top + 1):
        low, high = hwv.solve_multiplicities(d, d - 1, w), hwv.solve_multiplicities(d, d - 1, top - w)
        assert low == tuple(high[j] for j in conj), w


@pytest.mark.parametrize("d", range(3, 7))
def test_duality_fails_below_k_equal_d_minus_1(d):
    # at k = d-2 the kernel is not all of the harmonics: read by duality
    # about dk/2, the solved multiplicities disagree at some weight
    k = d - 2
    top = d * k // 2
    conj = hwv._conjugates(d)
    assert any(hwv.solve_multiplicities(d, k, w)
               != tuple(hwv.solve_multiplicities(d, k, top - w)[j] for j in conj)
               for w in range(top + 1))


def _fake_degree(lam):
    """Coefficients of q^n(lam) [d]_q! / prod over the cells of [hook]_q."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    num = [1]
    for i in range(1, lam.size + 1):
        num = mul(num, [1] * i)
    conj = lam.conjugate().parts
    for r, p in enumerate(lam.parts):
        for c in range(p):
            h = (p - c) + (conj[c] - r) - 1
            # exact division by 1 + q + ... + q^(h-1): multiply by 1 - q, divide by 1 - q^h
            num = mul(num, [1, -1])
            for i in range(h, len(num)):
                num[i] += num[i - h]
            assert not any(num[len(num) - h:])
            num = num[:len(num) - h]
    n_lam = sum(i * p for i, p in enumerate(lam.parts))
    return [0] * n_lam + num


@pytest.mark.parametrize("d", range(1, 7))
def test_weight_multiplicities_are_the_fake_degrees(d):
    # at k = d-1 the kernel is the harmonic part of the coinvariant algebra,
    # graded by the fake degrees (Stanley 1979)
    fake = [_fake_degree(lam) for lam in partitions_of(d)]
    for w in range(d * (d - 1) + 1):
        assert hwv.weight_multiplicities(d, d - 1, w) == tuple(
            f[w] if w < len(f) else 0 for f in fake), w


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(4)])
def test_young_system_columns_match_the_closed_forms(d, k):
    for lam in partitions_of(d):
        inv, alt = formal.young_system_sizes(lam, k)
        conj = lam.conjugate().parts
        assert sum(young_operator_rows(d, k, w, lam.parts)[1] for w in range(d * k + 1)) == inv
        assert sum(young_operator_rows(d, k, w, conj, True)[1] for w in range(d * k + 1)) == alt


def test_young_system_on_the_trivial_subgroup_is_the_full_system():
    for w in range(7):
        assert young_operator_rows(3, 2, w, (1, 1, 1)) == stacked_operator_rows(3, 2, w)


def test_young_system_rejects_blocks_of_another_size():
    with pytest.raises(ValueError):
        young_operator_rows(3, 2, 1, (2, 2))


def test_alternant_system_signs():
    # weight 1 of (Q^2)^(x 2): the one key (1, 0) lowers to (0, 0), which
    # vanishes among the S_2-alternants (a repeated entry), so x1 x0 - x0 x1
    # is in the kernel; among the S_2-invariants it has no kernel
    rows, ncols = young_operator_rows(2, 1, 1, (2,), True)
    assert (rows, ncols) == ([], 1)
    rows, ncols = young_operator_rows(2, 1, 1, (2,))
    assert (rows, ncols) == ([{0: 1}], 1)


@pytest.mark.parametrize("d", range(1, 7))
def test_largest_system_solved_is_the_closed_form(d, monkeypatch):
    # one D_T system per (lam, weight) at the weights 2w <= d(d-1)/2 where
    # lam has D_T (w >= b(lam)), each built once: the weights above are read
    # by duality up to d(d-1)/2 and are zero beyond it.  Its rows are the
    # D_T of that weight (counted by enumeration here), each of at most
    # prod (column length)! terms, and the largest of those D_T terms, or
    # q^2 = p(d)^2 (every shape has D_T at k = d-1), is what `dh kernel`
    # counts as its cost
    k = d - 1
    d_ts = {}
    blocks = Counter()
    build = hwv.functional_system

    def counted(lam, k, w):
        rows, ncols = build(lam, k, w)
        blocks[lam, k, w] += 1
        d_ts[lam, w] = len(rows)
        return rows, ncols

    monkeypatch.setattr(hwv, "functional_system", counted)
    formal.clear_solver_caches()
    assert kernel_dim_full(d, k) == math.factorial(d)
    assert set(blocks) == {(lam, k, w) for lam in partitions_of(d)
                           for w in range(d * k // 4 + 1) if hwv._nullity_key(lam, k, w)}
    assert max(blocks.values()) == 1
    assert all(n == sum(1 for _ in semistandard_tableaux(lam, d, total=w)) > 0
               for (lam, w), n in d_ts.items())
    terms = {lam: math.prod(math.factorial(len(c)) for c in canonical_tableau(lam).columns())
             for lam in partitions_of(d)}
    assert kernel_cost(d, k, 10 ** 9) == max(len(partitions_of(d)) ** 2,
                                             *(n * terms[lam] for (lam, _), n in d_ts.items()))


def test_largest_young_systems():
    # the systems of the Young-route oracle, 2 to 6 times wider than the D_T
    # systems of the solver at the same (d, k)
    assert ([formal.largest_young_system(d, d - 1) for d in (5, 6, 7, 8)]
            == [500, 4320, 36015, 316800])
    assert [formal.largest_young_system(d, 0) for d in (1, 16)] == [1, 1]
    # the D_T terms of the largest system solved at k = d-1 (D_T times
    # their terms), above q^2 = p(d)^2 from d = 6 on
    assert ([kernel_cost(d, d - 1, 10 ** 9) for d in (5, 6, 7, 8, 9)]
            == [49, 144, 816, 6768, 64224])


def test_weight_blocks_split_the_stack():
    d, k = 3, 2
    rows, ncols = _ungraded_stack(d, k)
    blocks = [stacked_operator_rows(d, k, w) for w in range(d * k + 1)]
    assert sum(n for _, n in blocks) == ncols
    assert sum(len(r) for r, _ in blocks) == len(rows)
    assert sorted(len(r) for r in rows) == sorted(len(r) for b, _ in blocks for r in b)


def test_kernel_isotypic_examples():
    assert kernel_dim_isotypic(Partition.of(1), 0) == 1
    assert kernel_dim_isotypic(Partition.of(2), 1) == 1
    assert kernel_dim_isotypic(Partition.of(2, 1), 2) == 2


def test_kernel_isotypic_sums_to_full():
    # multiplicity f_lam per isotypic type recovers the full kernel dimension
    for d in range(1, 4):
        total = sum(count_standard(lam) * kernel_dim_isotypic(lam, d - 1)
                    for lam in partitions_of(d))
        assert total == kernel_dim_full(d, d - 1)


# straightening: D_T on the semi-standard D_T of its shape, by the
# coordinates that e_iso reads; the empty combination is D_T = 0

def test_straighten_fixes_semistandard():
    t = Tableau(Partition.of(1, 1), (0, 1))
    assert _coordinates([d_t(t, 1)], t.shape, 1, 1) == [[(F(1), t)]]


def test_straighten_column_swap():
    t = Tableau(Partition.of(1, 1), (1, 0))
    assert (_coordinates([d_t(t, 1)], t.shape, 1, 1)
            == [[(F(-1), Tableau(Partition.of(1, 1), (0, 1)))]])


def test_straighten_zero_for_repeated_column_entries():
    t = Tableau(Partition.of(1, 1), (1, 1))
    assert _coordinates([d_t(t, 1)], t.shape, 1, 1) == [[]]


def test_straighten_expands_back():
    lam = Partition.of(2, 1)
    k, n = 2, 1
    fillings = list(itertools.product(range(k + 1), repeat=3))
    targets = [d_t(Tableau(lam, f), n) for f in fillings]
    for target, comb in zip(targets, _coordinates(targets, lam, k, n)):
        total = sum((d_t(s, n).scale(c) for c, s in comb), start=target.scale(F(0)))
        assert total == target


def test_e_iso_degree_one():
    p = parse("x0[2]", 0)
    assert e_iso(p, Partition.of(1), 2).terms == {(2,): F(1)}


def test_e_iso_degree_two():
    lam = Partition.of(1, 1)
    p = d_t(Tableau(lam, (0, 1)), 1)
    assert e_iso(p, lam, 1).terms == {(0, 1): F(1), (1, 0): F(-1)}
    lam = Partition.of(2)
    p = d_t(Tableau(lam, (0, 1)), 1)
    assert e_iso(p, lam, 1).terms == {(0, 1): F(1), (1, 0): F(1)}


def test_e_iso_rejects_tall_partition():
    with pytest.raises(ValueError):
        e_iso(parse("x0^2", 0), Partition.of(1, 1), 1)


def test_e_iso_rejects_input_outside_the_span():
    # x1 has weight (0, 1), no combination of the weight-(1, 0) D_T; x0[1]
    # has the right weight but an entry k = 1 beyond the filling bound k = 0
    with pytest.raises(ValueError):
        e_iso(parse("x1", 1), Partition.of(1), 2)
    with pytest.raises(ValueError):
        e_iso(parse("x0[1]", 1), Partition.of(1), 0)
    # a shape with no semi-standard filling spans the zero space
    with pytest.raises(ValueError):
        e_iso(parse("x0*x1[1]", 1), Partition.of(1, 1), 0)


def test_e_iso_family_is_e_iso_of_each_member():
    # one semi-standard expansion of a whole family against one per member,
    # term for term, on every (lam, k) of the default hwv suite: its basis,
    # and for d <= 3 the tableau projection of every basis tensor (zeros
    # included), the families of the e_iso checks
    for d in range(1, 5):
        for lam in partitions_of(d):
            k = min(d - 1, 3)
            n = lam.nparts - 1
            family = [p for _, p in hwv_basis(lam, k, n)]
            if d <= 3:
                family += [tableau_projection(MultiPoly(d, {a: F(1)}), lam, n)
                           for a in itertools.product(range(k + 1), repeat=d)]
            together = hwv._e_iso_family(family, lam, k, n)
            assert [t.terms for t in together] == [e_iso(p, lam, k).terms for p in family]


def test_e_iso_family_rejects_a_member_outside_the_span():
    # x0[1] + x0[2] has an entry beyond the filling bound k = 1
    inside = parse("x0[1]", 0)
    with pytest.raises(ValueError, match="not a combination"):
        hwv._e_iso_family([inside, inside + parse("x0[2]", 0)], Partition.of(1), 1, 0)


def test_e_iso_injective_on_basis():
    for lam in partitions_of(3):
        k = 2
        basis = hwv_basis(lam, k, lam.nparts - 1)
        vectors = [e_iso(p, lam, k) for _, p in basis]
        index = {}
        rows = []
        for v in vectors:
            rows.append({index.setdefault(i, len(index)): c for i, c in v.terms.items()})
        from diffhom.exact import rank
        assert rank(rows, len(index)) == len(basis) == count_semistandard(lam, k + 1)


def test_commutative_diagram_small_shapes():
    for lam, k in [(Partition.of(2), 1), (Partition.of(1, 1), 1), (Partition.of(2, 1), 1)]:
        d = lam.size
        n = lam.nparts - 1
        for a in itertools.product(range(k + 1), repeat=d):
            pa = tableau_projection(MultiPoly(d, {a: F(1)}), lam, n)
            lhs = e_iso(pa, lam, k) if pa else MultiPoly(d)
            rhs = symmetrizer_projection(MultiPoly(d, {a: F(1)}), lam)
            assert lhs == rhs


def test_weight_vector_property_symbolic():
    lam = Partition.of(2, 1)
    n = 2
    xs = [ParamPoly.var(f"x{i}") for i in range(n + 1)]
    diag = [[xs[i] if i == j else ParamPoly.const(0) for j in range(n + 1)]
            for i in range(n + 1)]
    weight_monomial = xs[0] ** 2 * xs[1]
    for t, p in hwv_basis(lam, 2, n):
        assert formal_matrix_action(diag, p) == p.scale(weight_monomial)


def test_unipotent_invariance_symbolic():
    lam = Partition.of(2, 1)
    n = 2
    tparam = ParamPoly.var("t")
    for t, p in hwv_basis(lam, 2, n):
        for q in range(1, n + 1):
            for pp in range(q):
                a = [[ParamPoly.const(1 if i == j else 0) for j in range(n + 1)]
                     for i in range(n + 1)]
                a[q][pp] = tparam
                assert formal_matrix_action(a, p) == p


def test_functional_equation_dimension_matches_kernel(monkeypatch):
    # the nullity of L_1..L_k on the D_T against the tensor side, the
    # dimension of K.c_lam; one multiplicity off fails the check
    import diffhom.verify as verify

    for lam, k in [(Partition.of(2), 1), (Partition.of(1, 1), 1),
                   (Partition.of(3), 2), (Partition.of(2, 1), 2),
                   (Partition.of(1, 1, 1), 2), (Partition.of(2, 2), 3),
                   (Partition.of(3, 1), 2)]:
        assert verify.check_functional_iso(lam.parts, k).passed, (lam, k)
    monkeypatch.setattr(verify, "kernel_dim_isotypic", lambda lam, k: kernel_dim_isotypic(lam, k) + 1)
    result = verify.check_functional_iso((2, 1), 2)
    assert not result.passed and (result.expected, result.computed) == ("3", "2")


def test_hwv_count_equals_kostka_sum():
    # the number of independent highest weight vectors per shape equals the
    # total Kostka multiplicity over all contents on k+1 letters
    from diffhom.tableaux import kostka
    n = 3
    for d in range(1, 5):
        for k in range(0, 3):
            for lam in partitions_of(d):
                total = sum(kostka(lam, a)
                            for a in itertools.product(range(d + 1), repeat=k + 1)
                            if sum(a) == d)
                assert len(hwv_basis(lam, k, n)) == total


def test_leibniz_expansion_with_factorial_normalization():
    # factorwise (al Id + lowering) equals sum_l al^(d-l)/l! J^(l) plus al^d id
    al = ParamPoly.var("al")
    d, k = 2, 1
    for idx in itertools.product(range(k + 1), repeat=d):
        v = MultiPoly(d, {idx: F(1)})
        choices = []
        for i in idx:
            opts = [(al, i)]
            if i > 0:
                opts.append((ParamPoly.const(i), i - 1))
            choices.append(opts)
        lhs = MultiPoly(d)
        for pick in itertools.product(*choices):
            coeff = ParamPoly.const(1)
            out = []
            for c, j in pick:
                coeff = coeff * c
                out.append(j)
            lhs = lhs + MultiPoly(d, {tuple(out): coeff})
        rhs = v.scale(al ** d)
        for ell in range(1, d + 1):
            rhs = rhs + j_ell(v, ell).scale(al ** (d - ell) * F(1, math.factorial(ell)))
        assert lhs == rhs
