"""Partitions, compositions, tableau counts, Kostka numbers, characters (the
Murnaghan-Nakayama oracle in ``formal``), Young symmetrizers."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffhom.exact import solve_in_span, span_rank
from diffhom.tableaux import (GroupAlgebraElem, Partition, Permutation, Tableau,
                              canonical_tableau, compositions, count_semistandard,
                              count_standard, group_algebra_mul,
                              hook_length_count, kostka, partition_parts, partitions_of,
                              semistandard_tableaux,
                              semistandard_weight_counts, young_symmetrizer)
from formal import (centralizer_size, character, count_semistandard_by_enumeration,
                    count_standard_by_branching, count_standard_by_enumeration, dominates,
                    formal_young_symmetrizer, kostka_by_enumeration, relabel, schur_poly_eval,
                    standard_tableaux)

F = Fraction


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
def test_compositions_match_filtered_product(cap):
    # oracle: every tuple in {0..total}^parts, in lexicographic order, filtered
    for parts in range(6):
        for total in range(9):
            oracle = [a for a in itertools.product(range(total + 1), repeat=parts)
                      if sum(a) == total and (cap is None or all(v <= cap for v in a))]
            assert compositions(total, parts, cap) == oracle, (total, parts, cap)


def test_partitions_of_one():
    assert [p.parts for p in partitions_of(1)] == [(1,)]


def test_partitions_of_four():
    assert [p.parts for p in partitions_of(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_max_parts_filter():
    assert list(partition_parts(4, 2)) == [(4,), (3, 1), (2, 2)]


def test_partitions_of_matches_the_sorted_compositions():
    # oracle: the compositions of d into positive parts, sorted decreasingly
    # and deduplicated, in reverse lexicographic order, with or without a
    # bound on the parts; the memo hands out one shared tuple per d
    for d in range(1, 9):
        oracle = sorted({tuple(sorted(c, reverse=True)) for parts in range(1, d + 1)
                         for c in compositions(d, parts) if all(c)}, reverse=True)
        assert [p.parts for p in partitions_of(d)] == oracle
        for m in range(1, d + 1):
            assert list(partition_parts(d, m)) == [p for p in oracle if len(p) <= m]
        assert isinstance(partitions_of(d), tuple) and partitions_of(d) is partitions_of(d)
    with pytest.raises(ValueError):
        partitions_of(0)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.of(1, 2)
    with pytest.raises(ValueError):
        Partition.of(2, 0)


def test_records_keep_their_reprs_order_and_read_only_fields():
    lam = Partition((2, 1))
    t = Tableau(lam, (0, 0, 1))
    sigma = Permutation((2, 3, 1))
    assert (repr(lam), repr(Partition.of(3)), repr(t), repr(sigma)) == (
        "Partition(2, 1)", "Partition(3,)", "Tableau[0 0; 1]", "Permutation(images=(2, 3, 1))")
    with pytest.raises(ValueError):
        Tableau(lam, (0, 0))
    for record, field in ((lam, "parts"), (t, "shape"), (sigma, "images")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # permutations order as their image tuples
    group = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    assert sorted(reversed(group)) == group and max(group).images == (3, 2, 1)


def test_count_standard_small():
    assert count_standard(Partition.of(1, 1, 1)) == 1
    assert count_standard(Partition.of(2, 1)) == 2
    assert count_standard(Partition.of(3, 2)) == 5


def test_count_standard_matches_hook_lengths():
    for d in range(1, 7):
        for lam in partitions_of(d):
            assert count_standard(lam) == hook_length_count(lam)


def test_count_standard_matches_the_branching_rule():
    for d in range(1, 13):
        for lam in partitions_of(d):
            assert count_standard(lam) == count_standard_by_branching(lam), lam


def test_count_standard_matches_enumeration():
    for d in range(1, 9):
        for lam in partitions_of(d):
            assert count_standard(lam) == count_standard_by_enumeration(lam), lam


def test_count_standard_beyond_enumeration():
    # sum f_lam^2 = d! far past what enumerating the tableaux reaches
    for d in (20, 30):
        assert sum(count_standard(lam) ** 2 for lam in partitions_of(d)) == math.factorial(d)
    lam = Partition.of(9, 7, 5, 3, 1)
    assert count_standard(lam) == hook_length_count(lam)


def _cycle_type(images):
    seen, lengths = set(), []
    for i in range(len(images)):
        j, m = i, 0
        while j not in seen:
            seen.add(j)
            j = images[j] - 1
            m += 1
        if m:
            lengths.append(m)
    return Partition(tuple(sorted(lengths, reverse=True)))


def test_centralizer_sizes_match_class_counts():
    for d in range(1, 6):
        counts = {}
        for images in itertools.permutations(range(1, d + 1)):
            mu = _cycle_type(images)
            counts[mu] = counts.get(mu, 0) + 1
        assert counts == {mu: math.factorial(d) // centralizer_size(mu) for mu in partitions_of(d)}


def test_character_at_identity_is_standard_count():
    for d in range(1, 9):
        identity = Partition((1,) * d)
        for lam in partitions_of(d):
            assert character(lam, identity) == hook_length_count(lam), lam


def test_character_row_orthogonality():
    for d in range(1, 7):
        classes = partitions_of(d)
        for lam in classes:
            for nu in classes:
                inner = sum(F(character(lam, mu) * character(nu, mu), centralizer_size(mu))
                            for mu in classes)
                assert inner == (lam == nu), (lam, nu)


def test_character_column_orthogonality():
    for d in range(1, 7):
        classes = partitions_of(d)
        for mu in classes:
            for nu in classes:
                inner = sum(character(lam, mu) * character(lam, nu) for lam in classes)
                assert inner == (centralizer_size(mu) if mu == nu else 0), (mu, nu)


def test_character_known_values():
    assert character(Partition.of(2, 1), Partition.of(3)) == -1
    assert character(Partition.of(2, 1), Partition.of(2, 1)) == 0
    assert character(Partition.of(2, 2), Partition.of(2, 2)) == 2
    # the sign character
    for mu in partitions_of(5):
        assert character(Partition((1,) * 5), mu) == (-1) ** (5 - mu.nparts)


def test_character_rejects_size_mismatch():
    with pytest.raises(ValueError):
        character(Partition.of(2, 1), Partition.of(2))


def test_rsk_square_identity():
    for d in range(1, 9):
        assert sum(count_standard(lam) ** 2 for lam in partitions_of(d)) == math.factorial(d)


def test_rsk_mixed_identity():
    for d in range(1, 7):
        for n in range(1, 5):
            total = sum(count_standard(lam) * count_semistandard(lam, n)
                        for lam in partitions_of(d))
            assert total == n ** d


def test_count_semistandard_examples():
    assert count_semistandard(Partition.of(1), 7) == 7
    assert count_semistandard(Partition.of(2), 2) == 3
    assert count_semistandard(Partition.of(1, 1), 2) == 1


def test_count_semistandard_matches_enumeration():
    # the hook-content formula against the tableaux counted one by one
    for d in range(1, 8):
        for lam in partitions_of(d):
            for n in range(1, 9):
                assert count_semistandard(lam, n) == count_semistandard_by_enumeration(lam, n), (lam, n)


def test_count_semistandard_beyond_enumeration():
    # s_(3,2,1)(1^n) = n^2 (n^2 - 1)(n^2 - 4) / 45; at n = 21 there are
    # 1,884,344 tableaux, too many to enumerate in a test
    assert count_semistandard(Partition.of(3, 2, 1), 21) == 1884344
    assert count_semistandard(Partition.of(2, 2), 3) == 6
    assert count_semistandard(Partition.of(1, 1, 1, 1), 3) == 0


def test_semistandard_tableaux_of_one_total():
    # the fillings with a given entry sum, pruned by the row indices of the
    # cells left, against all fillings (enumerated without the total) filtered
    for d in range(1, 8):
        for lam in partitions_of(d):
            for n in range(1, 7):
                every = list(semistandard_tableaux(lam, n))
                for total in range(-1, d * n + 1):
                    assert (list(semistandard_tableaux(lam, n, total=total))
                            == [t for t in every if sum(t.filling) == total]), (lam, n, total)


def test_semistandard_tableaux_match_the_filtered_product():
    # oracle: every filling over the alphabet, in lexicographic order, kept
    # when its rows weakly increase and its columns strictly increase; the
    # total filter is applied to that list
    for d in range(1, 6):
        for lam in partitions_of(d):
            for n in (1, 2, 3, 4):
                every = [t for t in (Tableau(lam, f) for f in
                                     itertools.product(range(n), repeat=d))
                         if t.is_semistandard()]
                assert list(semistandard_tableaux(lam, n)) == every
                for total in range(d * n + 1):
                    assert (list(semistandard_tableaux(lam, n, total=total))
                            == [t for t in every if sum(t.filling) == total])


def test_semistandard_weight_counts_match_enumeration():
    # the q-hook-content formula against the tableaux over {0..n-1} counted
    # by entry sum; no tableau (an empty list) when lam has more than n rows
    for d in range(1, 7):
        for lam in partitions_of(d):
            for n in range(1, 8):
                counts = semistandard_weight_counts(lam, n)
                every = [sum(t.filling) for t in semistandard_tableaux(lam, n)]
                assert counts == [every.count(w) for w in range(max(every, default=-1) + 1)]
                assert sum(counts) == count_semistandard(lam, n)
    with pytest.raises(ValueError):
        semistandard_weight_counts(Partition.of(1), 0)


def test_semistandard_zero_based_alphabet():
    fillings = [t.filling for t in semistandard_tableaux(Partition.of(2), 2)]
    assert fillings == [(0, 0), (0, 1), (1, 1)]


def test_kostka_diagonal_is_one():
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert kostka(lam, lam.parts) == 1


def test_kostka_standard_content():
    assert kostka(Partition.of(2, 1), (1, 1, 1)) == 2


def test_kostka_is_nonzero_exactly_under_dominance():
    # K_{nu,lam} > 0 iff nu dominates lam, so Young's rule is unitriangular
    for d in range(1, 7):
        for nu in partitions_of(d):
            for lam in partitions_of(d):
                assert dominates(nu, lam) == (kostka(nu, lam.parts) > 0), (nu, lam)
    assert not dominates(Partition.of(3, 3), Partition.of(4, 1, 1))
    assert not dominates(Partition.of(4, 1, 1), Partition.of(3, 3))
    with pytest.raises(ValueError):
        dominates(Partition.of(2), Partition.of(1, 1, 1))


def test_kostka_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kostka(Partition.of(2, 1), (1, 1))


def test_kostka_sum_is_semistandard_count():
    import itertools
    for d in range(1, 6):
        for lam in partitions_of(d):
            for n in range(1, 5):
                total = sum(kostka(lam, a)
                            for a in itertools.product(range(d + 1), repeat=n)
                            if sum(a) == d)
                assert total == count_semistandard(lam, n)


@pytest.mark.parametrize("d", range(1, 8))
def test_kostka_matches_enumeration(d):
    # every content of d over at most four letters, zero entries included
    for lam in partitions_of(d):
        for n in range(1, 5):
            for a in compositions(d, n):
                assert kostka(lam, a) == kostka_by_enumeration(lam, a), (lam, a)


def test_count_standard_is_unit_content_kostka():
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert count_standard(lam) == kostka(lam, (1,) * d)


def test_schur_eval_single_row():
    xs = [F(2), F(3)]
    assert schur_poly_eval(Partition.of(1), xs) == 5


def test_schur_eval_counts_at_ones():
    assert schur_poly_eval(Partition.of(2), [F(1), F(1)]) == 3


def test_schur_sum_against_power():
    # sum over lam of f_lam * s_lam(x) = (x_1 + ... + x_n)^d
    xs = [F(1), F(2)]
    d = 3
    total = sum(count_standard(lam) * schur_poly_eval(lam, xs) for lam in partitions_of(d))
    assert total == (xs[0] + xs[1]) ** d == 27


def test_canonical_tableau_shape():
    t = canonical_tableau(Partition.of(2, 1))
    assert t.rows() == [(1, 2), (3,)]
    assert canonical_tableau(Partition.of(3)).filling == (1, 2, 3)
    assert canonical_tableau(Partition.of(1, 1)).rows() == [(1,), (2,)]


def test_young_symmetrizer_trivial():
    c = young_symmetrizer(canonical_tableau(Partition.of(1)))
    assert c == GroupAlgebraElem.unit(1)


def test_young_symmetrizer_row_and_column():
    e = Permutation.identity(2)
    swap = Permutation((2, 1))
    row = young_symmetrizer(Tableau(Partition.of(2), (1, 2)))
    assert row.terms == {e: F(1), swap: F(1)}
    col = young_symmetrizer(Tableau(Partition.of(1, 1), (1, 2)))
    assert col.terms == {e: F(1), swap: F(-1)}


def test_group_algebra_families_have_ranks_and_coordinates():
    # the keys are permutations, so the generic span layer must sort them
    perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    basis = [GroupAlgebraElem(3, {p: F(1)}) for p in perms]
    c = young_symmetrizer(canonical_tableau(Partition.of(2, 1)))
    assert span_rank(basis) == 6 and span_rank(basis + [c]) == 6
    assert solve_in_span(basis, [c]) == [[c.terms.get(p, F(0)) for p in perms]]
    assert solve_in_span(basis[1:], [c]) == [None]  # c has the identity term


@pytest.mark.parametrize("d", range(1, 5))
def test_young_symmetrizer_matches_the_fraction_product(d):
    # against (signed column sum) * (row sum) in Fraction, and every
    # coefficient an int (a sign: the stabilizers meet only in the identity)
    for lam in partitions_of(d):
        c = young_symmetrizer(canonical_tableau(lam))
        assert c.terms == formal_young_symmetrizer(canonical_tableau(lam))
        assert all(type(v) is int and v in (1, -1) for v in c.terms.values())


def test_permutation_product_is_the_composite_of_images():
    group = [Permutation(p) for p in itertools.permutations((1, 2, 3, 4))]
    for a in group:
        for b in group:
            product = a * b
            assert product == Permutation(tuple(a(b(i)) for i in range(1, 5)))
            assert hash(product) == hash(Permutation(product.images))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(2)


def test_young_symmetrizer_rejects_non_standard():
    with pytest.raises(ValueError):
        young_symmetrizer(Tableau(Partition.of(2), (2, 2)))


def test_symmetrizer_products_annihilate():
    sym = young_symmetrizer(Tableau(Partition.of(2), (1, 2)))
    alt = young_symmetrizer(Tableau(Partition.of(1, 1), (1, 2)))
    assert not group_algebra_mul(sym, alt)


def test_symmetrizer_almost_projection():
    for d in range(1, 6):
        for lam in partitions_of(d):
            c = young_symmetrizer(canonical_tableau(lam))
            m = F(math.factorial(d), count_standard(lam))
            assert group_algebra_mul(c, c) == c.scale(m)


def test_relabelled_symmetrizer_is_conjugate():
    # between two standard tableaux of one shape, c_{T'} = sigma c_T sigma^{-1}
    # where sigma carries the entries of T to the entries of T'
    for d in range(2, 5):
        for lam in partitions_of(d):
            tabs = list(standard_tableaux(lam))
            t = tabs[0]
            for t2 in tabs[1:]:
                images = [0] * d
                for v, w in zip(t.filling, t2.filling):
                    images[v - 1] = w
                sigma = Permutation(tuple(images))
                assert relabel(sigma, t) == t2
                lhs = young_symmetrizer(t2)
                rhs = group_algebra_mul(
                    group_algebra_mul(GroupAlgebraElem.of(sigma), young_symmetrizer(t)),
                    GroupAlgebraElem.of(sigma.inverse()))
                assert lhs == rhs


perms = st.permutations(range(1, 5)).map(lambda xs: Permutation(tuple(xs)))


@given(a=perms, b=perms, c=perms)
@settings(max_examples=50)
def test_group_algebra_associativity(a, b, c):
    u = GroupAlgebraElem(4, {a: F(2), b: F(-1)})
    v = GroupAlgebraElem(4, {b: F(1, 2)})
    w = GroupAlgebraElem(4, {c: F(3), a: F(1)})
    lhs = group_algebra_mul(group_algebra_mul(u, v), w)
    rhs = group_algebra_mul(u, group_algebra_mul(v, w))
    assert lhs == rhs


@given(a=perms, b=perms)
@settings(max_examples=50)
def test_permutation_sign_is_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()


def test_unit_acts_trivially():
    v = GroupAlgebraElem(3, {Permutation((2, 3, 1)): F(5)})
    assert group_algebra_mul(GroupAlgebraElem.unit(3), v) == v
