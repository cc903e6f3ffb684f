"""The derivation-based symmetry checks against the formal-parameter oracle.

``diffhom`` has no formal parameters: each symmetry is decided by an exact
derivation over Q.  The oracle in ``formal`` substitutes the group element
with formal entries instead; the two must agree everywhere they are compared.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import diffhom
from diffhom import dpoly, hwv
from diffhom.exact import SparseComb
from diffhom.dpoly import derive, gl_elementary, mono_multidegree, parse
from diffhom.hwv import hwv_basis, kernel_dim_isotypic
from diffhom.tableaux import Partition, Tableau, partitions_of
from diffhom.verify import check_hwv_unipotent, check_hwv_weight
from formal import (UniPoly, WronskSpec, formal_build_wronskian,
                    formal_functional_solution_dim, formal_is_unipotent_invariant,
                    formal_is_weight_vector, oracle_wronskian)

SRC = Path(__file__).resolve().parents[1] / "src" / "diffhom"


def test_library_has_no_formal_parameters():
    offenders = [path.name for path in sorted(SRC.glob("*.py")) if "ParamPoly" in path.read_text()]
    assert not offenders
    assert not hasattr(diffhom, "ParamPoly")
    assert not hasattr(diffhom, "q_action")


def test_library_has_no_gl_action():
    # GL stability is certified from the derivations E_pq, so the library
    # applies no matrix and straightens no D_T on its own; the GL action is
    # the oracle formal_matrix_action, and the ring substitution stays in
    # dpoly for it, with no caller in the library
    assert not hasattr(dpoly, "matrix_action") and not hasattr(dpoly, "_group_image")
    assert not hasattr(diffhom, "matrix_action") and not hasattr(diffhom, "_group_image")
    assert not hasattr(hwv, "straighten")
    calls = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines()
             if "substitute(" in line and not line.startswith("def substitute(")]
    assert not calls


def test_library_has_three_sparse_algebras():
    # the tensor power is the polynomial ring: a tensor is a MultiPoly with
    # every exponent <= k, so there is no tensor class beside it
    library = {cls.__name__ for cls in SparseComb.__subclasses__()
               if cls.__module__.startswith("diffhom.")}
    assert library == {"DiffPoly", "MultiPoly", "GroupAlgebraElem"}
    assert not hasattr(diffhom, "Tensor")


@pytest.mark.parametrize("lam", [lam for d in range(1, 6) for lam in partitions_of(d)],
                         ids=lambda lam: str(lam.parts))
def test_functional_solution_dim_matches_formal_substitution(lam):
    # the solutions of the functional equation on the D_T of shape lam, as
    # the nullity of L_1..L_k in the solver and by formal substitution
    n = lam.nparts - 1
    for k in range(4):
        assert kernel_dim_isotypic(lam, k) == formal_functional_solution_dim(lam, k, n)


def is_weight_vector(p, weight):
    return all(mono_multidegree(m, p.n) == weight for m in p.terms)


def is_unipotent_invariant(p, pp, q):
    return not derive(p, gl_elementary(pp, q))


def _padded(parts, n):
    return list(parts) + [0] * (n + 1 - len(parts))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_weight_and_unipotent_verdicts_match_matrix_action(d):
    n = 3
    checked = 0
    for lam in partitions_of(d):
        for _, p in hwv_basis(lam, min(d - 1, 3), n):
            weight = _padded(lam.parts, n)
            assert is_weight_vector(p, weight) and formal_is_weight_vector(p, weight)
            wrong = weight[1:] + weight[:1]
            if wrong != weight:
                assert not is_weight_vector(p, wrong)
                assert not formal_is_weight_vector(p, wrong)
            for q in range(1, n + 1):
                for pp in range(q):
                    assert is_unipotent_invariant(p, pp, q)
                    assert formal_is_unipotent_invariant(p, pp, q)
                    # the lowering E_q,pp kills a highest weight vector exactly
                    # when its weight has equal entries pp and q
                    lowered = weight[pp] == weight[q]
                    assert is_unipotent_invariant(p, q, pp) == lowered
                    assert formal_is_unipotent_invariant(p, q, pp) == lowered
            checked += 1
    assert checked


@pytest.mark.parametrize("text, n", [
    ("x1", 1), ("x0*x1[1] - x1*x0[1]", 1), ("x0*x1", 1), ("x0[2]*x2 + x1*x2[1]", 2),
    ("x0^2*x1[1] - 2*x0*x1*x0[1]", 1), ("3/2*x0[1]", 2),
])
def test_verdicts_on_other_polynomials_match_matrix_action(text, n):
    p = parse(text, n)
    for weight in itertools.product(range(4), repeat=n + 1):
        weight = list(weight)
        assert is_weight_vector(p, weight) == formal_is_weight_vector(p, weight)
    for pp, q in itertools.permutations(range(n + 1), 2):
        assert is_unipotent_invariant(p, pp, q) == formal_is_unipotent_invariant(p, pp, q)


def test_x1_is_not_killed_by_e01():
    p = parse("x1", 1)
    assert not is_unipotent_invariant(p, 0, 1)
    assert not formal_is_unipotent_invariant(p, 0, 1)
    assert is_unipotent_invariant(p, 1, 0) and formal_is_unipotent_invariant(p, 1, 0)


@pytest.mark.parametrize("parts, n", [((1, 1, 1), 1), ((2, 1, 1), 1), ((1, 1), 0),
                                      ((2, 1), 0)])
def test_weight_and_unipotent_checks_on_shapes_taller_than_n_plus_one(parts, n):
    # the D_T space is zero, so both checks hold vacuously
    for k in range(3):
        assert check_hwv_weight(parts, k, n).computed == "weight vector"
        assert check_hwv_weight(parts, k, n).passed
        assert check_hwv_unipotent(parts, k, n).passed


def test_weight_and_unipotent_checks_report_failures(monkeypatch):
    # x1 has weight (0, 1) and E_01 x1 = x0: neither a weight-(1, 0) vector nor invariant
    import diffhom.verify as verify
    tableau = Tableau(Partition.of(1), (0,))
    monkeypatch.setattr(verify, "hwv_basis", lambda lam, k, n: [(tableau, parse("x1", n))])
    assert check_hwv_weight((1,), 0, 1).computed == "failure at tableau (0,)"
    assert check_hwv_unipotent((1,), 0, 1).computed == "failure at tableau (0,), (q,p)=(1,0)"


def _random_spec(rng, n, d):
    """Rational entries of degree up to d, some with a zero constant term."""
    return WronskSpec(tuple(
        (UniPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(rng.randint(1, d + 1))]),
         rng.randint(0, n)) for _ in range(d)))


def test_formal_build_wronskian_matches_det_expansion_on_random_rational_specs():
    # repeated variables, cancellation and Fraction entries, not only t^a:
    # the tuple expansion against the minor expansion of the same matrix
    rng = random.Random(1809)
    for n, d in [(0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        for _ in range(6):
            spec = _random_spec(rng, n, d)
            built = formal_build_wronskian(spec, n)
            assert built == oracle_wronskian(spec, n)
            assert all(type(c) is Fraction for c in built.terms.values())
