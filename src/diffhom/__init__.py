"""Exact computer algebra for differentially homogeneous polynomials.

Constructs and verifies, entirely over Q: the (N+1)^d canonical Wronskian
basis, highest-weight-vector bases from column-determinant products, Young
symmetrizer kernel dimensions on tensor powers, the polynomial solution space
of the Newton power-sum PDE system, and the census of twisted jet
differentials on projective spaces.
"""

__version__ = "0.1.0"

SCHEMA_VERSION = 1

from .exact import nullspace_basis, rank
from .dpoly import (DiffPoly, Gradings, gradings, is_diff_homogeneous, parse,
                    span_rank, to_text)
from .tableaux import (GroupAlgebraElem, Partition, Permutation, Tableau,
                       canonical_tableau, count_semistandard, count_standard,
                       group_algebra_mul, kostka, partitions_of,
                       young_symmetrizer)
from .wronskian import (CanonicalDatum, basis_manifest, build_wronskian,
                        enumerate_canonical_basis, reduce_to_triangular,
                        verify_wedge_identity)
from .hwv import (MultiPoly, column_det, d_t, e_iso, hwv_basis, j_ell,
                  kernel_dim_full, kernel_dim_isotypic, symmetrizer_projection,
                  tensor_of_tableau)
from .pde import newton_operator, solution_space_dim
from .jets import census, classify_basis, verify_theorem2
