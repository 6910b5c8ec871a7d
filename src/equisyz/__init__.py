"""Exact computer algebra for syzygies in equivariant cohomology.

Subpackages: polyring (rational polynomial and Groebner kernel), gradmod
(finitely presented graded modules and their homological invariants), weyl
(finite reflection groups and invariants), cartan (Cartan models), equivtop
(GKM graphs, Atiyah-Bredon complexes and the equivalence theorems), cli.
"""

from .polyring import (
    GradedPolynomialRing, Polynomial, Vector, RingMap, HilbertSeries,
    GroebnerBasis, buchberger, syzygy_basis, SubmoduleGB,
)
from .gradmod import (
    FreeModule, ModuleMap, FPModule, FPMap, Resolution, minimal_resolution,
    betti_table, dimension, depth, ext_module, biduality, CheckReport,
    cohen_macaulay, syzygy_order, base_change, iso_surrogate_equal, NEG_INF,
)
from .weyl import (
    ReflectionGroup, WEquivariantFreeModule, cyclic_sign_group,
    symmetric_group_on_sum_zero, signed_permutation_rank2, product_group,
)
from .cartan import (
    GStarModule, CartanComplex, cartan_cohomology, dualize_gstar,
    equivariant_homology, uct_collapse_check,
)
from .equivtop import (
    GKMGraph, FiltrationDatum, chang_skjelbred, gkm_cohomology,
    ab_cohomology, cm_filtration_check, verify_ext_duality,
    partial_exactness_vs_syzygy, descend_invariants, integrate,
    pairing_perfection,
)

__version__ = "0.1.0"
