"""treelab: a verification laboratory for operator identities on finite trees.

Builds the parent-shift calculus of a rooted tree (shift, adjacency,
deformations, resolvents, the vertex-to-edge map and coboundary), the
permutation representations of the tree's automorphism group and their
bounded and unitary deformations, and the distance/decay kernels with
their negativity and positivity certificates. A vector is a column of a
(dim, k) numpy block, and an operator maps a block with `op @ block`.
Every identity is checked two ways: block appliers against a dense
brute-force oracle.
"""

from .trees import (
    Tree,
    RootedTree,
    TreeFormatError,
    parse_tree,
    serialize_tree,
    root_at,
    tree_from_spec,
    make_path,
    make_star,
    make_regular,
    make_random,
)
from .operators import (
    LinearOperator,
    adjacency_operator,
    branching_operator,
    parent_shift_operator,
    origin_projection,
    deformation_operator,
    deformation_inverse,
    resolvent_apply,
    resolvent_operator,
    parent_edge_operator,
    coboundary_operator,
    materialize,
    operator_norm,
    parse_complex,
    format_complex,
)
from .groups import (
    GroupClosure,
    verify_automorphism,
    close_group,
    full_automorphism_group,
    edge_images,
    pi0_operator,
    pi1_operator,
)
from .reps import (
    bounded_rep_operator,
    unitary_rep_operator,
    limit_rep_operator,
    finite_rank_defect,
    uniform_bound_certificate,
    homotopy_curve,
    displacement,
)
from .kernels import (
    distance_kernel,
    exp_kernel,
    gram_kernel,
    cnd_check,
    psd_check,
    gram_identity_check,
    geodesic_cocycle,
    cocycle_report,
)
from .checks import SuiteConfig, SuiteReport, run_check_suite, TOLERANCES

__version__ = "0.1.0"
