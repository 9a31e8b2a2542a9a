"""Normalized right transversals of finite-group subgroups and the right
loops they induce, with classification up to isomorphism and isotopy.

The package builds finite groups from Cayley tables or standard
constructors, enumerates the normalized right transversals of a subgroup,
folds each one into a right loop on coset positions, and decides
isomorphism and isotopy of those loops with verified witnesses. The flips
and burnside modules specialize to reflection subgroups of dihedral
groups, where the isotopy classes are governed by affine maps on residues
and counted exactly by a cycle-index formula.
"""

from .burnside import (
    CycleIndex,
    affine_cycle_index,
    affine_maps,
    cycle_index_from_permutations,
    dihedral_isotopy_count,
    euler_phi,
    evaluate_cycle_index,
    format_cycle_index,
    is_prime,
    subset_orbit_count,
    subset_orbit_count_naive,
)
from .checks import (
    CHECK_IDS,
    CatalogEntry,
    CheckReport,
    default_catalog,
    load_catalog,
    run_suite,
    suite_passed,
)
from .flips import (
    CensusResult,
    FlipSet,
    affine_families,
    affine_family,
    dihedral_transversal,
    flip_loop,
    loop_transversal_census,
    predicted_left_nonsingular,
)
from .groups import (
    CayleyFileError,
    CosetDecomposition,
    FiniteGroup,
    GroupError,
    Subgroup,
    alternating_group,
    build_named_group,
    core,
    cyclic_group,
    dihedral_group,
    dumps_cayley,
    element_index,
    generated_subgroup,
    is_nilpotent,
    is_normal,
    is_solvable,
    load_cayley_file,
    loads_cayley,
    parse_subgroup,
    quotient,
    right_cosets,
    subgroup,
    symmetric_group,
)
from .isotopy import (
    AutotopyGroup,
    ClassPartition,
    IsotopyWitness,
    NotLeftNonsingularError,
    are_isomorphic,
    are_isotopic,
    autotopy_group,
    classify,
    isomorphisms,
    principal_isotope_with_relabel,
    pseudo_automorphism_scan,
)
from .perms import (
    CapExceededError,
    compose,
    cycle_decomposition,
    cycle_type,
    format_cycles,
    identity_perm,
    invert,
    parse_cycles,
    perm_parity,
)
from .reference import ORACLE_ORDER_CAP, brute_force_isotopy_oracle
from .rightloops import (
    ColumnNotBijectiveError,
    NotIdentityError,
    PermutationGroup,
    RightLoop,
    RightLoopError,
    StructureFlags,
    group_torsion,
    is_associative,
    left_nonsingular_elements,
    structure_flags,
    validate_right_loop,
)
from .transversals import (
    DEFAULT_ENUMERATION_CAP,
    Transversal,
    enumerate_transversals,
    induced_right_loop,
    make_transversal,
    transversal_count,
    transversal_from_elements,
)

__version__ = "0.1.0"
