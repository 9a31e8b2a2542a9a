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

__version__ = "0.1.0"
