"""The package's public names, frozen.

Dropping or renaming a public name means editing PUBLIC_NAMES here and
listing the removal in CHANGES.md.
"""

import xtangle

PUBLIC_NAMES = (
    "BoundaryScalars", "CharPolyCoeffs", "ConstraintInfeasibleError",
    "CounterpartResult", "DisentangleSolution", "DomainError",
    "NonHermitianError", "NotXFormError", "OutOfDiagramError",
    "OutOfRegimeError", "PathPoint", "RankClass", "Spectrum", "SplitMix64",
    "TargetOutOfRangeError", "UnphysicalError", "XCoeffs", "XParams",
    "as_matrix", "binary_entropy", "boundary_scalars", "char_poly",
    "child_seed", "classify_rank", "coeffs", "concurrence_along",
    "concurrence_general", "concurrence_x", "conjugate", "conjugate_x",
    "counterpart_details", "cp_boundary", "diagonal", "diagram_csv",
    "diagram_data", "disentangle_params", "eof", "evolve", "fannes_ree_bound",
    "from_density", "hermitian_eig", "hermitian_eigvals", "is_density_matrix",
    "is_physical", "is_separable", "is_unitary", "is_x_form",
    "mems_from_spectrum", "minset_state", "negativity_along",
    "negativity_general", "negativity_x", "numerical_rank",
    "partial_transpose", "purity_general", "purity_x", "random_density",
    "random_unitary", "random_xparams", "scalar_q", "scalar_r", "scalar_u",
    "scalar_v", "scalar_w", "scalar_z", "solve_tau", "theorem_params",
    "to_density", "trace_norm", "validate_params", "verstraete_unitary",
    "x_unitary",
)


def test_public_names_are_frozen():
    assert tuple(sorted(xtangle.__all__)) == PUBLIC_NAMES


def test_public_names_are_unique():
    assert len(set(xtangle.__all__)) == len(xtangle.__all__)


def test_public_names_resolve():
    missing = [name for name in xtangle.__all__ if not hasattr(xtangle, name)]
    assert missing == []
