"""Discrete Canham-Helfrich bending energy on closed triangle meshes.

Evaluation of single- and multiphase bending energies with line tension,
constrained shape optimization under area/volume/no-overlap constraints,
and numerical verification of the inequalities the energy satisfies.
"""

from .constraints import (
    ConstraintSet,
    PhaseSupport,
    constraint_residuals,
    isoperimetric_check,
    no_overlap_check,
    overlap_measure,
    phase_support,
)
from .curvature import CurvatureField, curvature_field
from .density import (
    MaterialParams,
    coercivity_constants,
    convexity_check,
    f_ch,
    hessian,
)
from .energy import (
    EnergyReport,
    PhaseField,
    canham_helfrich,
    multiphase_energy,
    willmore,
)
from .mesh import TriMesh, diameter, enclosed_volume
from .mesh_io import read_mesh, write_mesh
from .optimize import OptimizerState, RunConfig, minimize

__version__ = "0.1.0"

__all__ = [
    "ConstraintSet",
    "CurvatureField",
    "EnergyReport",
    "MaterialParams",
    "OptimizerState",
    "PhaseField",
    "PhaseSupport",
    "RunConfig",
    "TriMesh",
    "canham_helfrich",
    "coercivity_constants",
    "constraint_residuals",
    "convexity_check",
    "curvature_field",
    "diameter",
    "enclosed_volume",
    "f_ch",
    "hessian",
    "isoperimetric_check",
    "minimize",
    "multiphase_energy",
    "no_overlap_check",
    "overlap_measure",
    "phase_support",
    "read_mesh",
    "willmore",
    "write_mesh",
]
