"""Spectral solver for the exterior planar div-curl problem.

Given divergence, vorticity, a Dirichlet boundary trace and a constant
far-field velocity, the package checks the solvability moment conditions,
solves the field mode by mode in the exterior of a disk, transfers general
exterior domains through a conformal map, and cross-validates everything
against a direct Biot-Savart quadrature oracle and a stream-function path.
"""

from .grids import (
    BoundaryTrace,
    RadialGrid,
    SpectralField,
    analyze,
    equispaced_angles,
    smooth_bump,
    synthesize,
    synthesize_boundary,
)
from .quadrature import CumulativeIntegral, cumulative
from .disk import (
    DiskProblem,
    FarField,
    VelocitySolution,
    solve_disk,
    vinf_coefficients,
)
from .moments import (
    MomentReport,
    make_admissible,
    moment_report,
)
from .norms import (
    far_field_deviation_h1,
    far_field_deviation_l2,
    h1_seminorm,
    h_half_boundary_norm,
    l2_weighted_norm,
)
from .conformal import (
    ConformalMap,
    ExteriorProblem,
    ExteriorSolution,
    MapVerificationError,
    identity_map,
    joukowski_map,
    pullback_problem,
    solve_exterior,
    verify_map,
)
from .biot_savart import biot_savart_disk, biot_savart_omega
from .stream import StreamFunction, neumann_defect, solve_stream, velocity_from_stream

__version__ = "0.1.0"
