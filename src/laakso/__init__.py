"""Spectral analysis on Laakso spaces.

Exact eigenvalue families with multiplicities, quantum-graph
discretizations with potentials, spectral zeta functions with analytic
continuation, and regularized Casimir energies for conducting plates.
"""

import os as _os

if "LAAKSO_THREADS" in _os.environ:
    # cap BLAS/OpenMP pools before numpy is first imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["LAAKSO_THREADS"])

from .casimir import CasimirForce, RegularizedEnergy, casimir_force, plate_zeta_energy
from .graphs import (
    QuantumGraph,
    ShapeCensus,
    WellGeometry,
    build_graph,
    column_boundaries,
    shape_census,
    well_geometry,
)
from .plates import PlateConfig, PlateConfigError
from .sequences import JSequence, SequenceTooShort, hausdorff_dimension, level_products
from .solver import (
    ConvergenceError,
    DiscretizedOperator,
    EigenResult,
    Potential,
    RowFlipOperator,
    cluster,
    discretize,
    eigenfunction_trace,
    reduce_rows,
    solve,
    solve_lowest,
    solve_row_flip,
)
from .spectra import (
    MERGED,
    PER_FAMILY,
    LineSource,
    MultiplicityError,
    SpectralLine,
    Spectrum,
    SpectrumQuery,
    census_closed_form,
    free_spectrum,
    interior_shape_counts,
    merge_lines,
    plates_spectrum,
    square_well_spectrum,
)
from .zeta import (
    PoleError,
    ZetaValue,
    geometric_continuation,
    hurwitz_half_sum,
    riemann_zeta,
    spectral_dimension,
    spectral_zeta_direct,
    spectral_zeta_periodic,
    table_zeta,
    zeta_limit_half,
    zeta_poles,
)

__version__ = "0.1.0"

__all__ = [
    "CasimirForce", "RegularizedEnergy", "casimir_force", "plate_zeta_energy",
    "QuantumGraph", "ShapeCensus", "WellGeometry", "build_graph",
    "column_boundaries", "shape_census", "well_geometry",
    "PlateConfig", "PlateConfigError",
    "JSequence", "SequenceTooShort", "hausdorff_dimension", "level_products",
    "ConvergenceError", "DiscretizedOperator", "EigenResult", "Potential",
    "RowFlipOperator", "cluster", "discretize", "eigenfunction_trace", "reduce_rows",
    "solve", "solve_lowest", "solve_row_flip",
    "MERGED", "PER_FAMILY", "LineSource", "MultiplicityError", "SpectralLine",
    "Spectrum", "SpectrumQuery", "census_closed_form",
    "free_spectrum", "interior_shape_counts", "merge_lines", "plates_spectrum",
    "square_well_spectrum",
    "PoleError", "ZetaValue", "geometric_continuation", "hurwitz_half_sum",
    "riemann_zeta", "spectral_dimension", "spectral_zeta_direct",
    "spectral_zeta_periodic", "table_zeta", "zeta_limit_half", "zeta_poles",
    "__version__",
]
