"""frobforge: exact and numerical exploration of Frobenius manifolds."""

from .charts import (
    FMChart,
    IntersectionFormMatrix,
    check_axioms,
    check_wdvv,
    intersection_form,
    mu_matrix,
    structure_constants,
    virasoro_central_charge,
)
from .deformed import (
    DeformedFlatSeries,
    deformed_flat_coordinates,
    pairing_holds,
    potential_from_gradient,
)
from .descendents import (
    DescendentTable,
    Genus1Value,
    HierarchyFlow,
    flow_commutator_jets,
    genus1_restricted,
    hierarchy_flow,
    omega_table,
)
from .errors import (
    AlgebraError,
    FrobforgeError,
    NumericError,
    SemisimplicityError,
    ValidationError,
)
from .frames import (
    CanonicalFrame,
    ChartEvaluator,
    FrameStack,
    canonical_coordinates,
    canonical_frame,
    canonical_frames,
    vi_matrices,
)
from .isomonodromy import (
    GValue,
    IsomonodromyState,
    IsomonodromyTrajectory,
    flow_rhs,
    g_function,
    hamiltonians,
    integrate,
)
from .laurent import LaurentTail
from .monodromy import (
    BraidOrbit,
    MonodromyData,
    PdConnectionData,
    braid_act,
    braid_orbit,
    braid_word,
    check_compatibility,
    pd_connection,
)
from .poly import MultiPoly, Rational
from .projective import (
    PdClassicalData,
    build_p2_chart,
    instanton_numbers,
    pd_classical_data,
    pd_stokes,
)
from .series import ExpSeries
from .unfolding import (
    FlatCoordinateMap,
    Unfolding,
    build_an_chart,
    critical_values,
    flat_coordinates,
    residue_series,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
