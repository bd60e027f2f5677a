"""Finite-dimensional Lie-Poisson spaces and their extensions.

The package builds Lie algebras from structure constants, assembles
extensions from cocycle data (and extracts such data from sections),
verifies every compatibility and predual-closure condition, evaluates
Lie-Poisson brackets and Hamiltonian vector fields, and integrates the
resulting flows with conservation diagnostics.  Two worked systems ship
with it: a semidirect quantum system on a Hilbert slot coupled to a
trace-class slot, and a block-operator model of the restricted algebra
over a polarized space.
"""

from .algebra import (
    DualPairing,
    LieAlgebra,
    StructureReport,
    abelian,
    ad_star,
    algebra_from_json,
    algebra_to_json,
    bracket_eval,
    builtin_algebra,
    center_of,
    check_structure,
    gl,
    heisenberg,
    identity_pairing,
    realify,
    realify_pairing,
    so3,
    trace_pairing,
)
from .extension import (
    ClosureReport,
    CompatibilityReport,
    DerivationMap,
    ExtensionSpec,
    Section,
    SkewBilinearMap,
    build_extension,
    check_compatibility,
    check_predual_closure,
    coadjoint_extension,
    direct_sum_pairing,
    section_to_data,
)
from .integrators import (
    IntegratorConfig,
    SeriesDrift,
    Trajectory,
    conservation_report,
    integrate_flow,
)
from .poisson import (
    SmoothFunction,
    extension_hamiltonian_field,
    extension_poisson_bracket,
    functional_derivative,
    hamiltonian_field,
    hamiltonian_vector_field,
    lie_poisson_bracket,
    product_bracket,
)
from .sequences import (
    ExactnessReport,
    LinearMapRec,
    MatrixStarAlgebra,
    SequenceSpec,
    Space,
    check_exact_sequence,
    dual_map,
    dual_sequence,
    wstar_central_split,
)

__version__ = "0.1.0"
