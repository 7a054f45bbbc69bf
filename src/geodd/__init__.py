"""Geometric disturbance decoupling by dynamic output feedback.

Subspace arithmetic, the invariant-subspace machinery for quadruples, the
dual lattice constructions, solvers for the decoupling problem with and
without closed-loop stability, an independent verification harness, the
audit of the paper's structural claims and a seeded plant generator.
"""

from .audit import (
    LatticeReport,
    k_set_equivalence,
    lattice_report,
    necessity_round_trip,
    simulate_impulse,
)
from .errors import (
    AllSingular,
    BoundarySpectrum,
    CertificateFailed,
    ContinuousNotSupported,
    DimensionMismatch,
    FixedSpectrumOutsideRegion,
    GenerationFailed,
    GeoddError,
    Infeasible,
    InvalidInput,
    NoSolution,
    NotInvariant,
    NotStabilizablePair,
    NotWellPosed,
    ParseError,
    SampleTooCloseToPole,
    ShapeError,
    WellPosednessObstruction,
    WellPosednessViolated,
)
from .geometry import (
    FriendCertificate,
    Quadruple,
    SpectralReport,
    friend,
    invariant_zeros,
    reach_detect,
    rstar_qstar,
    self_predicate,
    spectral_report,
    sstar,
    sstar_g,
    stabilizing_friend,
    vstar,
    vstar_g,
)
from .generate import InstanceSpec, generate_instance
from .lattice import (
    PlantSystem,
    extended_quadruples,
    coupling_conditions,
    vm_sM,
)
from .subspaces import (
    StabilityRegion,
    Subspace,
    ToleranceProfile,
    combine,
    extended_ops,
    invariant_hull,
    kernel_of,
    modal_subspace,
    preimage,
    relate,
    span_of,
)
from .synthesis import (
    AffineKFamily,
    Compensator,
    FeasibilityReport,
    analyze_p1,
    analyze_p2,
    coupling_residual,
    close_loop,
    k_affine_family,
    recover_parameters,
    select_wellposed,
    solve,
    synthesize,
)
from .verify import (
    ClosedLoop,
    DecouplingCertificate,
    certify_decoupled,
    default_lambdas,
    stability_check,
    transfer_samples,
)

__version__ = "0.1.0"
