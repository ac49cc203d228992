"""Desk-scale toolkit for regular and semiregular operators on Hilbert
C*-modules: bounded-transform calculus, fiber decomposition, the module /
compact-algebra correspondence, restriction and extension constructions, and
numerical certification of the nonregular derivative field and its regular
gauge companions."""

from .algebra import AlgebraElement, FiberIndex, ideal_density_check
from .correspondence import (
    ModuleModel,
    left_module_operator,
    phi1,
    phi2,
    roundtrip_check,
)
from .diffops import (
    MAXIMAL,
    MINIMAL,
    PERIODIC,
    BoundaryTag,
    GridOperator,
    kernel_certificate,
    periodic_complement_floor,
)
from .fibered import (
    FiberedOperator,
    GaugeField,
    adjoint_field,
    build_counterexample_t,
    extension_inclusion_check,
    fiber_identity_check,
    gauge_extension,
    tilde_extension,
    zfield,
)
from .operators import (
    DomainedOperator,
    ZTransform,
    adjoint_via_graph,
    extend_via_coisometry,
    from_z,
    graph_inclusion,
    restrict_via_isometry,
    restriction_witness,
    z_transform,
)

__version__ = "0.1.0"
