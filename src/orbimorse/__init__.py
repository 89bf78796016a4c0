"""Exact-arithmetic Morse homology for global quotient and intrinsic orbifolds."""

from .chaincx import (
    ChainMap,
    GradedComplex,
    RationalMatrix,
    betti,
    verify_chain_map,
    verify_complex,
)
from .errors import (
    ActionNotSimplicial,
    ActionNotWellDefined,
    CancellationFailure,
    ClosureExceedsCap,
    DivisibilityViolation,
    GaugeFailure,
    IndexMismatch,
    IndexOutOfRange,
    InvarianceFailure,
    MalformedPermutation,
    MalformedSystem,
    NotAComplex,
    NotASubcomplex,
    NotRegular,
    OrbimorseError,
    ParseError,
    ShapeMismatch,
    SignNotOrbitConstant,
    SystemNotValid,
    UnknownPoint,
    WeightNotOrbitConstant,
)
from .groups import (
    DEFAULT_CAP,
    FiniteGroup,
    GroupAction,
    compose,
    generate_group,
    identity_perm,
    invert,
    orbits,
    stabilizer,
    weighted_orbit_count,
)
from .intrinsic import (
    IntrinsicFlow,
    IntrinsicPoint,
    OrbifoldMorseSystem,
    PairingReport,
    boundary_minus,
    boundary_plus,
    pairing_check,
    psi,
    reverse,
    verify_d_squared,
)
from .quotient import (
    CritPoint,
    CriticalOrbit,
    EquivariantMorseSystem,
    Flow,
    ValidationReport,
    Violation,
    admissible_triples,
    broken_weight,
    classify,
    derive_intrinsic,
    discarded_orbits,
    invariant_boundary,
    orbit_of,
    regauge,
    validate_system,
)
from .simplicial import (
    CompareReport,
    GSimplicialComplex,
    QuotientComplex,
    SimplicialComplex,
    barycentric_subdivide,
    compare,
    homology,
    invariant_homology,
    is_regular,
    quotient,
    regularize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
