"""Exact-arithmetic Morse homology for global quotient and intrinsic orbifolds.

The exports are what the commands reach.  The paper's identities that no
command checks (psi as a chain map, the broken-flow weights, the pairings,
gauge invariance) live in tests/paper_identities.py.
"""

from .chaincx import (
    GradedComplex,
    RationalMatrix,
    betti,
    verify_complex,
)
from .errors import (
    ActionNotSimplicial,
    ActionNotWellDefined,
    CancellationFailure,
    ClosureExceedsCap,
    DivisibilityViolation,
    GaugeFailure,
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
)
from .groups import (
    DEFAULT_CAP,
    FiniteGroup,
    generate_group,
    identity_perm,
)
from .intrinsic import (
    OrbifoldMorseSystem,
    boundary_minus,
    boundary_plus,
    verify_d_squared,
)
from .quotient import (
    CriticalOrbit,
    EquivariantMorseSystem,
    ValidationReport,
    Violation,
    classify,
    derive_intrinsic,
    discarded_orbits,
    validate_system,
)
from .simplicial import (
    CompareReport,
    GSimplicialComplex,
    SimplicialComplex,
    barycentric_subdivide,
    compare,
    invariant_homology,
    is_regular,
    quotient,
    regularize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
