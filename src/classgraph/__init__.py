"""Prime graphs on conjugacy class sizes.

Build the prime graph of a finite group's class-size spectrum, detect
block-square structure, recognize D-groups, verify that block squares
force a coprime product of two D-groups, and construct a group realizing
any admissible block square.
"""

from .analysis import (
    COUNTEREXAMPLE_CANDIDATE,
    NOT_BLOCK_SQUARE,
    VERIFIED,
    CentralSplit,
    DecompositionReport,
    DecompositionWitness,
    DGroupWitness,
    dgroup_witness,
    strip_central_sylows,
    structural_dgroup_witness,
    verify_decomposition,
)
from .blocks import (
    BlockPartition,
    find_block_partitions,
    is_admissible_block_square,
    is_block_square_partition,
)
from .builder import ConstructionResult, construct_block_square_group
from .construction import (
    Abelian,
    Cyclic,
    Direct,
    DirectProduct,
    Frobenius,
    GroupExpr,
    MetabelianGroup,
    Perm,
    Semidirect,
    class_size_spectrum,
    evaluate,
    is_frobenius_action,
    to_permutation,
)
from .dirichlet import PrimeRequest, find_primes_in_ap
from .errors import (
    BadPartition,
    BoundExhausted,
    CapExceeded,
    ClassGraphError,
    CoprimalityViolation,
    DecompositionFailure,
    ExprError,
    FaithfulnessFailure,
    InternalInvariantError,
    InvalidMultiplier,
    PredictionMismatch,
    SpecFileError,
    TooManyVertices,
)
from .graph import PrimeGraph, convolve_spectra, delta_of
from .perm import (
    ConjugacyClass,
    PermGroup,
    Permutation,
    symmetric_group,
    trivial_group,
)
from .specfile import parse_spec_file, parse_spec_text, serialize_spec, write_spec_file

__version__ = "0.1.0"
