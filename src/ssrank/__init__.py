"""Exact invariants of p-torsion group schemes via their mod-p module structure."""

from .ffmat import GF2, Matrix, PrimeField, Subspace
from .bt1 import (
    Bt1ValidationError,
    DieudonneModule,
    InvariantBundle,
    PolarizationSearchError,
    a_number,
    check_polarization,
    direct_sum,
    dual,
    from_json,
    invariants,
    p_rank,
    to_json,
    unpolarized_ss_rank,
    validate_bt1,
    zero_module,
)
from .eo import EOType, FinalType, canonical_module, enumerate_types, eo_type_of, extend_final
from .words import (
    CyclicWord,
    WordCensus,
    census_invariants,
    census_of_type,
    decompose,
    superspecial_rank,
    type_censuses,
    word_module,
)
from .build import (
    InfeasibleProfileError,
    ProfileQuery,
    feasible,
    h_rs,
    i11,
    j_rs,
    ord1,
    realize,
    supersingular_profile,
)
from .curves import (
    HermitianReport,
    HyperellipticReport,
    PoleDivisor,
    doubling_orbits,
    ekedahl_bound,
    hermitian_analyze,
    hyp2_analyze,
    hyp2_module_oracle,
    hyp2_rank0_type,
)

__all__ = [name for name in dir() if not name.startswith("_")]
