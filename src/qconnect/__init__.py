"""Numerical toolkit for coupled q-hypergeometric series: local solution
families of the associated q-difference system, explicit connection matrices
between them, and the derived elliptic face weights, with residual-based
verification for every identity."""

from .errors import (
    BranchWarning,
    ConfigError,
    ConvergenceError,
    DomainError,
    PoleError,
    QConnectError,
    ResonanceError,
    SamplingError,
    WordError,
)
from .qkernel import (
    ParamSet,
    QContext,
    cpow,
    lattice_hit,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_transposition,
    permute_seq,
    q_shift,
    qpoch_inf,
    theta,
)
from .oracle import (
    RCOND_FLOOR,
    CasoratiReport,
    casorati_independence,
    check_duality,
    check_jackson,
    check_watson,
    eval_FNM_reference,
    leading_exponents,
    residual_eqn1,
    residual_eqn2,
    scaled_rcond,
)
from .hyperseries import (
    SeriesValue,
    SolutionVector,
    build_solution_vector,
    char_exponents,
    check_resonance,
    component_index,
    component_order,
    eval_FNM,
    eval_FNM_L,
    eval_FNM_Lkl,
    eval_GNM_Lkl,
    eval_nphi,
    in_domain,
    local_solution,
)
from .connection import (
    build_A,
    build_B,
    build_S,
    compose_connection,
    transposition_word,
    verify_connection,
)
from .facemodel import (
    bracket,
    build_Stilde,
    build_W_akm,
    build_Wprime,
    build_Wtilde,
    conj_f,
    conjugacy_residual,
    wprime_gauge_residual,
    ybe_residual,
)
from .sampling import (
    sample_domain_point,
    sample_family_overlap,
    sample_interior_point,
    sample_level_overlap,
    sample_params,
    sample_spectral,
    sample_swap_overlap,
    sample_watson,
    strong_nonresonant,
)

__version__ = "0.1.0"
