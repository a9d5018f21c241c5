"""Covariance-matrix separability tests for bipartite quantum states."""

from .covariance import (
    BlockCovarianceMatrix,
    bloch_invert,
    build_block_cm,
    build_cm,
    concavity_check,
    two_qubit_effective_cm,
)
from .criteria import (
    CriterionVerdict,
    ccnr,
    cmc_filter,
    cmc_kyfan_weyl,
    cmc_schmidt,
    cmc_sdp_2q,
    cmc_singular_values,
    cmc_trace,
    de_vicente,
    extract_lur_from_witness,
    lur_value,
    ppt,
    run_all,
)
from .filtering import NormalForm, normal_form
from .matlin import (
    CheckedState,
    MatrixError,
    ky_fan_norm,
    operator_norm,
    partial_trace,
    partial_transpose,
    realign,
    trace_norm,
)
from .observables import (
    ObservableBasis,
    gellmann_like_basis,
    make_basis,
    pauli_basis,
    standard_basis,
    weyl_parity_basis,
)
from .schmidt import SchmidtOperatorDecomposition, operator_schmidt
from .sdpsolve import SdpProblem, SdpSolution, solve
from .states import (
    bell_diagonal,
    chessboard,
    random_density,
    random_separable,
    rho_epsilon,
    sample_chessboard,
    upb_tiles,
    validate_density,
    werner_2q,
)

__version__ = "0.1.0"
