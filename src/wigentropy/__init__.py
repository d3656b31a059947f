"""Phase-space entropies and Wigner positivity for single-mode bosonic states.

The package computes Wigner, order-alpha Wigner, and Wehrl entropies of
Wigner-positive states, characterizes Wigner positivity of Fock mixtures,
builds the Wigner-positive outputs of a beam splitter in both the Fock
basis and on phase-space grids, and ships verification suites for the
identities and bounds these quantities satisfy, including the conjectured
minimum ln(pi) + 1.
"""

__version__ = "0.1.0"

from .beamsplitter import (
    WignerGrid,
    convolve_beamsplitter,
    fock_oracle_sigma,
    grid_from_gaussian,
    grid_from_mixture,
    husimi_phase_invariant,
    mix_through_beamsplitter,
)
from .entropy import (
    MIN_WIGNER_ENTROPY,
    check_epi,
    entropy_power,
    fock_sum_identity_residual,
    mixture_marginal_entropy,
    passive_bound_check,
    wehrl_bridge_check,
    wehrl_entropy,
    wigner_entropy_grid,
    wigner_entropy_radial,
    wigner_renyi,
)
from .exceptions import (
    GridMismatchError,
    NegativeGridError,
    NonSymplecticError,
    NotPassiveError,
    NotWignerPositiveError,
    QuadratureConvergenceError,
    TruncationError,
    WigentropyError,
)
from .fock import marginal_entropy
from .gaussian import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    gaussian_wigner,
    gaussian_wigner_entropy,
    random_symplectic,
    squeezed_vacuum,
    thermal,
    vacuum,
)
from .mixtures import (
    PassiveDecomposition,
    PhotonMixture,
    SigmaState,
    extremal_passive,
    extremal_passive_from_sigmas,
    is_passive,
    passive_decompose,
    sigma_coefficients,
    thermal_mixture,
)
from .positivity import (
    PositivityReport,
    extremal_arc_point,
    positivity_report,
    radial_wigner,
    two_photon_mixture,
    two_photon_region_contains,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
