"""Gaussian states, symplectic maps, and their closed-form entropies.

Conventions: the covariance matrix of the vacuum is I/2, so the vacuum
Wigner function is exp(-x**2 - p**2)/pi and the purity of a state with
covariance G is mu = 1 / (2 sqrt(det G)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonSymplecticError
from .mixtures import _real_array

__all__ = [
    "GaussianState",
    "SymplecticMap",
    "vacuum",
    "thermal",
    "squeezed_vacuum",
    "rotation_map",
    "squeeze_map",
    "random_symplectic",
    "apply_symplectic",
    "gaussian_wigner",
    "gaussian_wigner_entropy",
    "gaussian_renyi_entropy",
    "gaussian_wehrl_entropy",
]

OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])

SYMPLECTIC_TOL = 1e-12
HEISENBERG_TOL = 1e-10
#: draw ranges of random_symplectic: |squeeze| and each displacement component
MAX_SQUEEZE = 2.0
MAX_DISPLACEMENT = 2.0


def _frozen_array(values, shape, what: str) -> np.ndarray:
    arr = _real_array(values, what)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class GaussianState:
    """Single-mode Gaussian state: mean vector and 2x2 covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, mean, cov):
        object.__setattr__(self, "mean", _frozen_array(mean, (2,), "mean"))
        object.__setattr__(self, "cov", _frozen_array(cov, (2, 2), "covariance"))
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise ValueError("mean and covariance must be finite")
        g = self.cov
        if abs(g[0, 1] - g[1, 0]) > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        det = float(np.linalg.det(g))
        if g[0, 0] <= 0 or det <= 0:
            raise ValueError("covariance matrix must be positive definite")
        if det < 0.25 - HEISENBERG_TOL:
            raise ValueError(
                f"covariance determinant {det} violates the Heisenberg bound 1/4"
            )

    @property
    def det_cov(self) -> float:
        return float(np.linalg.det(self.cov))

    @property
    def purity(self) -> float:
        """Tr rho**2 = 1 / (2 sqrt(det cov))."""
        return 1.0 / (2.0 * math.sqrt(self.det_cov))


@dataclass(frozen=True)
class SymplecticMap:
    """Affine phase-space map xi -> S xi + d with S preserving the symplectic form."""

    matrix: np.ndarray
    displacement: np.ndarray

    def __init__(self, matrix, displacement=(0.0, 0.0)):
        m = _frozen_array(matrix, (2, 2), "symplectic matrix")
        with np.errstate(invalid="ignore"):
            residual = float(np.max(np.abs(m @ OMEGA @ m.T - OMEGA)))
        # written so that a NaN residual, from a non-finite matrix, fails too
        if not residual <= SYMPLECTIC_TOL:
            raise NonSymplecticError(
                f"matrix deviates from the symplectic group by {residual:.3e}"
            )
        d = _frozen_array(displacement, (2,), "displacement")
        if not np.all(np.isfinite(d)):
            raise ValueError("displacement must be finite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "displacement", d)


def vacuum() -> GaussianState:
    return GaussianState((0.0, 0.0), 0.5 * np.eye(2))


def thermal(mean_photons: float) -> GaussianState:
    """Thermal state with the given mean photon number (isotropic covariance)."""
    if not 0 <= mean_photons < math.inf:
        raise ValueError(f"mean photon number {mean_photons!r} must be finite and non-negative")
    return GaussianState((0.0, 0.0), (mean_photons + 0.5) * np.eye(2))


def rotation_map(theta: float) -> SymplecticMap:
    c, s = math.cos(theta), math.sin(theta)
    return SymplecticMap([[c, -s], [s, c]])


def squeeze_map(s: float) -> SymplecticMap:
    return SymplecticMap([[math.exp(s), 0.0], [0.0, math.exp(-s)]])


def squeezed_vacuum(s: float) -> GaussianState:
    return apply_symplectic(vacuum(), squeeze_map(s))


def random_symplectic(rng: np.random.Generator) -> SymplecticMap:
    """Random map from the Euler decomposition rotation * squeeze * rotation.

    Exactly symplectic by construction for any draw.
    """
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    s = rng.uniform(-MAX_SQUEEZE, MAX_SQUEEZE)
    m = rotation_map(t1).matrix @ squeeze_map(s).matrix @ rotation_map(t2).matrix
    d = rng.uniform(-MAX_DISPLACEMENT, MAX_DISPLACEMENT, size=2)
    return SymplecticMap(m, d)


def apply_symplectic(state: GaussianState, sym: SymplecticMap) -> GaussianState:
    """Transform mean -> S mean + d and cov -> S cov S^T."""
    s = sym.matrix
    return GaussianState(s @ state.mean + sym.displacement, s @ state.cov @ s.T)


def gaussian_wigner(state: GaussianState, x, p):
    """Wigner function of a Gaussian state: the normal density over phase space."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    inv = np.linalg.inv(state.cov)
    dx = x - state.mean[0]
    dp = p - state.mean[1]
    quad_form = inv[0, 0] * dx * dx + 2.0 * inv[0, 1] * dx * dp + inv[1, 1] * dp * dp
    norm = 1.0 / (2.0 * math.pi * math.sqrt(state.det_cov))
    values = norm * np.exp(-0.5 * quad_form)
    return float(values) if values.ndim == 0 else values


def gaussian_wigner_entropy(state: GaussianState) -> float:
    """Closed-form Wigner entropy ln(2 pi sqrt(det cov)) + 1 = ln(pi/mu) + 1.

    Equals ln(pi) + 1 exactly when the state is pure, regardless of
    squeezing or displacement.
    """
    return gaussian_renyi_entropy(state, 1.0)


def gaussian_renyi_entropy(state: GaussianState, alpha: float) -> float:
    """Order-alpha entropy of the Gaussian Wigner function, closed form."""
    if not alpha > 0:
        raise ValueError("Renyi order must be positive")
    base = math.log(2.0 * math.pi * math.sqrt(state.det_cov))
    if alpha == 1.0:
        return base + 1.0
    if math.isinf(alpha):
        return base
    return base + math.log(alpha) / (alpha - 1.0)


def gaussian_wehrl_entropy(state: GaussianState) -> float:
    """Entropy of the Husimi function of a Gaussian state.

    The Husimi function equals the Wigner function of the state after a
    balanced beam splitter with vacuum, a Gaussian with covariance
    (cov + I/2)/2; coherent states give the minimum ln(pi) + 1.
    """
    # det((cov + I/2)/2) = det/4 + tr/8 + 1/16 >= 1/4: it passes the Heisenberg check
    husimi = GaussianState(state.mean, 0.5 * state.cov + 0.25 * np.eye(2))
    return gaussian_renyi_entropy(husimi, 1.0)
