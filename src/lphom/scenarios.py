"""Built-in scenario registry and the shared reaction coefficient suite.

Scenarios fix the transform maps D(x), K(x) and the unit cell. The shapes
of the maps are constants of each builder; the inclusion radius a and the
coefficient suite are its only parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TransformField, UnitCellSpec, rotation_matrix


@dataclass(frozen=True)
class CoefficientSuite:
    """Reaction and exchange coefficients of the signaling model.

    F(xi) = mu1 xi / (mu2 + mu3 xi) is the ligand production term and
    p(xi) = kappa1 xi / (kappa2 + kappa3 xi) the receptor production term.
    The receptor decay rates df and db must be finite and positive: the
    receptor bound divides by them.
    """

    mu1: float = 1.0
    mu2: float = 1.0
    mu3: float = 1.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    kappa3: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    dl: float = 0.1
    df: float = 0.1
    db: float = 0.1
    A: float = 1.0          # scalar diffusion coefficient
    l0: float = 1.0
    rf0: float = 1.0
    rb0: float = 0.0

    def __post_init__(self):
        for name in ("df", "db"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate > 0.0):
                raise ValueError(f"decay rate {name} must be finite and "
                                 f"positive, got {rate!r}")

    def F(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.mu1 * xi / (self.mu2 + self.mu3 * xi)

    def p(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.kappa1 * xi / (self.kappa2 + self.kappa3 * xi)

    @property
    def receptor_bound(self) -> float:
        """Bound on r_f + r_b: max of the initial total and sup p / min decay."""
        p_sup = self.kappa1 / self.kappa3 if self.kappa3 > 0 else math.inf
        return max(self.rf0 + self.rb0, p_sup / min(self.df, self.db))

    @property
    def bulk_lipschitz(self) -> float:
        """Crude Lipschitz bound of the explicit reaction updates."""
        f_slope = self.mu1 / self.mu2 if self.mu2 > 0 else math.inf
        l_ref = 2.0 * max(self.l0, 1.0)
        return max(f_slope + self.dl,
                   self.alpha * l_ref + self.beta + self.df + self.db)


@dataclass(frozen=True)
class Scenario:
    """A named microstructure: transform field plus unit cell."""

    name: str
    transform: TransformField
    cell: UnitCellSpec
    suite: CoefficientSuite = field(default_factory=CoefficientSuite)


def periodic_scenario(a: float, suite: CoefficientSuite) -> Scenario:
    I = np.eye(2)
    tf = TransformField(D=lambda x: I, K=lambda x: I)
    return Scenario("periodic", tf, UnitCellSpec(a), suite)


def epithelial_scenario(a: float, suite: CoefficientSuite) -> Scenario:
    """Cells compressed in the second direction: D = diag(1, 0.7 + 0.25 x2)."""

    def D(x):
        return np.diag([1.0, 0.7 + 0.25 * x[1]])

    I = np.eye(2)
    tf = TransformField(D=D, K=lambda x: I)
    return Scenario("epithelial", tf, UnitCellSpec(a), suite)


def plywood2d_scenario(a: float, suite: CoefficientSuite) -> Scenario:
    """Layered fibers: D = R(pi x2 / 2)^{-1} with an elliptical inclusion,
    K = diag(1, 1.4)."""

    def D(x):
        return np.linalg.inv(rotation_matrix(math.pi / 2 * x[1]))

    Kmat = np.diag([1.0, 1.4])
    if 1.4 * a >= 0.5:
        raise ValueError("elliptical inclusion leaves the unit cell")
    tf = TransformField(D=D, K=lambda x: Kmat)
    return Scenario("plywood2d", tf, UnitCellSpec(a), suite)


def radius_gradient_scenario(a: float, suite: CoefficientSuite) -> Scenario:
    """Perforation radius grows along x1: K = (1 + 0.5 x1) I."""

    def K(x):
        rho = 1.0 + 0.5 * float(np.asarray(x)[0])
        return np.diag([rho, rho])

    I = np.eye(2)
    if 1.5 * a >= 0.5:
        raise ValueError("scaled perforation leaves the unit cell")
    tf = TransformField(D=lambda x: I, K=K)
    return Scenario("radius-gradient", tf, UnitCellSpec(a), suite)


_BUILDERS = {
    "periodic": periodic_scenario,
    "epithelial": epithelial_scenario,
    "plywood2d": plywood2d_scenario,
    "radius-gradient": radius_gradient_scenario,
}
SCENARIO_NAMES = tuple(_BUILDERS)


def get_scenario(name: str, a: float = 0.25,
                 suite: CoefficientSuite = CoefficientSuite()) -> Scenario:
    """Build a registry scenario by name, with inclusion radius a and the
    coefficient suite."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    return _BUILDERS[name](a=a, suite=suite)
