"""The concrete correlation and L-kernels, in integrable (f,g) form.

Discrete kernels live on the half-integer lattice Z' = Z + 1/2, continuous
ones on R \\ {0}.  Every L-kernel is exposed through its integrable data
(f1, f2, g1, g2) with

    L(x,y) = (f1(x) g1(y) + f2(x) g2(y)) / (x - y),
    f1 g1 + f2 g2 = 0  on the diagonal,

and every correlation kernel through resolvent data (F1, F2, G1, G2) with
the same quotient form.  Diagonal values follow the kernel's rule: zero for
the L-kernels (their numerator vanishes at equal arguments), the L'Hospital
derivative formula K(x,x) = F1'(x)G1(x) + F2'(x)G2(x) for the discrete
Bessel family, and a Richardson continuity limit for the Whittaker kernel.

`matrix` evaluates the (f, g) data once per point and assembles the window
as outer products; it accepts data the caller already holds, so that the
Nystrom resolvent shares one evaluation between the matrix and its
array-valued rows and columns.  The Whittaker kernel gets both W orders of
a point from one array-valued `whittaker_w` call and keeps them for the
kernel's lifetime.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import exp, lgamma, log, pi, sqrt
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateGridError, ParameterError, SingularOperatorError
from .special import (
    bessel_j,
    bessel_j_dorder,
    log_gamma,
    whittaker_w,
    whittaker_w_complex,
)

__all__ = [
    "KernelParams",
    "IntegrableKernel",
    "AssembledKernel",
    "plancherel_l",
    "zw_l",
    "scaled_whittaker_l",
    "discrete_bessel_k",
    "discrete_bessel_khat",
    "whittaker_kernel_k",
    "psi_matrix",
    "psi_inv_t_printed",
    "christoffel_darboux_k",
    "ChristoffelDarbouxKernel",
    "two_point_k",
    "TwoPointModel",
    "LATTICE",
    "REAL_LINE",
]

LATTICE = "lattice"
REAL_LINE = "real-line"

_RICHARDSON_STEPS = (1e-2, 5e-3, 2.5e-3)


def _is_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real == round(z.real)


@dataclass(frozen=True)
class KernelParams:
    """Validated parameter bundle: theta > 0, z not an integer, xi in (0,1)."""

    theta: Optional[float] = None
    z: Optional[complex] = None
    xi: Optional[float] = None

    def __post_init__(self):
        if self.theta is not None and not self.theta > 0.0:
            raise ParameterError(f"theta must be positive, got {self.theta}")
        if self.z is not None and _is_integer(complex(self.z)):
            raise ParameterError(f"z must avoid the integers, got {self.z}")
        if self.xi is not None and not 0.0 < self.xi < 1.0:
            raise ParameterError(f"xi must lie in (0,1), got {self.xi}")

    @property
    def eta(self) -> float:
        if self.theta is None:
            raise ParameterError("eta requires theta")
        return math.sqrt(self.theta)


@dataclass(frozen=True)
class IntegrableKernel:
    """Kernel (f1(x)g1(y)+f2(x)g2(y))/(x-y) with vanishing diagonal numerator."""

    domain: str
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    g1: Callable[[float], float]
    g2: Callable[[float], float]
    name: str = ""
    diagonal_rule: str = "zero"

    def numerator(self, x: float, y: float) -> float:
        return self.f1(x) * self.g1(y) + self.f2(x) * self.g2(y)

    def __call__(self, x: float, y: float) -> float:
        if x == y:
            return 0.0
        return self.numerator(x, y) / (x - y)

    def fg_arrays(self, points) -> tuple:
        pts = np.asarray(points, dtype=float)
        return tuple(
            np.array([f(float(x)) for x in pts])
            for f in (self.f1, self.f2, self.g1, self.g2)
        )

    def matrix(self, points, fg: Optional[tuple] = None) -> np.ndarray:
        """Dense kernel matrix on a point set, diagonal by the kernel's rule.

        `fg` is `fg_arrays(points)`, when the caller has them already.
        """
        pts = np.asarray(points, dtype=float)
        f1, f2, g1, g2 = self.fg_arrays(pts) if fg is None else fg
        # in place, with one scratch matrix: at window sizes, faulting in a
        # fresh n x n array costs more than an arithmetic pass over it
        out = np.outer(f1, g1)
        scratch = np.outer(f2, g2)
        out += scratch
        dx = np.subtract.outer(pts, pts, out=scratch)
        np.fill_diagonal(dx, 1.0)
        out /= dx
        np.fill_diagonal(out, 0.0)
        return out


@dataclass(frozen=True)
class AssembledKernel:
    """Correlation kernel (F1(x)G1(y)+F2(x)G2(y))/(x-y) with a diagonal rule."""

    domain: str
    F1: Callable[[float], float]
    F2: Callable[[float], float]
    G1: Callable[[float], float]
    G2: Callable[[float], float]
    dF1: Optional[Callable[[float], float]] = None
    dF2: Optional[Callable[[float], float]] = None
    diagonal_rule: str = "lhospital"
    name: str = ""

    def off_diagonal(self, x: float, y: float) -> float:
        return (self.F1(x) * self.G1(y) + self.F2(x) * self.G2(y)) / (x - y)

    def diagonal(self, x: float) -> float:
        if self.diagonal_rule == "lhospital":
            return self.dF1(x) * self.G1(x) + self.dF2(x) * self.G2(x)
        # continuity limit: symmetric averages at three step sizes,
        # Richardson-extrapolated in h^2
        s = [
            0.5 * (self.off_diagonal(x, x + h) + self.off_diagonal(x, x - h))
            for h in _RICHARDSON_STEPS
        ]
        r1 = (4.0 * s[1] - s[0]) / 3.0
        r2 = (4.0 * s[2] - s[1]) / 3.0
        return (16.0 * r2 - r1) / 15.0

    def __call__(self, x: float, y: float) -> float:
        if x == y:
            return self.diagonal(x)
        return self.off_diagonal(x, y)

    def fg_arrays(self, points) -> tuple:
        pts = np.asarray(points, dtype=float)
        return tuple(
            np.array([f(float(x)) for x in pts])
            for f in (self.F1, self.F2, self.G1, self.G2)
        )

    def matrix(self, points, fg: Optional[tuple] = None) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        F1, F2, G1, G2 = self.fg_arrays(pts) if fg is None else fg
        dx = pts[:, None] - pts[None, :]
        np.fill_diagonal(dx, 1.0)
        out = (np.outer(F1, G1) + np.outer(F2, G2)) / dx
        for i, x in enumerate(pts):
            out[i, i] = self.diagonal(float(x))
        return out


# ----------------------------------------------------------------------
# L-kernels
# ----------------------------------------------------------------------

def plancherel_l(theta: float) -> IntegrableKernel:
    """L-kernel of the poissonized Plancherel measure on Z'.

    L(x,y) = 0 for xy > 0 and theta^((|x|+|y|)/2) / ((|x|-1/2)! (|y|-1/2)!
    (x-y)) for xy < 0; half-integer factorials are Gamma(|x|+1/2).
    """
    if not theta > 0.0:
        raise ParameterError(f"theta must be positive, got {theta}")
    lt = log(theta)

    def plus(x: float) -> float:
        return exp(0.5 * x * lt - lgamma(x + 0.5)) if x > 0 else 0.0

    def minus(x: float) -> float:
        return exp(-0.5 * x * lt - lgamma(-x + 0.5)) if x < 0 else 0.0

    return IntegrableKernel(LATTICE, plus, minus, minus, plus,
                            name=f"plancherel-l(theta={theta})")


def zw_l(z: complex, xi: float) -> IntegrableKernel:
    """L-kernel of the zw-measure on Z', parameters z not in Z, xi in (0,1).

    The Pochhammer magnitudes |z (z+1)_(x-1/2) (-z+1)_(-y-1/2)| are formed
    as exp of summed real parts of log-gammas so that moderate lattice
    points never overflow.
    """
    z = complex(z)
    if _is_integer(z):
        raise ParameterError(f"zw_l needs z outside Z, got {z}")
    if not 0.0 < xi < 1.0:
        raise ParameterError(f"zw_l needs xi in (0,1), got {xi}")
    root_absz = sqrt(abs(z))
    lxi = log(xi)
    lg_zp1 = log_gamma(z + 1.0).real
    lg_mzp1 = log_gamma(-z + 1.0).real

    def plus(x: float) -> float:
        # sqrt|z| xi^(x/2) |(z+1)_(x-1/2)| / (x-1/2)!
        if x <= 0:
            return 0.0
        return root_absz * exp(
            log_gamma(z + 0.5 + x).real - lg_zp1 + 0.5 * x * lxi - lgamma(x + 0.5)
        )

    def minus(x: float) -> float:
        if x >= 0:
            return 0.0
        return root_absz * exp(
            log_gamma(-z + 0.5 - x).real - lg_mzp1 - 0.5 * x * lxi - lgamma(-x + 0.5)
        )

    return IntegrableKernel(LATTICE, plus, minus, minus, plus,
                            name=f"zw-l(z={z}, xi={xi})")


def _require_whittaker_z(z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0:
        raise ParameterError(f"needs a nonreal z, got {z}")
    if abs(z.real) >= 0.5:
        raise ParameterError(f"needs |Re z| < 1/2, got {z}")
    return z


def scaled_whittaker_l(z: complex) -> IntegrableKernel:
    """Scaling limit of the zw L-kernel on R \\ {0}, |Re z| < 1/2, z nonreal."""
    z = _require_whittaker_z(z)
    a = z.real
    c_plus = sqrt(abs(z)) * exp(-log_gamma(z + 1.0).real)
    c_minus = sqrt(abs(z)) * exp(-log_gamma(-z + 1.0).real)

    def plus(x: float) -> float:
        return c_plus * x ** a * exp(-0.5 * x) if x > 0 else 0.0

    def minus(x: float) -> float:
        return c_minus * (-x) ** (-a) * exp(0.5 * x) if x < 0 else 0.0

    return IntegrableKernel(REAL_LINE, plus, minus, minus, plus,
                            name=f"scaled-whittaker-l(z={z})")


# ----------------------------------------------------------------------
# correlation kernels
# ----------------------------------------------------------------------

def discrete_bessel_k(theta: float) -> AssembledKernel:
    """Correlation kernel of the poissonized Plancherel process on Z'.

    Resolvent data comes from the Bessel matrix of the associated discrete
    Riemann-Hilbert problem; for x, y > 0 it collapses to

        K(x,y) = sqrt(theta) (J_(x-1/2) J_(y+1/2) - J_(x+1/2) J_(y-1/2))(2 sqrt(theta)) / (x-y)

    and the diagonal is K(x,x) = F1'(x)G1(x) + F2'(x)G2(x) with the order
    derivative of J.
    """
    if not theta > 0.0:
        raise ParameterError(f"theta must be positive, got {theta}")
    eta = sqrt(theta)
    u = 2.0 * eta
    s = sqrt(eta)

    def j(nu: float) -> float:
        return s * bessel_j(nu, u)

    def dj(nu: float) -> float:
        return s * bessel_j_dorder(nu, u)

    F1 = lambda x: j(x - 0.5) if x > 0 else j(-x + 0.5)
    F2 = lambda x: -j(x + 0.5) if x > 0 else j(-x - 0.5)
    G1 = lambda x: j(x + 0.5) if x > 0 else j(-x - 0.5)
    G2 = lambda x: j(x - 0.5) if x > 0 else -j(-x + 0.5)
    dF1 = lambda x: dj(x - 0.5) if x > 0 else -dj(-x + 0.5)
    dF2 = lambda x: -dj(x + 0.5) if x > 0 else -dj(-x - 0.5)
    return AssembledKernel(LATTICE, F1, F2, G1, G2, dF1, dF2,
                           name=f"discrete-bessel-k(theta={theta})")


def discrete_bessel_khat(theta: float) -> AssembledKernel:
    """Complement kernel K^ = L (L-1)^(-1) of the Plancherel process.

    Built from the sign-flipped Bessel matrix; relative to the plain
    substitution into the resolvent formulas the F column carries one
    global minus, which is what matches the operator L(L-1)^(-1) (the bare
    substitution produces its negative).
    """
    if not theta > 0.0:
        raise ParameterError(f"theta must be positive, got {theta}")
    eta = sqrt(theta)
    u = 2.0 * eta
    s = sqrt(eta)

    def j(nu: float) -> float:
        return s * bessel_j(nu, u)

    def dj(nu: float) -> float:
        return s * bessel_j_dorder(nu, u)

    F1 = lambda x: -j(x - 0.5) if x > 0 else j(-x + 0.5)
    F2 = lambda x: -j(x + 0.5) if x > 0 else -j(-x - 0.5)
    G1 = lambda x: -j(x + 0.5) if x > 0 else j(-x - 0.5)
    G2 = lambda x: j(x - 0.5) if x > 0 else j(-x + 0.5)
    dF1 = lambda x: -dj(x - 0.5) if x > 0 else -dj(-x + 0.5)
    dF2 = lambda x: -dj(x + 0.5) if x > 0 else dj(-x - 0.5)
    return AssembledKernel(LATTICE, F1, F2, G1, G2, dF1, dF2,
                           name=f"discrete-bessel-khat(theta={theta})")


def _reflected_branch_factor(a: float, zeta: complex) -> complex:
    """Phase carried by the (-zeta)-type entries of Psi.

    The second solution column must behave like zeta^(-Re z) e^(zeta/2) at
    infinity, but principal (-zeta)^(-Re z) differs from zeta^(-Re z) by
    e^(+-i pi Re z) on the two half-planes; this factor restores the branch
    the closed form is printed in (and makes det Psi = 1 exactly).
    """
    return cmath.exp(-1j * pi * a) if zeta.imag > 0 else cmath.exp(1j * pi * a)


def psi_matrix(z: complex, zeta: complex) -> np.ndarray:
    """The 2x2 Whittaker matrix Psi(zeta), zeta off the real axis.

    Entries are zeta^(-1/2) W_(+-Re z +- 1/2, i Im z)(+-zeta); powers and
    W arguments use principal branches, with the reflected column's branch
    phase applied.  det Psi = 1 identically.
    """
    z = _require_whittaker_z(z)
    a, m, r = z.real, z.imag, abs(z)
    zeta = complex(zeta)
    rp = cmath.exp(-0.5 * cmath.log(zeta))
    rm = cmath.exp(-0.5 * cmath.log(-zeta)) * _reflected_branch_factor(a, zeta)
    return np.array(
        [
            [rp * whittaker_w_complex(a + 0.5, m, zeta),
             r * rm * whittaker_w_complex(-a - 0.5, m, -zeta)],
            [-r * rp * whittaker_w_complex(a - 0.5, m, zeta),
             rm * whittaker_w_complex(-a + 0.5, m, -zeta)],
        ],
        dtype=complex,
    )


def psi_inv_t_printed(z: complex, zeta: complex) -> np.ndarray:
    """The closed-form inverse transpose of Psi (not computed numerically)."""
    z = _require_whittaker_z(z)
    a, m, r = z.real, z.imag, abs(z)
    zeta = complex(zeta)
    rp = cmath.exp(-0.5 * cmath.log(zeta))
    rm = cmath.exp(-0.5 * cmath.log(-zeta)) * _reflected_branch_factor(a, zeta)
    return np.array(
        [
            [rm * whittaker_w_complex(-a + 0.5, m, -zeta),
             r * rp * whittaker_w_complex(a - 0.5, m, zeta)],
            [-r * rm * whittaker_w_complex(-a - 0.5, m, -zeta),
             rp * whittaker_w_complex(a + 0.5, m, zeta)],
        ],
        dtype=complex,
    )


def whittaker_kernel_k(z: complex) -> AssembledKernel:
    """The Whittaker correlation kernel on R \\ {0}, |Re z| < 1/2, z nonreal.

    Resolvent data at real points only needs W at positive argument, so the
    evaluator stays in real arithmetic; the diagonal is a Richardson
    continuity limit (no order derivatives of W are required).  A point's
    two W values (orders a + 1/2 and a - 1/2 at x > 0, -a - 1/2 and
    -a + 1/2 at -x > 0, with a = Re z) come from one `whittaker_w` call on
    the two orders, which share their recurrence, and are kept for the
    kernel's lifetime: F and G at one point, and the Richardson diagonal's
    repeated first argument, never recompute W.
    """
    z = _require_whittaker_z(z)
    a, m, r = z.real, z.imag, abs(z)
    c_plus = sqrt(r) * exp(-log_gamma(z + 1.0).real)
    c_minus = sqrt(r) * exp(-log_gamma(-z + 1.0).real)
    # the lower order of each pair is written as the upper one minus 1, so
    # that both lie on one contiguous ladder
    kp, km = a + 0.5, -a + 0.5
    psi: dict = {}

    def psi_pair(x: float) -> tuple:
        # (psi11, psi21)(x) for x > 0, (psi12, psi22)(x) for x < 0
        if x not in psi:
            if x > 0:
                w_hi, w_lo = whittaker_w((kp, kp - 1.0), m, x).tolist()
                psi[x] = (w_hi / sqrt(x), -r * w_lo / sqrt(x))
            else:
                w_lo, w_hi = whittaker_w((km - 1.0, km), m, -x).tolist()
                psi[x] = (r * w_lo / sqrt(-x), w_hi / sqrt(-x))
        return psi[x]

    F1 = lambda x: (c_plus if x > 0 else c_minus) * psi_pair(x)[0]
    F2 = lambda x: (c_plus if x > 0 else c_minus) * psi_pair(x)[1]
    G1 = lambda x: (-c_plus if x > 0 else c_minus) * psi_pair(x)[1]
    G2 = lambda x: (c_plus if x > 0 else -c_minus) * psi_pair(x)[0]
    return AssembledKernel(REAL_LINE, F1, F2, G1, G2,
                           diagonal_rule="continuity-limit",
                           name=f"whittaker-k(z={z})")


# ----------------------------------------------------------------------
# Christoffel-Darboux kernel on a finite grid
# ----------------------------------------------------------------------

class ChristoffelDarbouxKernel:
    """Rank-N projection kernel of a discrete orthogonal polynomial ensemble.

    Monic polynomials p_0..p_N and norms h_k are generated by the Stieltjes
    three-term recurrence on the weighted grid; the kernel carries the
    sqrt(w(x)w(y)) factor.  `sum_form` and `cd_form` are the two equivalent
    closed forms (rank-N sum vs two-term quotient).
    """

    def __init__(self, grid, weights, n: int):
        grid = np.asarray(grid, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if grid.shape != weights.shape or grid.ndim != 1:
            raise DegenerateGridError("grid and weights must be equal-length vectors")
        if np.any(weights <= 0.0):
            raise DegenerateGridError("weights must be strictly positive")
        if n < 1 or n > grid.size:
            raise DegenerateGridError(f"need 1 <= N <= {grid.size}, got {n}")
        if np.unique(grid).size < n:
            raise DegenerateGridError(
                f"grid has {np.unique(grid).size} distinct points, fewer than N={n}"
            )
        self.grid = grid
        self.weights = weights
        self.n = int(n)
        self._alpha = np.zeros(n)
        self._beta = np.zeros(n)   # beta[0] unused
        self._h = np.zeros(n + 1)
        p_prev = np.zeros_like(grid)
        p_cur = np.ones_like(grid)
        for k in range(n):
            hk = float(np.sum(weights * p_cur * p_cur))
            if hk <= 0.0:
                raise DegenerateGridError(f"norm h_{k} collapsed on this grid")
            self._h[k] = hk
            self._alpha[k] = float(np.sum(weights * grid * p_cur * p_cur)) / hk
            bk = 0.0 if k == 0 else self._h[k] / self._h[k - 1]
            if k > 0:
                self._beta[k] = bk
            p_next = (grid - self._alpha[k]) * p_cur - (bk * p_prev if k else 0.0)
            p_prev, p_cur = p_cur, p_next
        self._h[n] = float(np.sum(weights * p_cur * p_cur))

    def polys_at(self, x: float) -> np.ndarray:
        """Values p_0(x)..p_N(x) by the recurrence."""
        vals = np.zeros(self.n + 1)
        vals[0] = 1.0
        if self.n >= 1:
            vals[1] = x - self._alpha[0]
        for k in range(1, self.n):
            vals[k + 1] = (x - self._alpha[k]) * vals[k] - self._beta[k] * vals[k - 1]
        return vals

    def _weight_at(self, x: float) -> float:
        idx = np.nonzero(self.grid == x)[0]
        if idx.size == 0:
            raise DegenerateGridError(f"point {x} is not on the grid")
        return float(self.weights[idx[0]])

    def sum_form(self, x: float, y: float) -> float:
        px, py = self.polys_at(x), self.polys_at(y)
        core = float(np.sum(px[: self.n] * py[: self.n] / self._h[: self.n]))
        return core * sqrt(self._weight_at(x) * self._weight_at(y))

    def cd_form(self, x: float, y: float) -> float:
        if x == y:
            raise DegenerateGridError("two-term form is an off-diagonal identity")
        px, py = self.polys_at(x), self.polys_at(y)
        n = self.n
        core = (px[n] * py[n - 1] - px[n - 1] * py[n]) / (self._h[n - 1] * (x - y))
        return core * sqrt(self._weight_at(x) * self._weight_at(y))

    def __call__(self, x: float, y: float) -> float:
        return self.sum_form(x, y)

    def matrix(self) -> np.ndarray:
        return np.array([[self.sum_form(x, y) for y in self.grid] for x in self.grid])

    def trace(self) -> float:
        return float(np.sum(np.diag(self.matrix())))


def christoffel_darboux_k(grid, weights, n: int) -> ChristoffelDarbouxKernel:
    return ChristoffelDarbouxKernel(grid, weights, n)


# ----------------------------------------------------------------------
# two-point toy model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwoPointModel:
    """The two-point L-ensemble on X = {a, b} with all closed forms.

    L = [[0, mu], [nu, 0]] and K = L(1+L)^(-1) = (1-mu nu)^(-1)
    [[-mu nu, mu], [nu, -mu nu]]; the model also carries the explicit
    solution m of the associated residue problem, its inverse transpose,
    the resolvent data F, G, and the diagonal derivative limits.
    Matrix index 0 corresponds to a, index 1 to b.

    The residue matrices of m are rank one:

        m(z) = I + mu(a-b)/((1-mu nu)(z-a)) [[-nu, 0], [-1, 0]]
                 + nu(b-a)/((1-mu nu)(z-b)) [[0, -1], [0, -mu]],

    the unique choice with det m = 1 and Res m = lim m w at both points
    (the variant with the corner entries +nu, +mu satisfies neither).
    """

    mu: float
    nu: float
    a: complex = 0.0
    b: complex = 1.0

    def __post_init__(self):
        if self.a == self.b:
            raise ParameterError("the two points must be distinct")
        if self.mu * self.nu == 1.0:
            raise SingularOperatorError("mu*nu = 1 makes 1+L singular")

    @property
    def _den(self) -> float:
        return 1.0 - self.mu * self.nu

    def l_matrix(self) -> np.ndarray:
        return np.array([[0.0, self.mu], [self.nu, 0.0]])

    def k_matrix(self) -> np.ndarray:
        mn = self.mu * self.nu
        return np.array([[-mn, self.mu], [self.nu, -mn]]) / self._den

    def khat_matrix(self) -> np.ndarray:
        mn = self.mu * self.nu
        return np.array([[mn, self.mu], [self.nu, mn]]) / (mn - 1.0)

    def f(self, point: complex) -> np.ndarray:
        if point == self.a:
            return np.array([0.0, self.mu * (self.a - self.b)], dtype=complex)
        return np.array([self.nu * (self.b - self.a), 0.0], dtype=complex)

    def g(self, point: complex) -> np.ndarray:
        return np.array([1.0, 0.0] if point == self.a else [0.0, 1.0], dtype=complex)

    def w(self, point: complex) -> np.ndarray:
        if point == self.a:
            return np.array([[0.0, 0.0], [self.mu * (self.b - self.a), 0.0]],
                            dtype=complex)
        return np.array([[0.0, self.nu * (self.a - self.b)], [0.0, 0.0]],
                        dtype=complex)

    def m(self, zeta: complex) -> np.ndarray:
        ca = self.mu * (self.a - self.b) / self._den
        cb = self.nu * (self.b - self.a) / self._den
        out = np.eye(2, dtype=complex)
        out += ca / (zeta - self.a) * np.array([[-self.nu, 0.0], [-1.0, 0.0]])
        out += cb / (zeta - self.b) * np.array([[0.0, -1.0], [0.0, -self.mu]])
        return out

    def m_inv_t(self, zeta: complex) -> np.ndarray:
        # adjugate of m (det m = 1), transposed
        ca = self.mu * (self.a - self.b) / self._den
        cb = self.nu * (self.b - self.a) / self._den
        out = np.eye(2, dtype=complex)
        out += ca / (zeta - self.a) * np.array([[0.0, 1.0], [0.0, -self.nu]])
        out += cb / (zeta - self.b) * np.array([[-self.mu, 0.0], [1.0, 0.0]])
        return out

    def resolvent_f(self, point: complex) -> np.ndarray:
        """F(x) = lim m(zeta) f(x) in closed form."""
        d = self._den
        if point == self.a:
            return np.array([self.mu * self.nu * (self.a - self.b) / d,
                             self.mu * (self.a - self.b) / d], dtype=complex)
        return np.array([self.nu * (self.b - self.a) / d,
                         self.mu * self.nu * (self.b - self.a) / d], dtype=complex)

    def resolvent_g(self, point: complex) -> np.ndarray:
        """G(x) = lim m^-t(zeta) g(x) in closed form."""
        d = self._den
        if point == self.a:
            return np.array([1.0 / d, -self.nu / d], dtype=complex)
        return np.array([-self.mu / d, 1.0 / d], dtype=complex)

    def m_prime_f_limit(self, point: complex) -> np.ndarray:
        """lim m'(zeta) f(x): the diagonal ingredient of the resolvent kernel."""
        d = self._den
        mn = self.mu * self.nu
        if point == self.a:
            return np.array([-mn / d, -self.mu * mn / d], dtype=complex)
        return np.array([-self.nu * mn / d, -mn / d], dtype=complex)


def two_point_k(mu: float, nu: float, a: complex = 0.0, b: complex = 1.0) -> np.ndarray:
    """Closed-form K = L(1+L)^(-1) of the two-point ensemble."""
    return TwoPointModel(mu, nu, a, b).k_matrix()
