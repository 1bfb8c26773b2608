"""The concrete correlation and L-kernels, in integrable (f,g) form.

Discrete kernels live on the half-integer lattice Z' = Z + 1/2 (any other
point raises DomainError), continuous ones on R \\ {0}.  Every kernel has
an array function `fg(points) -> (f1, f2, g1, g2)` of its integrable
data.  An L-kernel is its one factor `d`: L(x,y) = d(x) d(y) / (x - y) for
xy < 0 and 0 for xy > 0, with f1 = g2 = d on x > 0 and f2 = g1 = d on
x < 0, so g = sgn(x) J f, J = [[0, -1], [1, 0]].  A correlation kernel
has the same quotient form in F = m f and G = m^-t g with det m = 1, so
G = sgn(x) J F = sgn(x) (-F2, F1): it states `f(points) -> (F1, F2)`
alone.  Diagonal rules act on arrays: zero for the L-kernels (their
numerator vanishes at equal arguments) and the L'Hospital formula
K(x,x) = F1'(x)G1(x) + F2'(x)G2(x) for a correlation kernel, which
always supplies `df(points) -> (F1', F2')`: the discrete Bessel kernels
from dJ/dnu, the Whittaker kernel from the contiguous relations of W, in
closed form from the W pair its F already uses (and
`drhp.bessel_kernel_from_m` by a Cauchy integral of m).

`matrix` makes one `fg` call for distinct finite points, which serves the
quotient and the diagonal (with one `df` call for a correlation kernel),
and assembles the window as outer products; other points, or an entry
that is not a finite double, raise DomainError.  Scalar `kernel(x, y)`
wraps one `fg` call on its two points: it gives the matrix's entries bit
for bit, and raises where `matrix` does on an entry that is not a finite
double, but pays numpy's per-call overhead, so pass all points to
`matrix` at once.  The
Whittaker kernel keeps both W orders of a point (one `whittaker_w` call)
and the discrete Bessel kernels keep J_n and dJ/dnu per order, each from
one array call on the orders not yet known, for the kernel's lifetime.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, isfinite, lgamma, log, pi, sqrt
from typing import Callable

import numpy as np

from .errors import DegenerateGridError, DomainError, ParameterError, SingularOperatorError
from .special import (
    bessel_j,
    bessel_j_dorder,
    log_gamma,
    whittaker_w,
    whittaker_w_complex,
)

__all__ = [
    "IntegrableKernel",
    "AssembledKernel",
    "plancherel_l",
    "zw_l",
    "scaled_whittaker_l",
    "discrete_bessel_k",
    "discrete_bessel_khat",
    "whittaker_kernel_k",
    "psi_matrix",
    "ChristoffelDarbouxKernel",
    "TwoPointModel",
    "LATTICE",
    "REAL_LINE",
]

LATTICE = "lattice"
REAL_LINE = "real-line"

def _is_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real == round(z.real)


def _require_theta(theta, who: str) -> None:
    """ParameterError unless theta (a number or an array) is finite and > 0."""
    if not all(0.0 < t < inf for t in np.ravel(theta).tolist()):
        raise ParameterError(f"{who} needs a finite theta > 0, got {theta}")


def _points(domain: str, points) -> np.ndarray:
    """The points as floats; DomainError for a lattice kernel off Z + 1/2
    and for a real-line kernel at 0, which R \\ {0} leaves out."""
    x = np.asarray(points, dtype=float)
    if domain == LATTICE:
        off = np.abs(np.modf(x)[0]) != 0.5
        if off.any():
            raise DomainError(f"lattice kernel needs points of Z + 1/2, got {x[off][0]}")
    elif np.count_nonzero(x) < x.size:
        raise DomainError("real-line kernel needs points of R \\ {0}, got 0.0")
    return x


def _quotient_matrix(pts: np.ndarray, fg, diagonal) -> np.ndarray:
    """(f1(x)g1(y) + f2(x)g2(y)) / (x - y) on all pairs of points, with
    diagonal(pts, g1, g2) on the diagonal, from the one `fg` call's G.

    A non-finite point (checked before `fg` runs), a repeated one, or an
    entry that is not a finite double raises DomainError.
    """
    if not np.isfinite(pts).all():
        raise DomainError(f"kernel matrix needs finite points, got {pts}")
    f1, f2, g1, g2 = fg(pts)
    # in place, with one scratch matrix: at window sizes, faulting in a
    # fresh n x n array costs more than an arithmetic pass over it
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.outer(f1, g1)
        scratch = np.outer(f2, g2)
        out += scratch
        dx = np.subtract.outer(pts, pts, out=scratch)
        np.fill_diagonal(dx, 1.0)
        if not dx.all():
            raise DomainError(
                f"kernel matrix needs distinct points; {pts[np.nonzero(dx == 0.0)[0][0]]} repeats")
        out /= dx
    np.fill_diagonal(out, diagonal(pts, g1, g2))
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise DomainError(
            f"kernel matrix entry at ({pts[i]}, {pts[j]}) is {out[i, j]}, not a finite double")
    return out


def _entry(value, x: float, y: float) -> float:
    """A scalar call's K(x, y) as a float; DomainError, as in `matrix`,
    unless it is a finite double."""
    if not isfinite(value):
        raise DomainError(f"kernel entry at ({x}, {y}) is {value}, not a finite double")
    return float(value)


@dataclass(frozen=True)
class IntegrableKernel:
    """Two-sided L-kernel: L(x,y) = d(x) d(y) / (x-y) for xy < 0, else 0.

    `d` is an array function of the points, none of which is 0 (`_points`).
    `fg` derives the integrable data from it: f1 = g2 = d on x > 0 and
    f2 = g1 = d on x < 0, with zeros on the other side, so f1 g1 + f2 g2 = 0
    on the diagonal.
    """

    domain: str
    d: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def fg(self, points) -> tuple:
        """The arrays f1, f2, g1, g2 at the points: d placed by sign."""
        x = _points(self.domain, points)
        v = self.d(x)
        plus, minus = np.where(x > 0, v, 0.0), np.where(x < 0, v, 0.0)
        return plus, minus, minus, plus

    def __call__(self, x: float, y: float) -> float:
        if x == y:
            _points(self.domain, (x,))
            return 0.0
        f1, f2, g1, g2 = self.fg((x, y))
        with np.errstate(over="ignore", invalid="ignore"):
            return _entry((f1[0] * g1[1] + f2[0] * g2[1]) / (x - y), x, y)

    def matrix(self, points) -> np.ndarray:
        """Dense kernel matrix on a point set, zero on the diagonal."""
        return _quotient_matrix(np.asarray(points, dtype=float), self.fg,
                                lambda pts, g1, g2: 0.0)


@dataclass(frozen=True)
class AssembledKernel:
    """Correlation kernel (F1(x)G1(y)+F2(x)G2(y))/(x-y) with its diagonal.

    `f(points)` returns the arrays F1, F2 at the points and `df(points)`
    their derivatives; G = sgn(x) (-F2, F1) (see the module docstring), and
    the diagonal is the L'Hospital limit F1'G1 + F2'G2.
    """

    domain: str
    f: Callable[[np.ndarray], tuple]
    df: Callable[[np.ndarray], tuple]
    name: str = ""

    def fg(self, points) -> tuple:
        """The arrays F1, F2, G1, G2 at the points."""
        x = _points(self.domain, points)
        f1, f2 = self.f(x)
        s = np.sign(x)
        return f1, f2, -s * f2, s * f1

    def off_diagonal(self, x, y) -> np.ndarray:
        """K(x_i, y_i) at paired points x_i != y_i, from one fg call; an
        entry that leaves the double range reads inf or nan."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        f1, f2, g1, g2 = self.fg(np.concatenate((x, y)))
        n = x.size
        with np.errstate(over="ignore", invalid="ignore"):
            return (f1[:n] * g1[n:] + f2[:n] * g2[n:]) / (x - y)

    def diagonal(self, points) -> np.ndarray:
        """K(x, x) = F1'(x)G1(x) + F2'(x)G2(x) at every point, inf or nan
        where it leaves the double range."""
        pts = np.asarray(points, dtype=float)
        _, _, g1, g2 = self.fg(pts)
        return self._diagonal(pts, g1, g2)

    def _diagonal(self, pts: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
        """The diagonal from G at the points and one `df` call."""
        df1, df2 = self.df(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            return df1 * g1 + df2 * g2

    def __call__(self, x: float, y: float) -> float:
        value = self.diagonal((x,)) if x == y else self.off_diagonal((x,), (y,))
        return _entry(value[0], x, y)

    def matrix(self, points) -> np.ndarray:
        """Dense kernel matrix on a point set, diagonal by the kernel's rule;
        one `fg` call serves the quotient and the diagonal."""
        return _quotient_matrix(np.asarray(points, dtype=float), self.fg, self._diagonal)


# ----------------------------------------------------------------------
# L-kernels
# ----------------------------------------------------------------------

def plancherel_l(theta: float) -> IntegrableKernel:
    """L-kernel of the poissonized Plancherel measure on Z'.

    L(x,y) = 0 for xy > 0 and theta^((|x|+|y|)/2) / ((|x|-1/2)! (|y|-1/2)!
    (x-y)) for xy < 0; half-integer factorials are Gamma(|x|+1/2).  Where
    d(x) = theta^(|x|/2) / (|x|-1/2)! leaves the double range (from theta
    ~ 5e5 on), the points raise DomainError.
    """
    _require_theta(theta, "plancherel_l")
    lt = log(theta)

    def value(x: np.ndarray) -> np.ndarray:
        # math.exp per point: np.exp can differ from it in the last bit
        try:
            return np.array([exp(0.5 * t * lt - lgamma(t + 0.5)) for t in np.abs(x).tolist()])
        except OverflowError as err:
            raise DomainError(f"plancherel_l(theta={theta}) data overflows a double "
                              f"on |x| <= {np.max(np.abs(x)):g}") from err

    return IntegrableKernel(LATTICE, value, f"plancherel-l(theta={theta})")


def zw_l(z: complex, xi: float) -> IntegrableKernel:
    """L-kernel of the zw-measure on Z', parameters z not in Z, xi in (0,1).

    The Pochhammer magnitudes |z (z+1)_(x-1/2) (-z+1)_(-y-1/2)| are formed
    as exp of summed real parts of log-gammas so that moderate lattice
    points never overflow.
    """
    z = complex(z)
    if not cmath.isfinite(z) or _is_integer(z):
        raise ParameterError(f"zw_l needs a finite z outside Z, got {z}")
    if not 0.0 < xi < 1.0:
        raise ParameterError(f"zw_l needs xi in (0,1), got {xi}")
    root_absz = sqrt(abs(z))
    lxi = log(xi)
    lg_zp1 = log_gamma(z + 1.0).real
    lg_mzp1 = log_gamma(-z + 1.0).real

    def value(x: np.ndarray) -> np.ndarray:
        # sqrt|z| xi^(t/2) |(s+1)_(t-1/2)| / (t-1/2)! at t = |x|, with
        # s = z for x > 0 and s = -z for x < 0
        out = []
        for v in x.tolist():
            s, lg, t = (z, lg_zp1, v) if v > 0 else (-z, lg_mzp1, -v)
            out.append(root_absz * exp(
                log_gamma(s + 0.5 + t).real - lg + 0.5 * t * lxi - lgamma(t + 0.5)))
        return np.array(out)

    return IntegrableKernel(LATTICE, value, f"zw-l(z={z}, xi={xi})")


def _require_whittaker_z(z: complex) -> complex:
    z = complex(z)
    if not cmath.isfinite(z) or z.imag == 0.0:
        raise ParameterError(f"needs a finite nonreal z, got {z}")
    if abs(z.real) >= 0.5:
        raise ParameterError(f"needs |Re z| < 1/2, got {z}")
    return z


def _whittaker_c(z: complex) -> tuple[float, float]:
    """c+- = sqrt|z| / |Gamma(1 +- z)|, the constant of f and g on R+-;
    ParameterError where either leaves the double range (|Im z| >~ 450)."""
    root = sqrt(abs(z))
    try:
        c = root * exp(-log_gamma(1.0 + z).real), root * exp(-log_gamma(1.0 - z).real)
    except OverflowError:
        c = (inf, inf)
    if not all(map(isfinite, c)):
        raise ParameterError(f"sqrt|z| / |Gamma(1 +- z)| overflows a double at z={z}")
    return c


def scaled_whittaker_l(z: complex) -> IntegrableKernel:
    """Scaling limit of the zw L-kernel on R \\ {0}, |Re z| < 1/2, z nonreal.

    d(x) = c+ x^a e^(-x/2) for x > 0 and c- |x|^(-a) e^(x/2) for x < 0,
    with a = Re z.
    """
    z = _require_whittaker_z(z)
    a = z.real
    c_plus, c_minus = _whittaker_c(z)

    def value(x: np.ndarray) -> np.ndarray:
        t = np.abs(x)
        return np.where(x > 0, c_plus * t ** a, c_minus * t ** -a) * np.exp(-0.5 * t)

    return IntegrableKernel(REAL_LINE, value, f"scaled-whittaker-l(z={z})")


# ----------------------------------------------------------------------
# correlation kernels
# ----------------------------------------------------------------------

def discrete_bessel_k(theta: float) -> AssembledKernel:
    """Correlation kernel of the poissonized Plancherel process on Z'.

    Resolvent data comes from the Bessel matrix of the associated discrete
    Riemann-Hilbert problem; for x, y > 0 it collapses to

        K(x,y) = sqrt(theta) (J_(x-1/2) J_(y+1/2) - J_(x+1/2) J_(y-1/2))(2 sqrt(theta)) / (x-y)

    and the diagonal is K(x,x) = F1'(x)G1(x) + F2'(x)G2(x) with the order
    derivative of J.  Each J_n(2 sqrt(theta)) and dJ/dnu is computed once
    per kernel: an M-window costs one `bessel_j` call on its M + 1 orders
    (at any theta one Miller run, for every order up to its reach R(u))
    and one `bessel_j_dorder` call on them, which shares its tables of
    gamma-family factors among the orders.  The diagonal needs dJ/dnu at
    u = 2 sqrt(theta) <= 20, so theta <= 100; beyond that it raises
    DomainError.  Against the tail sum
    K(x,x) = sum_(n >= |x|+1/2) J_n(2 sqrt(theta))^2 the diagonal is within
    3.9e-16, 1.9e-12 and 1.8e-8 on |x| <= M - 1/2 at (theta, M) = (1, 15),
    (30, 30) and (100, 40): dJ/dnu loses digits as u grows.
    """
    _require_theta(theta, "discrete_bessel_k")
    eta = sqrt(theta)
    u = 2.0 * eta
    s = sqrt(eta)

    # s J_n(u) and s dJ/dnu by order, kept for the kernel's lifetime
    jn: dict[float, float] = {}
    djn: dict[float, float] = {}

    def ladder(table, of, points) -> tuple:
        # the table at the orders |x| - 1/2 and |x| + 1/2, and the mask
        # x > 0; one call of(orders, u) takes every order not yet known
        x = np.asarray(points, dtype=float)
        lo = (np.abs(x) - 0.5).tolist()
        hi = (np.abs(x) + 0.5).tolist()
        new = sorted(set(lo + hi) - table.keys())
        if new:
            table.update(zip(new, (s * of(new, u)).tolist()))
        return (np.array([table[n] for n in lo]), np.array([table[n] for n in hi]),
                x > 0)

    def f(points) -> tuple:
        # with a = J_(|x|-1/2), b = J_(|x|+1/2): F = (a, -b) for x > 0 and
        # F = (b, a) for x < 0
        a, b, pos = ladder(jn, bessel_j, points)
        return np.where(pos, a, b), np.where(pos, -b, a)

    def df(points) -> tuple:
        da, db, pos = ladder(djn, bessel_j_dorder, points)
        return np.where(pos, da, -db), np.where(pos, -db, -da)

    return AssembledKernel(LATTICE, f, df, name=f"discrete-bessel-k(theta={theta})")


def discrete_bessel_khat(theta: float) -> AssembledKernel:
    """Complement kernel K^ = L (L-1)^(-1) of the Plancherel process.

    L vanishes on same-sign pairs, so D L D = -L for D = diag(sgn x), and
    K^, which is K = L (1+L)^(-1) taken at -L, is D K D: the F and F' of
    `discrete_bessel_k`, each times sgn x, from a kernel of its own.
    """
    k = discrete_bessel_k(theta)

    def signed(data):
        return lambda points: tuple(np.sign(points) * v for v in data(points))

    return AssembledKernel(LATTICE, signed(k.f), signed(k.df),
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
    phase applied.  det Psi = 1 identically.  One W call per argument: the
    printed orders a +- 1/2 at zeta and -a -+ 1/2 at -zeta.
    """
    z = _require_whittaker_z(z)
    a, m, r = z.real, z.imag, abs(z)
    zeta = complex(zeta)
    rp = cmath.exp(-0.5 * cmath.log(zeta))
    rm = cmath.exp(-0.5 * cmath.log(-zeta)) * _reflected_branch_factor(a, zeta)
    w11, w21 = whittaker_w_complex((a + 0.5, a - 0.5), m, zeta).tolist()
    w12, w22 = whittaker_w_complex((-a - 0.5, -a + 0.5), m, -zeta).tolist()
    return np.array([[rp * w11, r * rm * w12], [-r * rp * w21, rm * w22]],
                    dtype=complex)


def whittaker_kernel_k(z: complex) -> AssembledKernel:
    """The Whittaker correlation kernel on R \\ {0}, |Re z| < 1/2, z nonreal.

    Resolvent data at real points only needs W at positive argument, so the
    evaluator stays in real arithmetic.  A point's two W values (orders
    k = a + 1/2 and k - 1 at x > 0, k = -a + 1/2 and k - 1 at -x > 0, with
    a = Re z) come from one `whittaker_w` call on the two orders, which
    share their recurrence, and are kept for the kernel's lifetime.  The
    contiguous relations (DLMF 13.15, with mu = i Im z)

        t W_k'(t)     = (k - t/2) W_k + ((k - 1/2)^2 + (Im z)^2) W_(k-1),
        t W_(k-1)'(t) = (t/2 - k + 1) W_(k-1) - W_k,

    give the derivatives from the same pair, so the diagonal is the
    L'Hospital limit F1'G1 + F2'G2 in closed form: any entry, the diagonal
    included, costs one W call per point it touches, and none is repeated.
    """
    z = _require_whittaker_z(z)
    a, m, r = z.real, z.imag, abs(z)
    c_plus, c_minus = _whittaker_c(z)
    # the lower order of each pair is written as the upper one minus 1, so
    # that both lie on one contiguous ladder
    kp, km = a + 0.5, -a + 0.5

    @lru_cache(maxsize=None)
    def w_pair(x: float) -> tuple:
        # (W_k, W_(k-1)) at |x|, k = kp for x > 0 and km for x < 0
        k = kp if x > 0 else km
        return tuple(whittaker_w((k, k - 1.0), m, abs(x)).tolist())

    def w_data(points) -> tuple:
        # the W pair at every point, |x| and the mask x > 0
        x = np.asarray(points, dtype=float)
        hi, lo = np.array([w_pair(v) for v in x.tolist()]).reshape(-1, 2).T
        return hi, lo, np.abs(x), x > 0

    def f(points) -> tuple:
        hi, lo, t, pos = w_data(points)
        # (psi11, psi21) for x > 0 and (psi12, psi22) for x < 0
        root = np.sqrt(t)
        p1 = np.where(pos, hi, r * lo) / root
        p2 = np.where(pos, -r * lo, hi) / root
        c = np.where(pos, c_plus, c_minus)
        return c * p1, c * p2

    def df(points) -> tuple:
        # with e = k - 1/2 - t/2 the relations give d/dt (W_k / sqrt t)
        # = d_hi and d/dt (-r W_(k-1) / sqrt t) = d_lo; for x < 0,
        # d/dx = -d/dt makes them -d_hi (psi22) and d_lo (psi12)
        hi, lo, t, pos = w_data(points)
        e = np.where(pos, a, -a) - 0.5 * t
        scale = t * np.sqrt(t)
        d_hi = (e * hi + r * r * lo) / scale
        d_lo = r * (hi + e * lo) / scale
        c = np.where(pos, c_plus, c_minus)
        return c * np.where(pos, d_hi, d_lo), c * np.where(pos, d_lo, -d_hi)

    return AssembledKernel(REAL_LINE, f, df, name=f"whittaker-k(z={z})")


# ----------------------------------------------------------------------
# Christoffel-Darboux kernel on a finite grid
# ----------------------------------------------------------------------

class ChristoffelDarbouxKernel:
    """Rank-N projection kernel of a discrete orthogonal polynomial ensemble.

    Monic polynomials p_0..p_N and norms h_k are generated by the Stieltjes
    three-term recurrence on the weighted grid, as one (N+1) x G table of
    their values on the grid; the kernel carries the sqrt(w(x)w(y))
    factor.  `matrix` (the rank-N sum) and `cd_matrix` (the two-term
    quotient) are the two equivalent closed forms, each a grid matrix built
    once from that table and indexed by grid node.
    """

    def __init__(self, grid, weights, n: int):
        grid = np.asarray(grid, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if grid.shape != weights.shape or grid.ndim != 1:
            raise DegenerateGridError("grid and weights must be equal-length vectors")
        if not (np.isfinite(grid).all() and np.isfinite(weights).all()):
            raise DegenerateGridError("grid and weights must be finite")
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
        h = np.zeros(n + 1)
        p = np.ones((n + 1, grid.size))
        for k in range(n):
            h[k] = np.sum(weights * p[k] * p[k])
            if h[k] <= 0.0:
                raise DegenerateGridError(f"norm h_{k} collapsed on this grid")
            alpha = np.sum(weights * grid * p[k] * p[k]) / h[k]
            p[k + 1] = (grid - alpha) * p[k] - (h[k] / h[k - 1] * p[k - 1] if k else 0.0)
        h[n] = np.sum(weights * p[n] * p[n])
        # orthonormal functions p_k sqrt(w / h_k) on the grid
        root_w = np.sqrt(weights)
        q = p[:n] * root_w / np.sqrt(h[:n, None])
        self._sum = q.T @ q
        hi, lo = p[n] * root_w, p[n - 1] * root_w
        with np.errstate(divide="ignore", invalid="ignore"):
            self._cd = ((np.outer(hi, lo) - np.outer(lo, hi))
                        / (h[n - 1] * np.subtract.outer(grid, grid)))

    def matrix(self) -> np.ndarray:
        return self._sum.copy()

    def cd_matrix(self) -> np.ndarray:
        """The two-term form on the grid, NaN or inf where two nodes coincide."""
        return self._cd.copy()

    def trace(self) -> float:
        return float(np.sum(np.diag(self._sum)))


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
    `m` and `m_inv_t` take a scalar zeta or an array of them (one 2 x 2
    matrix per element).  `f`, `g`, `w`, `resolvent_f`, `resolvent_g` and
    `m_prime_f_limit` return their table over the two points, row 0 at a
    and row 1 at b; the residue weight is w = -f g^t, one 2 x 2 matrix
    per point.

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

    def f(self) -> np.ndarray:
        return np.array([[0.0, self.mu * (self.a - self.b)],
                         [self.nu * (self.b - self.a), 0.0]], dtype=complex)

    def g(self) -> np.ndarray:
        return np.eye(2, dtype=complex)

    def w(self) -> np.ndarray:
        return -self.f()[:, :, None] * self.g()[:, None, :]

    def _rank_one_sum(self, zeta, res_a, res_b) -> np.ndarray:
        """I + ca/(zeta-a) res_a + cb/(zeta-b) res_b; zeta of any shape S
        gives an S x 2 x 2 array."""
        zeta = np.asarray(zeta, dtype=complex)[..., None, None]
        ca = self.mu * (self.a - self.b) / self._den
        cb = self.nu * (self.b - self.a) / self._den
        return (np.eye(2, dtype=complex) + ca / (zeta - self.a) * np.array(res_a)
                + cb / (zeta - self.b) * np.array(res_b))

    def m(self, zeta) -> np.ndarray:
        return self._rank_one_sum(zeta, [[-self.nu, 0.0], [-1.0, 0.0]],
                                  [[0.0, -1.0], [0.0, -self.mu]])

    def m_inv_t(self, zeta) -> np.ndarray:
        # adjugate of m (det m = 1), transposed
        return self._rank_one_sum(zeta, [[0.0, 1.0], [0.0, -self.nu]],
                                  [[-self.mu, 0.0], [1.0, 0.0]])

    def resolvent_f(self) -> np.ndarray:
        """F(x) = lim m(zeta) f(x) in closed form."""
        d = self._den
        return np.array([[self.mu * self.nu * (self.a - self.b) / d,
                          self.mu * (self.a - self.b) / d],
                         [self.nu * (self.b - self.a) / d,
                          self.mu * self.nu * (self.b - self.a) / d]],
                        dtype=complex)

    def resolvent_g(self) -> np.ndarray:
        """G(x) = lim m^-t(zeta) g(x) in closed form."""
        d = self._den
        return np.array([[1.0 / d, -self.nu / d], [-self.mu / d, 1.0 / d]],
                        dtype=complex)

    def m_prime_f_limit(self) -> np.ndarray:
        """lim m'(zeta) f(x): the diagonal ingredient of the resolvent kernel."""
        d = self._den
        mn = self.mu * self.nu
        return np.array([[-mn / d, -self.mu * mn / d], [-self.nu * mn / d, -mn / d]],
                        dtype=complex)

