"""Numerical certification of the Riemann-Hilbert characterizations.

The closed-form kernel ingredients are taken as given and every condition
that characterizes them is checked numerically:

* the Bessel matrix p agrees at lattice points with the F that
  `kernels.discrete_bessel_k` serves, p's column analytic at x, and with
  (-1)^(x-1/2) F in the other column: J_(-n) = (-1)^n J_n at integer
  orders (DLMF 10.4.1), so that reflection has no check of its own;
* m(zeta) = p(zeta) diag(eta^-zeta Gamma(zeta+1/2), eta^zeta Gamma(1/2-zeta))
  has simple poles exactly on Z + 1/2 with Res m = lim m(zeta) w(x), tends
  to I at infinity, and its 1/zeta coefficient has the symmetry gamma=beta,
  delta=-alpha.  The weight is w = -f g^t and F = m f for the data f, g
  of `kernels.plancherel_l` (Borodin, IMRN 2000);
* n(zeta) = m(zeta) diag(eta^zeta, eta^-zeta) satisfies the first-order
  ODE dn/deta = [[zeta,-2beta],[2beta,-zeta]] n, and only beta = -eta does;
* the Whittaker matrix Psi has det 1 and piecewise-constant
  multiplicative jumps across R+- ;
* the two-point toy model reproduces all its printed formulas, and an
  integrable kernel L with g^t f = 0 on a closed contour has L^2 = 0;
* the scalar special functions and the Christoffel-Darboux kernel keep
  their module invariants (`suite_special_functions`, `suite_cd`).

Every row can fail: for each row id that `suite_drhp`, `suite_psi`,
`suite_two_point`, `suite_contour`, `suite_special_functions` and
`suite_cd` emit, tests/test_drhp.py perturbs the row's subject and
requires the row to fail.

Residues are computed by trapezoidal averages over small circles (exact
for simple poles up to spectrally small quadrature error), derivatives by
Cauchy-integral averages, so no symbolic differentiation enters.  m itself
is evaluated through 0F1 ratios (the Gamma factors are cancelled
analytically), a code path disjoint from the real-order Bessel kernel
assembly it is checked against.  p goes through the same 0F1, as
`special.bessel_j_complex_order`; its values at lattice points are checked
against the kernel's F (the real-order `special.bessel_j`: Miller's
recurrence at integer orders, no 0F1), and pinned against mpmath in tests.

p, m and n are array-valued, m and n in theta as well as in zeta.  Each
call runs one `_hyp0f1` ladder, the stable downward recurrence of 0F1 on
every element together, whose cost is set by its length (about
theta + 20 - min Re c steps) rather than by the number of points.  So
each subject comes in two halves, its 0F1 arguments (c, w) and its
values from 0F1 there, and `suite_drhp` hands the (c, w) of J, m and n
at the points of its rows to `special._hyp0f1_ladders` as the groups of
one ladder, a list of (c, w) and a top.  The ladder joins its groups,
runs them from one start and gives each group its values back in its
own shape, so no code here flattens, joins or splits 0F1 arguments.
The ladder passes through 0F1(c + k) for every integer k on its way down
to c, and the residue circles' c = zeta + 1/2 and 1/2 - zeta are integer
shifts of 64 elements c0 +- delta_j, one per node offset: those 64
elements, read at every shift, give m on all 20 circles (1,280 nodes).
`fit_m1`'s circle is a second ladder, since it reaches Re c = 1/2 - 40
and would lengthen the joined one; `special._hyp0f1_ladders` runs both
in one downward loop, each from its own start.  The circle is exactly
conjugate- and antipode-symmetric (`_circle`), so its 2 x 256 c are the
129 c of its upper half and their conjugates.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from math import pi, sqrt
from typing import Sequence

import numpy as np

from . import special
from .errors import ConvergenceError, DomainError
from .kernels import (
    LATTICE,
    AssembledKernel,
    ChristoffelDarbouxKernel,
    TwoPointModel,
    _quotient,
    _require_theta,
    _whittaker_c,
    discrete_bessel_k,
    plancherel_l,
    psi_matrix,
)
from .special import _hyp0f1, _hyp0f1_ladders, _j_0f1_args, _j_from_0f1, bessel_j_complex_order

__all__ = [
    "ResidualCheck",
    "bessel_p",
    "bessel_m",
    "bessel_n",
    "bessel_m1_exact",
    "fit_m1",
    "bessel_kernel_from_m",
    "psi_jump_matrix",
    "suite_drhp",
    "suite_psi",
    "suite_two_point",
    "suite_contour",
    "suite_special_functions",
    "suite_cd",
]

# the checks' fixed inputs, quadrature and tolerances
_P_XS, _P_TOL = (3.5, 7.5, -4.5), 1e-12
_RESIDUE_XS = tuple(k + 0.5 for k in range(-10, 10))
_RESIDUE_RADIUS, _RESIDUE_NODES, _RESIDUE_REL_TOL = 1e-3, 32, 1.9e-13
_REMAINDER_TOL, _RATE_TOL = 1e-2, 1.1
_M1_START_NODES, _M1_MAX_NODES, _M1_REL_TOL = 128, 4096, 1e-12
_ODE_ZETAS = (0.3 + 0.4j, 1.2 - 0.7j, 2.5j)
_ODE_STEP, _P11_STEP, _ODE_TOL, _P11_TOL = 1e-4, 2e-3, 1e-6, 1e-5
# p11's stencil truncation, ~(_P11_STEP/eta)^4, fails _P11_TOL below it (1.2x at 0.035)
_MIN_THETA = 0.05
# the five-point stencil in eta, in units of the step
_STENCIL = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_DERIV_RADIUS, _DERIV_NODES = 0.25, 48
_PSI_DET_POINTS = (2.0 + 0.5j, 2.0 + 0.1j, 2.0 - 0.1j, -1.5 + 0.8j)
_PSI_DET_TOL = 1e-12
_PSI_JUMP_XS, _PSI_EPS = (1.0, -1.0), (1e-2, 1e-3, 1e-4)
_TWO_POINT_TOL = 1e-13
_CONTOUR_NODES = 512


@dataclass(frozen=True)
class ResidualCheck:
    check_id: str
    point: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


# ----------------------------------------------------------------------
# Bessel-side matrix functions
# ----------------------------------------------------------------------

def _p_orders(zeta) -> np.ndarray:
    """The orders of J in p at every zeta, along a leading axis of 4."""
    z = np.asarray(zeta, dtype=complex)
    return np.stack([z - 0.5, 0.5 - z, z + 0.5, -z - 0.5])


def _p_from_j(theta: float, j: np.ndarray) -> np.ndarray:
    """p from J at `_p_orders` and u = 2 eta: shape j.shape[1:] + (2, 2)."""
    a, b, c, d = j
    return sqrt(sqrt(theta)) * np.stack([a, b, -c, d], axis=-1).reshape(a.shape + (2, 2))


def bessel_p(theta: float):
    """Entire matrix sqrt(eta) [[J_(z-1/2), J_(-z+1/2)], [-J_(z+1/2), J_(-z-1/2)]](2 eta).

    zeta may be an array: the result then has shape zeta.shape + (2, 2),
    from one `bessel_j_complex_order` call on all four orders of every
    point.
    """
    _require_theta(theta, "bessel_p")
    u = 2.0 * sqrt(theta)
    return lambda zeta: _p_from_j(theta, bessel_j_complex_order(_p_orders(zeta), u))


def _m_0f1_args(theta, zeta) -> tuple:
    """(c, w) of the 0F1 values in m: c = zeta + 1/2 and 1/2 - zeta along a
    leading axis of 2, zeta broadcast against theta, and w = -theta."""
    w = -np.asarray(theta, dtype=float)
    z = np.broadcast_arrays(np.asarray(zeta, dtype=complex), w)[0]
    return np.stack([z + 0.5, 0.5 - z]), w


def _m_from_0f1(theta, zeta, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """m at zeta from `_hyp0f1`'s (lo, hi) at `_m_0f1_args(theta, zeta)`."""
    eta = np.sqrt(theta)
    z = np.broadcast_to(np.asarray(zeta, dtype=complex), lo.shape[1:])
    out = np.empty(z.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = lo[0]
    out[..., 0, 1] = eta / (0.5 - z) * hi[1]
    out[..., 1, 0] = -eta / (z + 0.5) * hi[0]
    out[..., 1, 1] = lo[1]
    return out


def bessel_m(theta: float):
    """Solution m of the lattice residue problem, in 0F1-ratio form.

    Writing Phi(c) = 0F1(c; -eta^2), the Gamma prefactors cancel into

        m11 = Phi(zeta+1/2)              m12 = eta/(1/2-zeta) Phi(3/2-zeta)
        m21 = -eta/(zeta+1/2) Phi(zeta+3/2)   m22 = Phi(1/2-zeta)

    which stays stable at any |zeta| and exhibits the simple poles on the
    half-integer lattice directly (column 1 on Z'_-, column 2 on Z'_+).
    zeta may be an array, and so may theta, broadcast against zeta: the
    result has their broadcast shape + (2, 2).  One `_hyp0f1` call on
    zeta+1/2 and 1/2-zeta gives all four entries, since Phi(c+1) comes
    with Phi(c).  The number of recurrence steps grows with the largest
    theta and with how far left the points reach, and each step is a few
    numpy calls over all points, so a call costs nearly the same at one
    point as at hundreds: pass every point of a computation, at every
    theta, in one call, or join its 0F1 arguments (`_m_0f1_args`) with
    other subjects' as `suite_drhp` does.  Points that differ by integers
    need not each be an element: `_hyp0f1`'s `top` reads Phi at every
    integer shift of one element, which is how the residue checks form m
    on their circles (`_residue_m`); they agree with this function at the
    same nodes to 3.6e-12 max(1, |m|).
    """
    _require_theta(theta, "bessel_m")
    return lambda zeta: _flat(_m_from_0f1, theta, zeta)


def _n_from_0f1(theta, zeta, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """n at zeta from the 0F1 values of m there (see `_m_from_0f1`)."""
    log_eta = np.log(np.sqrt(theta))
    z = np.asarray(zeta, dtype=complex)
    out = _m_from_0f1(theta, z, lo, hi)
    out[..., 0] *= np.exp(z * log_eta)[..., None]
    out[..., 1] *= np.exp(-z * log_eta)[..., None]
    return out


def bessel_n(theta: float):
    """n(zeta) = m(zeta) diag(eta^zeta, eta^-zeta); zeta and theta may be
    arrays, broadcast as in `bessel_m`."""
    _require_theta(theta, "bessel_n")
    return lambda zeta: _flat(_n_from_0f1, theta, zeta)


def _flat(from_0f1, theta, zeta) -> np.ndarray:
    """m or n by from_0f1 at theta and zeta broadcast and flattened, so that
    a scalar is a one-element array (see `bessel_j_complex_order`): shape
    theta x zeta + (2, 2)."""
    shape = np.broadcast_shapes(np.shape(theta), np.shape(zeta))
    theta, zeta = (np.broadcast_to(v, shape).ravel() for v in (theta, zeta))
    return from_0f1(theta, zeta, *_hyp0f1(*_m_0f1_args(theta, zeta))).reshape(shape + (2, 2))


def bessel_m1_exact(theta: float) -> np.ndarray:
    """The exact 1/zeta coefficient of m: [[-eta^2, -eta], [-eta, eta^2]]."""
    eta = sqrt(theta)
    return np.array([[-theta, -eta], [-eta, theta]])


# circle trapezoids ----------------------------------------------------
#
# values holds one entry per trapezoid node of a circle along `axis`.

@functools.lru_cache(maxsize=16)
def _circle(radius: float, nodes: int):
    """Unit phases e^(i th_j), th_j = 2 pi j / nodes, and points
    radius e^(i th_j) around 0, for nodes divisible by 4; both read-only,
    since a call's arrays are cached for the next.

    The first quadrant's phases are `np.exp`'s; the others are its mirror
    images, so the phases are exactly conjugate- and antipode-symmetric:
    e^(i th_(nodes-j)) = conj e^(i th_j), e^(i th_(j+nodes/2)) = -e^(i th_j),
    and e^(i pi/2) = i.  They are within 0.78 ulp of 1 of the exact
    e^(i th_j), where `np.exp`'s own phases past the first quadrant carry
    the rounding of th_j (up to 3.75 ulp off at 48 nodes; 40-digit mpmath).
    """
    quarter = np.exp(1j * (2.0 * pi * np.arange(nodes // 4) / nodes))
    upper = np.concatenate([quarter, [1j], -quarter[::-1].conj()])
    phases = np.concatenate([upper, upper[-2:0:-1].conj()])
    points = radius * phases
    phases.flags.writeable = points.flags.writeable = False
    return phases, points


def _weighted(values: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    return values * weights.reshape(weights.shape + (1,) * (values.ndim - axis - 1))


def _residue(values: np.ndarray, phases: np.ndarray, radius: float,
             axis: int = 0) -> np.ndarray:
    """(1/2pi i) contour integral of the values, Res at the circle's center."""
    return _weighted(values, phases, axis).sum(axis=axis) * (radius / phases.size)


def _derivative(values: np.ndarray, phases: np.ndarray, radius: float,
                axis: int = 0) -> np.ndarray:
    """Cauchy's integral of the values / (zeta - center)^2: their derivative there."""
    return _weighted(values, phases.conj(), axis).sum(axis=axis) / (phases.size * radius)


def _average(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """The circle average of the values: their value at the center."""
    return values.sum(axis=axis) / values.shape[axis]


# ----------------------------------------------------------------------
# Bessel-side checks
# ----------------------------------------------------------------------
#
# Each kind of `suite_drhp` row, formed from the values of J, m and n that
# the suite takes from its joined 0F1 ladder.

def _p_from_kernel(theta: float, xs: Sequence[float]) -> np.ndarray:
    """p at lattice points from the F of `kernels.discrete_bessel_k`: F in
    p's column analytic at x (the first for x > 0, the second for x < 0) and
    (-1)^(x-1/2) F in the other.  F's real-order `special.bessel_j` runs
    Miller's recurrence, normalized by J_0 + 2 sum J_2k = 1, at p's integer
    orders: no code, start or normalization shared with `bessel_p`'s 0F1.
    """
    f = np.array(discrete_bessel_k(theta).f(np.asarray(xs, dtype=float))).T
    # the column weights: 1 on F's column and (-1)^(x-1/2) on the other
    w = np.array([(1.0, (-1.0) ** (x - 0.5)) if x > 0 else ((-1.0) ** (x - 0.5), 1.0)
                  for x in xs])
    return f[:, :, None] * w[:, None, :]


def _p_value_rows(theta: float, xs: Sequence[float], j: np.ndarray) -> list[ResidualCheck]:
    """p at the lattice points xs, from J at `_p_orders(xs)` and u = 2 eta,
    against `_p_from_kernel`, to _P_TOL max(1, |p|): a slip in the kernel's
    own F fails it.  The reflection needs no row: J_(-n) is formed as
    (-1)^n J_n from the same J_n (`special._j_reflected`).
    """
    return [ResidualCheck("p-values", f"x={x}", float(np.max(np.abs(px - ref))),
                          _P_TOL * max(1.0, float(np.max(np.abs(ref)))))
            for x, px, ref in zip(xs, _p_from_j(theta, j), _p_from_kernel(theta, xs))]


def _residue_family(xs: Sequence[float]) -> tuple:
    """The 0F1 elements of m on the residue circles around the lattice points xs.

    The circle around x has the nodes zeta = x + delta_j, so m's
    c = zeta + 1/2 and 1/2 - zeta are c0 + delta_j + k and c0 - delta_j + k
    for integers k >= 0, with c0 the least of x + 1/2 and 1/2 - x.  Returns
    the 2 x _RESIDUE_NODES elements c0 +- delta_j and, for every x, the k of
    zeta + 1/2 and of 1/2 - zeta, along a leading axis of 2.
    """
    x = np.asarray(xs, dtype=float)
    shifts = np.stack([x + 0.5, 0.5 - x])
    c0 = shifts.min()
    delta = _circle(_RESIDUE_RADIUS, _RESIDUE_NODES)[1]
    return c0 + np.stack([delta, -delta]), (shifts - c0).astype(int)


def _residue_0f1_args(theta: float, xs: Sequence[float]) -> tuple:
    """(c, w, top) of the `_hyp0f1` call whose values `_residue_m` reads."""
    c, k = _residue_family(xs)
    return c, -theta, int(k.max()) + 1


def _residue_m(theta: float, xs: Sequence[float], f: np.ndarray) -> np.ndarray:
    """m at the residue circles' nodes (point, node, 2, 2), from
    f[k] = 0F1(c + k; -theta) at `_residue_0f1_args`: Phi(c) and Phi(c + 1)
    of every node are gathered at the node's shift k and k + 1."""
    k = _residue_family(xs)[1][..., None]
    sign, node = np.arange(2)[:, None, None], np.arange(_RESIDUE_NODES)
    zetas = np.asarray(xs, dtype=float)[:, None] + _circle(_RESIDUE_RADIUS, _RESIDUE_NODES)[1]
    return _m_from_0f1(theta, zetas, f[k, sign, node], f[k + 1, sign, node])


def _residue_rows(theta: float, xs: Sequence[float], values: np.ndarray) -> list[ResidualCheck]:
    """Res_{zeta=x} m = lim_{zeta->x} m(zeta) w(x) at every lattice point x,
    from m's values on the circles (`_residue_m`) and w = -f g^t from one
    `plancherel_l(theta).fg` call.

    A row passes below 1.9e-13 max(1, |Res m|): the residual is the
    rounding of the 1e-3 circle's trapezoid, <= 6.0e-14 of that scale at
    theta = 1, 30, 100 and 400, while |Res m| grows like
    theta^|x| / Gamma(|x| + 1/2)^2 (5.1e3 at theta = 100 and 3.4e6 at
    theta = 400 for |x| <= 9.5, where the tolerance stays below 1e-9 at
    theta <= 100).
    """
    f1, f2, g1, g2 = plancherel_l(theta).fg(np.asarray(xs, dtype=float))
    weights = -np.stack([f1, f2], -1)[:, None, :, None] * np.stack([g1, g2], -1)[:, None, None, :]
    phases = _circle(_RESIDUE_RADIUS, _RESIDUE_NODES)[0]
    res = _residue(values, phases, _RESIDUE_RADIUS, axis=1)
    residual = np.max(np.abs(res - _average(values @ weights, axis=1)), axis=(1, 2))
    tol = _RESIDUE_REL_TOL * np.maximum(1.0, np.max(np.abs(res), axis=(1, 2)))
    return [ResidualCheck("m-residue", f"x={x}", r, t)
            for x, r, t in zip(xs, residual.tolist(), tol.tolist())]


def _normalization_ts(theta: float) -> tuple:
    t0 = max(10.0, 2.5 * theta)
    return t0, 2.0 * t0, 4.0 * t0


def _m2_size(theta: float) -> float:
    """Largest entry of m's 1/zeta^2 coefficient, which the 0F1 series of
    m's entries give as [[theta(theta+1)/2, -eta(theta+1/2)],
    [eta(theta+1/2), theta(theta+1)/2]]."""
    return max(0.5 * theta * (theta + 1.0), sqrt(theta) * (theta + 0.5))


def _normalization_rows(theta: float, values: np.ndarray) -> list[ResidualCheck]:
    """m(it) -> I along the imaginary axis, at the rate of its expansion,
    from m's values at it for the t of `_normalization_ts`.

    With the exact 1/zeta term removed, the remainder max|m(it) - I -
    m1/(it)| decays like |m2|/t^2, |m2| the largest entry of the 1/zeta^2
    coefficient (`_m2_size`).  Each t gets an `m-normalization-rate` row
    reading remainder t^2/|m2|: measured 0.954-0.99992 over 500 theta in
    [1e-3, 2000] at every t, so the tolerance _RATE_TOL = 1.1 leaves 10 %
    over its limit 1.  The largest t also bounds the remainder itself by
    _REMAINDER_TOL.  Since |m2| ~ theta^2/2, t is taken from theta:
    t = t0, 2 t0, 4 t0 with t0 = max(10, 2.5 theta).  The largest-t
    remainder then measures 5.2e-3 at theta = 30, 5.05e-3 at theta = 100
    and 5.0e-3 at theta = 400.
    """
    ts = _normalization_ts(theta)
    m1_term = bessel_m1_exact(theta) / (1j * np.array(ts))[:, None, None]
    rem = np.max(np.abs(values - np.eye(2) - m1_term), axis=(1, 2))
    rows = [ResidualCheck("m-normalization-rate", f"t={t}", float(r * t * t / _m2_size(theta)),
                          _RATE_TOL)
            for t, r in zip(ts, rem.tolist())]
    rows.append(ResidualCheck(
        "m-normalization-remainder", f"t={ts[-1]}", float(rem[-1]), _REMAINDER_TOL))
    return rows


def _m1_radius(theta: float) -> float:
    return max(40.0, 4.0 * sqrt(theta))


def _m1_tol(theta: float) -> float:
    """Bound on fit_m1's self-check and on the m1 rows: m1 is of size theta."""
    return _M1_REL_TOL * max(1.0, theta)


def _m1_0f1_args(theta: float) -> tuple:
    """The `_hyp0f1_ladders` ladder ([(c, w)], top) whose values
    `_m1_circle_m` reads: c = zeta + 1/2 at the upper half's nodes of
    fit_m1's first circle, w = -theta and top = 1.

    The circle's nodes are exactly conjugate- and antipode-symmetric
    (`_circle`), so m's c = zeta + 1/2 and 1/2 - zeta at its 2 x 256 nodes
    are the 256 values zeta + 1/2 (1/2 - zeta is -zeta + 1/2), and those
    are the 129 of the upper half and their conjugates.
    """
    zs = _circle(_m1_radius(theta), 2 * _M1_START_NODES)[1]
    return [(zs[:_M1_START_NODES + 1] + 0.5, -theta)], 1


def _m1_circle_m(theta: float, f: np.ndarray) -> np.ndarray:
    """m at the nodes of fit_m1's first circle (node, 2, 2), from
    f[k] = 0F1(c + k; -theta) at `_m1_0f1_args`.  For real w, 0F1(conj c; w)
    is conj 0F1(c; w) bit for bit, so the lower half's values are the
    upper half's conjugates, and Phi(1/2 - zeta) is Phi(zeta' + 1/2) at the
    antipode zeta' = -zeta, half a circle on."""
    half = _M1_START_NODES
    phi = np.concatenate([f[:2], f[:2, half - 1:0:-1].conj()], axis=1)
    opposite = np.roll(phi, -half, axis=1)
    zs = _circle(_m1_radius(theta), 2 * half)[1]
    return _m_from_0f1(theta, zs, np.stack([phi[0], opposite[0]]),
                       np.stack([phi[1], opposite[1]]))


def _fit_m1(theta: float, f: np.ndarray) -> np.ndarray:
    """fit_m1 from the 0F1 values f at `_m1_0f1_args` (see `_m1_circle_m`)."""
    eye = np.eye(2)
    radius, tol = _m1_radius(theta), _m1_tol(theta)
    nodes = 2 * _M1_START_NODES
    first = _circle(radius, nodes)[1][:, None, None] * (_m1_circle_m(theta, f) - eye)
    avg = _average(first[0::2])
    doubled = 0.5 * (avg + _average(first[1::2]))
    m = bessel_m(theta)
    while np.max(np.abs(doubled - avg)) > tol:
        if 2 * nodes > _M1_MAX_NODES:
            raise ConvergenceError(
                f"fit_m1({theta}): the {nodes // 2}- and {nodes}-node circle averages "
                f"differ by more than {tol:.1e}")
        avg, nodes = doubled, 2 * nodes
        zs = _circle(radius, nodes)[1][1::2]
        doubled = 0.5 * (avg + _average(zs[:, None, None] * (m(zs) - eye)))
    return doubled


def fit_m1(theta: float) -> np.ndarray:
    """1/zeta coefficient of m fitted as the circle average of zeta (m - I).

    The full-circle average equals the sum of all enclosed residues, which
    converges to the true coefficient with factorially small remainder
    once the circle lies well outside the residues' bulk, |x| ~ 2 sqrt(theta).
    The radius is max(40, 4 sqrt(theta)): at theta = 400 the radius
    2 sqrt(theta) = 40 leaves m1 5.4e4 off the exact [[-theta, -eta],
    [-eta, theta]], and 4 sqrt(theta) = 80 brings it to 5.5e-13.

    The average is the periodic trapezoid rule, which converges
    geometrically in the node count, so the count is chosen by doubling.
    m on the 256-node circle comes from one 0F1 ladder on the 129 c of
    its upper half (`_m1_0f1_args`, `_m1_circle_m`); its even nodes are
    the 128-node circle, and its average is accepted once it is within
    1e-12 max(1, theta) of theirs.  Otherwise m is evaluated only at the
    odd nodes of the next doubled circle (its even nodes are the old ones),
    and the check repeats.  Measured N vs 2N differences over
    max(1, theta): 128/256 <= 3.7e-15 for theta <= 400 and 5.1e-14 at
    theta = 1000, so 256 nodes are accepted at every theta <= 1000 (32/64
    reads 3.6e-9 at theta = 100 and 1.7e-4 at 1000).  Raises
    ConvergenceError when 4096 nodes do not pass.  The measured range is
    theta <= 1630: on 841 theta in [1, 2100] the 256-node check first
    fails at theta = 1630.2; up to theta ~ 3400 the doubled circles then
    sometimes accept at the rounding floor and sometimes raise, and at
    theta = 1e4 it raises after ~1 s.  `suite_drhp` runs the same ladder
    inside its own descent and gives the same m1 bit for bit.
    """
    _require_theta(theta, "fit_m1")
    return _fit_m1(theta, _hyp0f1_ladders(_m1_0f1_args(theta))[0][0])


def _m1_rows(theta: float, m1: np.ndarray) -> list[ResidualCheck]:
    """The fitted m1 = [[alpha,beta],[gamma,delta]] (`fit_m1`) satisfies
    gamma=beta, delta=-alpha and beta=-eta, to `_m1_tol`."""
    (alpha, beta), (gamma, delta) = m1
    point, tol = f"|zeta|={_m1_radius(theta)}", _m1_tol(theta)
    return [ResidualCheck("m1-gamma-equals-beta", point, abs(gamma - beta), tol),
            ResidualCheck("m1-delta-equals-minus-alpha", point, abs(delta + alpha), tol),
            ResidualCheck("m1-beta-equals-minus-eta", point, abs(beta + sqrt(theta)), tol)]


def _ode_rows(theta: float, n: np.ndarray, j: np.ndarray) -> list[ResidualCheck]:
    """First-order ODE in eta for n, the beta sign selection, and the
    second-order scalar ODE for p11, from n at theta_i = (eta + _ODE_STEP
    _STENCIL[i])^2 and J_(zeta-1/2) at u = 2 (eta + _P11_STEP _STENCIL[i]):
    the stencil along axis 0, _ODE_ZETAS along axis 1.

    n = m diag(eta^zeta, eta^-zeta) satisfies
    eta dn/deta = [[zeta, -2 beta], [2 beta, -zeta]] n with beta = -eta;
    the factor eta comes from the diagonal, whose eta-derivative is
    zeta/eta times itself.  dn/deta is Richardson's extrapolation of the
    central differences at steps _ODE_STEP and _ODE_STEP/2.
    """
    eta = sqrt(theta)
    zetas = list(_ODE_ZETAS)
    zs = np.array(zetas, dtype=complex)
    # n[i] is n at eta + _ODE_STEP _STENCIL[i]
    dn = (8.0 * (n[3] - n[1]) - (n[4] - n[0])) / (6.0 * _ODE_STEP)

    def worst(beta: float) -> float:
        rhs = np.array([[[z, -2.0 * beta], [2.0 * beta, -z]] for z in zetas]) @ n[2]
        return float(np.max(np.abs(eta * dn - rhs)))

    # p11 = sqrt(e) J_(zeta-1/2)(2e) on the five-point stencil in eta
    steps = _P11_STEP * _STENCIL
    p11 = np.sqrt(eta + steps)[:, None] * j

    def second_diff(i: int) -> np.ndarray:
        return (p11[2 + i] - 2.0 * p11[2] + p11[2 - i]) / (steps[2 + i] * steps[2 + i])

    # Richardson in h^2 removes the leading truncation term
    second = (4.0 * second_diff(1) - second_diff(2)) / 3.0
    worst_plus = worst(eta)
    return [
        ResidualCheck("ode-eta-beta-minus", f"zetas={zetas}", worst(-eta), _ODE_TOL),
        ResidualCheck("ode-eta-beta-plus-must-fail", f"zetas={zetas}",
                      1.0 / worst_plus if worst_plus > 0 else math.inf, 1.0 / 1e-2),
        ResidualCheck("ode-p11-second-order", f"zetas={zetas}",
                      float(np.max(np.abs(second - (zs * (zs - 1.0) / theta - 4.0) * p11[2]))),
                      _P11_TOL),
    ]


def bessel_kernel_from_m(theta: float) -> AssembledKernel:
    """Correlation kernel reassembled from m by the limit definitions.

    F(x) = lim m(zeta) f(x) uses the hypergeometric-ratio m (never the
    Bessel matrix p), G = lim m^-t(zeta) g(x) follows by type, and the
    diagonal applies G . lim m'(zeta) f(x) with the derivative taken as a
    Cauchy circle integral.  Serves as an independent route to the kernel
    built in `kernels.discrete_bessel_k`.

    Only the column of m that is analytic at x enters (the other has its
    simple pole there): column 1 for x > 0, column 2 for x < 0.  With
    c = zeta + 1/2, resp. 1/2 - zeta, it is (Phi(c), -eta/c Phi(c+1)),
    resp. (eta/c Phi(c+1), Phi(c)), so F at all points comes from one 0F1
    ladder on c = |x| + 1/2, and F' from one over every point's
    derivative circle; the weight is `plancherel_l`'s d.
    """
    weight = plancherel_l(theta).d   # checks theta
    eta = sqrt(theta)
    w = -theta
    phases, circle = _circle(_DERIV_RADIUS, _DERIV_NODES)
    # every c below is >= 1 - _DERIV_RADIUS on the lattice; that floor, a
    # group of the ladder, fixes where it starts, so a point's values do
    # not depend on the other points of the call and the entries of
    # `matrix` are the scalar kernel's bit for bit
    floor = 1.0 - _DERIV_RADIUS

    def column(x: np.ndarray, c: np.ndarray) -> tuple:
        (phi, hi), _ = _hyp0f1_ladders(([(c, w), (floor, w)], 1))[0]
        off = eta / c * hi
        pos = x > 0
        return np.where(pos, phi, off), np.where(pos, -off, phi)

    def f(points) -> tuple:
        # f = (f1, 0) for x > 0 and (0, f2) for x < 0: F = m f is the
        # analytic column times the weight
        x = np.asarray(points, dtype=float)
        wt = weight(x)
        top, bottom = column(x, np.abs(x) + 0.5)
        return wt * top.real, wt * bottom.real

    def df(points) -> tuple:
        x = np.asarray(points, dtype=float)[:, None]
        zs = x + circle
        top, bottom = column(x, np.where(x > 0, zs + 0.5, 0.5 - zs))
        wt = weight(x[:, 0])
        return (wt * _derivative(top, phases, _DERIV_RADIUS, axis=1).real,
                wt * _derivative(bottom, phases, _DERIV_RADIUS, axis=1).real)

    return AssembledKernel(LATTICE, f, df, name=f"bessel-k-from-m(theta={theta})")


# ----------------------------------------------------------------------
# Whittaker-side checks
# ----------------------------------------------------------------------

def psi_jump_matrix(z: complex, x: float) -> np.ndarray:
    """Piecewise-constant jump of the Whittaker matrix across R+-.

    The off-diagonal coefficients come from the actual resolvent data:
    2 pi i f1 g2 conjugated by the diagonal exponential gives
    2 pi i c+^2 = 2 pi i |z| / |Gamma(1+z)|^2 on R_+ (and 2 pi i c-^2, the
    1-z mirror, on R_-), with c+- the constants of the Whittaker kernels'
    f and g.  These equal the symmetric-gauge coefficient 2i|sin pi z|
    exactly when |Gamma(1+z)| = |Gamma(1-z)| and differ from it by the
    constant ratio |Gamma(1-z)/Gamma(1+z)|^(+-1) otherwise.
    """
    c_plus, c_minus = _whittaker_c(z)
    if x > 0:
        return np.array([[1.0, 2j * pi * c_plus ** 2], [0.0, 1.0]], dtype=complex)
    a = z.real
    coeff = 2j * pi * c_minus ** 2
    return np.array(
        [[cmath.exp(2j * pi * a), 0.0], [coeff, cmath.exp(-2j * pi * a)]],
        dtype=complex,
    )


def suite_psi(z: complex) -> list[ResidualCheck]:
    """det Psi = 1 and the piecewise-constant jump across R.

    The extrapolated boundary values leave an O(eps^3) jump residual
    (<= 2.0 eps^3 at seven z with |Im z| <= 1.5), so each eps <= 1e-3 row
    passes below 100 eps^3 and each refinement eps -> eps/10 below 1e-2
    (1.05e-3 measured).  The eps = 1e-2 rows keep the loose 1e-1.
    """
    rows = [ResidualCheck("psi-det", f"zeta={pt}",
                          abs(np.linalg.det(psi_matrix(z, pt)) - 1.0), _PSI_DET_TOL)
            for pt in _PSI_DET_POINTS]
    for x in _PSI_JUMP_XS:
        v = psi_jump_matrix(z, x)
        resids = []
        for eps in _PSI_EPS:
            # boundary values extrapolated to the axis (kills the O(eps)
            # drift of Psi itself; a wrong v would survive as a plateau)
            up = (2.0 * psi_matrix(z, complex(x, 0.5 * eps))
                  - psi_matrix(z, complex(x, eps)))
            down = (2.0 * psi_matrix(z, complex(x, -0.5 * eps))
                    - psi_matrix(z, complex(x, -eps)))
            expected = down @ v
            resid = float(np.max(np.abs(up - expected))
                          / np.max(np.abs(expected)))
            resids.append(resid)
            rows.append(ResidualCheck(
                "psi-jump", f"x={x}, eps={eps}", resid,
                100.0 * eps ** 3 if eps <= 1e-3 else 1e-1))
        for i in range(1, len(resids)):
            rows.append(ResidualCheck(
                "psi-jump-refinement", f"x={x}, eps={_PSI_EPS[i-1]}->{_PSI_EPS[i]}",
                resids[i] / resids[i - 1], 1e-2))
    return rows


# ----------------------------------------------------------------------
# toy models
# ----------------------------------------------------------------------

def suite_two_point(mu: float = 0.3, nu: float = 0.5, a: complex = 0.0,
                    b: complex = 1.0) -> list[ResidualCheck]:
    """Everything printed for the two-point ensemble, cross-checked."""
    model = TwoPointModel(mu, nu, a, b)
    rows = []
    rng = np.random.default_rng(20010731)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20) + 3.0
    ms = model.m(zs)
    rows.append(ResidualCheck("two-point-det-m", "20 pseudo-random zeta",
                              float(np.max(np.abs(np.linalg.det(ms) - 1.0))), 1e-12))
    invt = np.linalg.inv(ms).swapaxes(-1, -2)
    rows.append(ResidualCheck("two-point-m-inv-t", "20 pseudo-random zeta",
                              float(np.max(np.abs(model.m_inv_t(zs) - invt))), 1e-12))

    # one circle around each point: m and m^-t at its nodes give the
    # residue, the limits and the Cauchy derivative of m f
    radius = 1e-3 * abs(b - a)
    pts = np.array([a, b], dtype=complex)
    phases, circle = _circle(radius, 32)
    nodes = pts[:, None] + circle
    m_at, inv_t_at = model.m(nodes), model.m_inv_t(nodes)
    f, g, w = model.f(), model.g(), model.w()
    for i, point in enumerate((a, b)):
        res = _residue(m_at[i], phases, radius)
        rows.append(ResidualCheck(
            "two-point-residue", f"point={point}",
            float(np.max(np.abs(res - _average(m_at[i] @ w[i])))), 1e-10))

    big_f, big_g, mp = model.resolvent_f(), model.resolvent_g(), model.m_prime_f_limit()
    for i, point in enumerate((a, b)):
        mf = m_at[i] @ f[i]
        rows.append(ResidualCheck(
            "two-point-resolvent-f", f"point={point}",
            float(np.max(np.abs(_average(mf) - big_f[i]))), _TWO_POINT_TOL))
        rows.append(ResidualCheck(
            "two-point-resolvent-g", f"point={point}",
            float(np.max(np.abs(_average(inv_t_at[i] @ g[i]) - big_g[i]))),
            _TWO_POINT_TOL))
        rows.append(ResidualCheck(
            "two-point-m-prime-limit", f"point={point}",
            float(np.max(np.abs(_derivative(mf, phases, radius) - mp[i]))), 1e-10))

    # assemble K by the resolvent formulas and compare with the printed
    # matrix and the direct 2x2 inversion
    dx = np.subtract.outer(pts, pts)
    np.fill_diagonal(dx, 1.0)
    assembled = (big_f @ big_g.T) / dx
    np.fill_diagonal(assembled, [g @ lim for g, lim in zip(big_g, mp)])
    printed = model.k_matrix()
    l = model.l_matrix()
    direct = np.linalg.solve(np.eye(2) + l, l)
    rows.append(ResidualCheck(
        "two-point-assembly-vs-printed", f"mu={mu}, nu={nu}",
        float(np.max(np.abs(assembled - printed))), 1e-14))
    rows.append(ResidualCheck(
        "two-point-printed-vs-oracle", f"mu={mu}, nu={nu}",
        float(np.max(np.abs(printed - direct))), 1e-14))
    return rows


def _contour_f(zeta) -> np.ndarray:
    ez = np.exp(np.asarray(zeta, dtype=complex))
    return np.stack([np.ones_like(ez), ez], axis=-1)


def _contour_g(zeta) -> np.ndarray:
    ez = np.exp(np.asarray(zeta, dtype=complex))
    return np.stack([-ez, np.ones_like(ez)], axis=-1)


def suite_contour() -> list[ResidualCheck]:
    """Closed clockwise contour with analytic data: L^2 = 0, so K = L.

    f = (1, e^zeta) and g = (-e^zeta, 1) have g^t f = 0, so
    L(x, y) = (e^x - e^y)/(x - y) is entire in each variable and the
    trapezoid sum of L(x0, y) L(y, z0) dy over the unit circle vanishes by
    Cauchy's theorem (5.0e-16 measured; 34.9 with the sign of g1 flipped,
    where L has a pole on the diagonal).
    """
    def l_kernel(x, y):
        fx, gy = _contour_f(x), _contour_g(y)
        return _quotient(fx[..., 0], fx[..., 1], gy[..., 0], gy[..., 1], x, y)

    # clockwise parametrization y = e^{-i theta}; nodes offset half a step
    # so they never coincide with the evaluation points x0, z0
    x0, z0 = 1.0 + 0j, 1j
    y = np.exp(-1j * (2.0 * pi * (np.arange(_CONTOUR_NODES) + 0.5) / _CONTOUR_NODES))
    dy = -1j * y * (2.0 * pi / _CONTOUR_NODES)
    acc = np.sum(l_kernel(x0, y) * l_kernel(y, z0) * dy)
    return [ResidualCheck("contour-l-squared", f"(x,z)=({x0},{z0})",
                          float(abs(acc)), 1e-10)]


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def suite_drhp(theta: float) -> list[ResidualCheck]:
    """Every Bessel-side check at theta, in one 0F1 descent of two ladders.

    The rows are p's values at _P_XS (`_p_value_rows`), m's residues at
    _RESIDUE_XS (`_residue_rows`), m's normalization (`_normalization_rows`),
    the symmetry of m's fitted 1/zeta coefficient (`_m1_rows`) and the ODEs
    in eta (`_ode_rows`), in that order.  Every J, m and n value of the
    suite has w = -theta or w = -theta_i of the eta stencils, so one ladder
    serves them all: J at the p-values orders and on the p11 stencil, m
    on the residue circles (the 64 elements of `_residue_family`, read at
    every integer shift) and at the normalization points, n on the eta
    stencil.  The family's leftmost element sets the ladder's length.
    `fit_m1`'s circle (its 129 c, `_m1_0f1_args`) is the other ladder: it
    reaches Re c = 1/2 - 40, and joined with it every element would run
    ~30 more steps, which costs the p11 row 0.7 digits at theta = 1.  Both
    ladders share one downward loop (`special._hyp0f1_ladders`), each
    entering it at its own start, so each keeps its own call's values bit
    for bit, and the m1 rows are `fit_m1`'s.

    Raises ParameterError unless 0 < theta < inf, and DomainError for
    theta < _MIN_THETA = 0.05, where the eta stencils' fixed steps fail
    `ode-p11-second-order`.  The measured range is 0.05 <= theta <= 1630,
    where every row passes on 300 geometrically spaced theta; above it the
    m1 fit may raise ConvergenceError (`fit_m1`).
    """
    _require_theta(theta, "suite_drhp")
    if theta < _MIN_THETA:
        raise DomainError(f"suite_drhp needs theta >= {_MIN_THETA:g}, where the eta "
                          f"stencils' fixed steps meet the ODE tolerances, got {theta}")
    eta = sqrt(theta)
    zs = np.array(_ODE_ZETAS, dtype=complex)
    n_theta = (eta + _ODE_STEP * _STENCIL)[:, None] ** 2
    p_points = _p_orders(_P_XS), 2.0 * eta
    p11_points = zs - 0.5, 2.0 * (eta + _P11_STEP * _STENCIL)[:, None]
    residue_c, residue_w, top = _residue_0f1_args(theta, _RESIDUE_XS)
    norm_zs = np.array([1j * t for t in _normalization_ts(theta)])
    (j_p, j_p11, m_res, m_norm, n_ode), (m1_circle,) = _hyp0f1_ladders(
        ([_j_0f1_args(*p_points), _j_0f1_args(*p11_points), (residue_c, residue_w),
          _m_0f1_args(theta, norm_zs), _m_0f1_args(n_theta, zs)], top),
        _m1_0f1_args(theta))
    return (_p_value_rows(theta, _P_XS, _j_from_0f1(*p_points, j_p[0]))
            + _residue_rows(theta, _RESIDUE_XS, _residue_m(theta, _RESIDUE_XS, m_res))
            + _normalization_rows(theta, _m_from_0f1(theta, norm_zs, *m_norm[:2]))
            + _m1_rows(theta, _fit_m1(theta, m1_circle))
            + _ode_rows(theta, _n_from_0f1(n_theta, zs, *n_ode[:2]),
                        _j_from_0f1(*p11_points, j_p11[0])))


def suite_special_functions() -> list[ResidualCheck]:
    """Module invariants of the scalar special functions, as residual rows.

    `whittaker-even-in-mu` reads 0.0; it is there for a sign slip on one
    side of W's integrand."""
    rows = []
    rng = np.random.default_rng(42)
    worst = 0.0
    # integer orders, which take Miller's recurrence; a non-integer order
    # would compare the 0F1 ladder with itself
    orders = (-5.0, 0.0, 1.0, 3.0, 5.0)
    for u in np.linspace(15.0, 25.0, 9):
        ladder = bessel_j_complex_order(np.array(orders), float(u)).real
        worst = max(worst, float(np.max(np.abs(special.bessel_j(orders, float(u)) - ladder))))
    rows.append(ResidualCheck("bessel-miller-vs-0f1",
                              "u in [15,25], nu in {-5,0,1,3,5}", worst, 1e-9))
    worst = 0.0
    h = 1e-5
    for _ in range(20):
        nu = float(rng.uniform(-5, 5))
        u = float(rng.uniform(0.5, 10))
        fd = (special.bessel_j(nu + h, u) - special.bessel_j(nu - h, u)) / (2 * h)
        worst = max(worst, abs(special.bessel_j_dorder(nu, u) - fd))
    rows.append(ResidualCheck("bessel-dorder-vs-finite-difference",
                              "20-point random grid", worst, 1e-6))
    worst = 0.0
    for i in range(10):
        kappa = float(rng.uniform(-1.5, 1.5))
        mu = float(rng.uniform(0.1, 3.0))
        x = float(rng.uniform(0.1, 30.0))
        wp = special.whittaker_w(kappa, mu, x)
        wm = special.whittaker_w(kappa, -mu, x)
        worst = max(worst, abs(wp - wm) / max(abs(wp), 1e-280))
    rows.append(ResidualCheck("whittaker-even-in-mu",
                              "10-point random grid", worst, 1e-9))
    worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(0.1, 20), rng.uniform(-20, 20))
        lhs = special.log_gamma(z + 1.0) - special.log_gamma(z) - np.log(complex(z))
        worst = max(worst, abs(lhs))
    rows.append(ResidualCheck("log-gamma-recurrence",
                              "50 random z, Re z > 0", worst, 1e-12))
    return rows


def suite_cd() -> list[ResidualCheck]:
    """The two printed forms of a Christoffel-Darboux kernel, and K a projection."""
    grid = np.linspace(-2.5, 2.5, 30)
    weights = np.exp(-grid ** 2)
    kern = ChristoffelDarbouxKernel(grid, weights, 5)
    mat = kern.matrix()
    off = np.not_equal.outer(grid, grid)
    rows = [ResidualCheck("cd-two-forms-agree", "30-point grid, N=5",
                          float(np.max(np.abs(mat - kern.cd_matrix())[off])), 1e-10)]
    rows.append(ResidualCheck("cd-projection", "K.K = K",
                              float(np.max(np.abs(mat @ mat - mat))), 1e-10))
    rows.append(ResidualCheck("cd-trace", "trace = N",
                              abs(kern.trace() - 5.0), 1e-10))
    return rows
