"""Special functions used by the kernel formulas.

Everything here is double precision and pure: the gamma family (complex
log-gamma, Pochhammer symbols, digamma), Bessel J of real order together
with its derivative in the order, and the Whittaker function W with real
first index and purely imaginary second index.

Bessel J strategy: the power series

    J_nu(u) = sum_k (-1)^k (u/2)^(nu+2k) / (k! Gamma(nu+k+1))

is used for u <= 20 for *every* real order; terms whose 1/Gamma factor sits
at a pole vanish, so negative orders need no reflection through Y_nu.  For
u > 20 the Hankel large-argument expansion is used while its smallest term
is below 1e-13, with a fallback to backward (Miller) recurrence normalized
by the Gegenbauer sum sum_k (nu+2k) Gamma(nu+k)/k! J_{nu+2k}(u) = (u/2)^nu.

Whittaker W strategy: the integral representation

    W_{kappa,mu}(z) = e^{-z/2} z^kappa / Gamma(mu-kappa+1/2)
                      * int_0^inf e^{-t} t^(mu-kappa-1/2) (1+t/z)^(mu+kappa-1/2) dt

(valid for Re(mu-kappa+1/2) > 0 and |arg z| < pi) evaluated on
geometrically graded panels, all panels' nodes in one array expression;
kappa >= 1/2 is reached by the three-term contiguous recurrence in kappa,
run upward from two base values below 1/2.  W takes a sequence of orders
too, and orders on one recurrence ladder share its base values.  Near the
cut arg z ~ +-pi the integrand develops an unresolvable spike, so there the
Kummer connection

    W = Gamma(-2mu)/Gamma(1/2-mu-kappa) M_{kappa,mu}
      + Gamma(2mu)/Gamma(1/2+mu-kappa) M_{kappa,-mu}

is used instead (well defined here because 2mu is never an integer).
"""

from __future__ import annotations

import cmath
import decimal
import math
from math import cos, exp, floor, fsum, lgamma, log, pi, sin, sqrt

import numpy as np

from .errors import (
    BesselOverflowError,
    ConvergenceError,
    DomainError,
    ParameterError,
    PoleError,
)

__all__ = [
    "log_gamma",
    "pochhammer",
    "digamma",
    "bessel_j",
    "bessel_j_dorder",
    "bessel_j_complex_order",
    "whittaker_w",
    "whittaker_w_complex",
]

# B_{2n}/(2n(2n-1)) for the log-gamma Stirling tail, n = 1..8
_STIRLING_C = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# B_{2n}/(2n) for the digamma Stirling tail, n = 1..8
_DIGAMMA_C = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact zeros at integer x."""
    n = floor(x)
    r = x - n
    if r == 0.0:
        return 0.0
    v = sin(pi * r) if r <= 0.5 else sin(pi * (1.0 - r))
    return v if n % 2 == 0 else -v


def _cospi(x: float) -> float:
    return _sinpi(x + 0.5)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


# ----------------------------------------------------------------------
# gamma family
# ----------------------------------------------------------------------

def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Stirling's series after shifting Re z >= 10; the shift terms use
    principal logs only, which keeps the whole expression on the branch
    that is real on the positive axis and analytic on C cut along
    (-inf, 0].  Relative error <= 1e-13 for |z| <= 50.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    shift = 0j
    w = z
    while w.real < 10.0:
        shift += cmath.log(w)
        w += 1.0
    rz2 = 1.0 / (w * w)
    tail = 0j
    term = 1.0 / w
    for c in _STIRLING_C:
        tail += c * term
        term *= rz2
    return (w - 0.5) * cmath.log(w) - w + 0.5 * log(2.0 * pi) + tail - shift


def pochhammer(a: complex, k: int) -> complex:
    """Rising factorial a(a+1)...(a+k-1); exact product, (a)_0 = 1."""
    if k < 0 or k != int(k):
        raise DomainError(f"pochhammer needs a nonnegative integer k, got {k}")
    out = complex(1.0)
    for j in range(int(k)):
        out *= a + j
    return out


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for real x > 0, relative error <= 1e-12."""
    if not x > 0.0:
        raise DomainError(f"digamma needs x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    rx2 = 1.0 / (x * x)
    tail = 0.0
    term = rx2
    for c in _DIGAMMA_C:
        tail -= c * term
        term *= rx2
    return acc + log(x) - 0.5 / x + tail


def _rgamma(s: float) -> float:
    """1/Gamma(s) for real s, zero at the poles of Gamma."""
    if s > 0.0:
        return exp(-lgamma(s))
    # reflection: 1/Gamma(s) = sin(pi s) Gamma(1-s) / pi
    sp = _sinpi(s)
    if sp == 0.0:
        return 0.0
    lg = lgamma(1.0 - s)
    if lg > 709.0:
        raise BesselOverflowError(f"1/Gamma({s}) exceeds double range")
    return sp * exp(lg) / pi


def _drgamma(s: float) -> float:
    """d/ds [1/Gamma(s)], via the reflection split for s <= 0."""
    if s > 0.0:
        return -digamma(s) * exp(-lgamma(s))
    lg = lgamma(1.0 - s)
    if lg > 700.0:
        raise BesselOverflowError(f"d(1/Gamma)/ds at s={s} exceeds double range")
    return exp(lg) * (pi * _cospi(s) - digamma(1.0 - s) * _sinpi(s)) / pi


def _rgamma_c(s: complex) -> complex:
    """1/Gamma(s) for complex s, zero at the poles."""
    if _is_nonpositive_integer(s):
        return 0j
    return cmath.exp(-log_gamma(s))


# ----------------------------------------------------------------------
# Bessel J, real order
# ----------------------------------------------------------------------

_SERIES_CUT = 20.0          # power series for u <= 20, asymptotics beyond
_HANKEL_TOL = 1e-13


def _jv_series_tail_decimal(nu: float, u: float, k0: int, t0: float) -> float:
    """Series tail sum_{k>=k0} by the term recurrence in 40-digit decimals.

    Above u ~ 10 the alternating sum cancels down from terms of size up to
    ~e^u, so double-precision term generation cannot reach 1e-12 absolute;
    Decimal conversion of floats is exact, leaving only the seed term's
    double rounding (which enters relatively).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x2 = decimal.Decimal(u) * decimal.Decimal(u) / 4
        dnu = decimal.Decimal(nu)
        t = decimal.Decimal(t0)
        total = decimal.Decimal(0)
        biggest = abs(t)
        k = k0
        while k < 300:
            total += t
            t = -t * x2 / ((k + 1) * (dnu + (k + 1)))
            k += 1
            biggest = max(biggest, abs(t))
            if k > k0 + 4 and abs(t) < decimal.Decimal("1e-40") * biggest:
                break
        return float(total)


def _jv_series(nu: float, u: float) -> float:
    """Ascending series; poles of 1/Gamma handled term by term."""
    if u == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    lhalf = log(0.5 * u)
    x2 = 0.25 * u * u
    terms = []
    # below k0 the argument nu+k+1 may be <= 0: evaluate those terms directly
    # in log magnitude, which also guards the double range
    k0 = 0 if nu > -1.0 else int(math.ceil(-nu - 1.0)) + 1
    for k in range(k0):
        s = nu + k + 1
        lt = (nu + 2 * k) * lhalf - lgamma(k + 1)
        if s > 0.0:
            logmag = lt - lgamma(s)
            sign = 1.0
        else:
            sp = _sinpi(s)
            if sp == 0.0:
                continue
            logmag = lt + log(abs(sp)) + lgamma(1.0 - s) - log(pi)
            sign = math.copysign(1.0, sp)
        if logmag > 705.0:
            raise BesselOverflowError(f"J series term overflow at nu={nu}, u={u}")
        terms.append((-1.0) ** (k % 2) * sign * exp(logmag))
    lt0 = (nu + 2 * k0) * lhalf - lgamma(nu + k0 + 1) - lgamma(k0 + 1)
    if lt0 > 705.0:
        raise BesselOverflowError(f"J series term overflow at nu={nu}, u={u}")
    t = (-1.0) ** (k0 % 2) * exp(lt0)
    if u > 10.0:
        terms.append(_jv_series_tail_decimal(nu, u, k0, t))
        return fsum(terms)
    k = k0
    biggest = abs(t)
    while k < 250:
        terms.append(t)
        t = -t * x2 / ((k + 1) * (nu + k + 1))
        k += 1
        biggest = max(biggest, abs(t))
        if k > k0 + 4 and abs(t) < 1e-18 * max(biggest, 1e-300):
            break
    return fsum(terms)


def _jv_hankel(nu: float, u: float) -> tuple[float, float]:
    """Large-argument expansion; returns (value, error estimate)."""
    mu4 = 4.0 * nu * nu
    coeffs = [1.0]
    a = 1.0
    for m in range(1, 40):
        a = a * (mu4 - (2 * m - 1) ** 2) / (m * 8.0 * u)
        coeffs.append(a)
        if m > 2 and abs(a) > abs(coeffs[-2]):
            break
    mags = [abs(c) for c in coeffs]
    stop = mags.index(min(mags[1:])) if len(mags) > 1 else 0
    p = q = 0.0
    for m, c in enumerate(coeffs[: stop + 1]):
        if m % 2 == 0:
            p += c * (-1.0) ** (m // 2)
        else:
            q += c * (-1.0) ** ((m - 1) // 2)
    amp = sqrt(2.0 / (pi * u))
    omega = u - (0.5 * nu + 0.25) * pi
    return amp * (cos(omega) * p - sin(omega) * q), amp * mags[stop]


def _jv_miller(nu: float, u: float) -> float:
    """Backward recurrence for nu >= 0, normalized by the Gegenbauer sum."""
    frac = nu - floor(nu)
    top = int(max(nu, u) + 20 + 12 * sqrt(max(nu, u, 1.0)))
    above = 0.0
    here = 1e-280
    vals: dict[int, float] = {}
    s = frac + top
    while s > frac - 0.5:
        vals[round(s - frac)] = here
        above, here = here, (2.0 * s / u) * here - above
        if abs(here) > 1e250:
            above *= 1e-250
            here *= 1e-250
            for idx in vals:
                vals[idx] *= 1e-250
        s -= 1.0
    norm = 0.0
    for k in range(top // 2):
        if 2 * k not in vals:
            break
        if frac == 0.0:
            c = 1.0 if k == 0 else 2.0
        else:
            c = (frac + 2 * k) * exp(lgamma(frac + k) - lgamma(k + 1))
        norm += c * vals[2 * k]
    return vals[round(nu - frac)] * (0.5 * u) ** frac / norm


def bessel_j(nu: float, u: float) -> float:
    """Bessel function J_nu(u) for real order nu and u >= 0.

    Negative integer orders use J_{-n} = (-1)^n J_n exactly; negative
    non-integer orders require u > 0.  Raises BesselOverflowError when the
    value (or an intermediate term) leaves the double range, which happens
    for strongly negative non-integer orders at small u.
    """
    nu = float(nu)
    u = float(u)
    if u < 0.0:
        raise DomainError(f"bessel_j needs u >= 0, got u={u}")
    if nu == round(nu):
        n = int(round(nu))
        sign = 1.0 if (n >= 0 or n % 2 == 0) else -1.0
        n = abs(n)
        if u <= _SERIES_CUT:
            return sign * _jv_series(float(n), u)
        val, err = _jv_hankel(float(n), u)
        if err < _HANKEL_TOL:
            return sign * val
        return sign * _jv_miller(float(n), u)
    if u == 0.0:
        raise DomainError("bessel_j at u=0 needs a nonnegative or integer order")
    if u <= _SERIES_CUT:
        return _jv_series(nu, u)
    if nu >= 0.0:
        val, err = _jv_hankel(nu, u)
        if err < _HANKEL_TOL:
            return val
        return _jv_miller(nu, u)
    # negative non-integer order, large argument: seed near order 0 and
    # recurse downward (J grows in that direction, so this is stable)
    frac = nu - floor(nu)
    jh, _ = _jv_hankel(frac, u)
    jl, _ = _jv_hankel(frac - 1.0, u)
    s = frac - 1.0
    while s > nu + 0.5:
        jh, jl = jl, (2.0 * s / u) * jl - jh
        if abs(jl) > 1e300:
            raise BesselOverflowError(f"J_({nu})({u}) exceeds double range")
        s -= 1.0
    return jl


def bessel_j_dorder(nu: float, u: float) -> float:
    """dJ_nu(u)/dnu by the term-by-term differentiated power series.

    Each series term picks up the factor ln(u/2) - psi(nu+k+1); at the
    poles of Gamma the product psi/Gamma is replaced by its finite limit
    through the reflection split.  Intended for u <= 20 (the series range);
    absolute error <= 1e-9 there.
    """
    nu = float(nu)
    u = float(u)
    if not u > 0.0:
        raise DomainError(f"bessel_j_dorder needs u > 0, got u={u}")
    lhalf = log(0.5 * u)
    terms = []
    biggest = 0.0
    for k in range(250):
        lt = (nu + 2 * k) * lhalf - lgamma(k + 1)
        if lt > 690.0:
            raise BesselOverflowError(f"dJ/dnu term overflow at nu={nu}, u={u}")
        t = (-1.0) ** (k % 2) * exp(lt) * (
            lhalf * _rgamma(nu + k + 1) + _drgamma(nu + k + 1)
        )
        terms.append(t)
        biggest = max(biggest, abs(t))
        if k > max(0.0, -nu) + 6 and abs(t) < 1e-18 * max(biggest, 1e-300):
            break
    return fsum(terms)


def bessel_j_complex_order(nu: complex, u: float) -> complex:
    """J_nu(u) for complex order by the ascending series.

    Used by the Riemann-Hilbert checks, which evaluate the Bessel matrix
    at complex spectral points; u stays small there so the series is
    accurate with no cancellation concerns.
    """
    u = float(u)
    if not u > 0.0:
        raise DomainError(f"bessel_j_complex_order needs u > 0, got u={u}")
    nu = complex(nu)
    lhalf = log(0.5 * u)
    s = 0j
    biggest = 0.0
    for k in range(250):
        t = cmath.exp((nu + 2 * k) * lhalf - lgamma(k + 1)) * _rgamma_c(nu + k + 1)
        if k % 2:
            t = -t
        s += t
        biggest = max(biggest, abs(t))
        if k > max(0.0, -nu.real) + 4 and abs(t) < 1e-18 * max(biggest, 1e-300):
            break
    return s


# ----------------------------------------------------------------------
# Whittaker W
# ----------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _w_integral(kappa: float, mu_im: float, zeta: complex, nodes: int) -> complex:
    """Integral representation, kappa < 1/2, |arg zeta| <= 3pi/4.

    Panels double geometrically from 2^-20 |zeta| up to 80; the leading
    panel [0, 2^-20 |zeta|] is integrated analytically from a third-order
    Taylor expansion of the smooth factor, which removes the algebraic
    endpoint singularity t^(mu-kappa-1/2) from the quadrature's job.
    """
    mu = 1j * mu_im
    a = mu - kappa - 0.5
    b = mu + kappa - 0.5
    h = abs(zeta) * 2.0 ** -20
    # Taylor coefficients of g(t) = e^-t (1+t/zeta)^b around t = 0
    g = (
        1.0 + 0j,
        -1.0 + b / zeta,
        0.5 - b / zeta + b * (b - 1.0) / (2.0 * zeta ** 2),
        -1.0 / 6.0 + b / (2.0 * zeta) - b * (b - 1.0) / (2.0 * zeta ** 2)
        + b * (b - 1.0) * (b - 2.0) / (6.0 * zeta ** 3),
    )
    total = 0j
    lh = log(h)
    for j, gj in enumerate(g):
        total += gj * cmath.exp((a + j + 1) * lh) / (a + j + 1)
    edges = [h]
    while edges[-1] < 80.0:
        edges.append(min(2.0 * edges[-1], 80.0))
    edges = np.array(edges)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    xg, wg = _gl_nodes(nodes)
    # every panel's nodes at once, one row per panel; adding the panel sums
    # one by one rounds exactly as a loop over the panels does
    t = half * xg + mid
    panels = np.sum(half * wg * np.exp(a * np.log(t) - t + b * np.log(1.0 + t / zeta)),
                    axis=1)
    total = sum(panels, total)
    pref = cmath.exp(-0.5 * zeta + kappa * cmath.log(zeta) - log_gamma(mu - kappa + 0.5))
    return pref * total


def _hyp1f1(a: complex, b: complex, w: complex) -> complex:
    s = t = 1.0 + 0j
    for k in range(700):
        t = t * (a + k) / (b + k) * w / (k + 1)
        s += t
        if abs(t) < 1e-18 * max(abs(s), 1e-300):
            return s
    raise ConvergenceError(f"1F1({a},{b},{w}) did not converge")


def _w_kummer(kappa: float, mu_im: float, zeta: complex) -> complex:
    """Kummer connection, used near the cut; needs mu_im != 0."""
    if mu_im == 0.0:
        raise ParameterError("Kummer route to W needs a nonzero imaginary index")
    mu = 1j * mu_im
    lz = cmath.log(zeta)
    c1 = cmath.exp(log_gamma(-2.0 * mu) - log_gamma(0.5 - mu - kappa) + (0.5 + mu) * lz)
    c2 = cmath.exp(log_gamma(2.0 * mu) - log_gamma(0.5 + mu - kappa) + (0.5 - mu) * lz)
    # M(a,b,zeta) = e^zeta M(b-a,b,-zeta) keeps the 1F1 sums cancellation-free
    m1 = _hyp1f1(0.5 + mu + kappa, 1.0 + 2.0 * mu, -zeta)
    m2 = _hyp1f1(0.5 - mu + kappa, 1.0 - 2.0 * mu, -zeta)
    return cmath.exp(0.5 * zeta) * (c1 * m1 + c2 * m2)


_ARG_SPLIT = 0.75 * pi


def _w_base(kappa: float, mu_im: float, zeta: complex, nodes: int,
            check: bool) -> complex:
    """W for kappa < 1/2: the integral, or the Kummer connection near the cut."""
    if abs(cmath.phase(zeta)) > _ARG_SPLIT:
        return _w_kummer(kappa, mu_im, zeta)
    val = _w_integral(kappa, mu_im, zeta, nodes)
    if check:
        ref = _w_integral(kappa, mu_im, zeta, max(20, nodes - 8))
        if abs(val - ref) > 1e-8 * max(abs(val), 1e-280):
            raise ConvergenceError(
                f"W quadrature not converged at kappa={kappa}, mu_im={mu_im}, zeta={zeta}"
            )
    return val


def whittaker_w_complex(kappa, mu_im: float, zeta: complex, *,
                        nodes: int = 32, _check: bool = True):
    """W_{kappa, i mu_im}(zeta) on the cut plane |arg zeta| < pi.

    kappa >= 1/2 runs the contiguous recurrence in kappa upward from the
    two base values below 1/2.  `kappa` may also be a sequence of orders:
    the result is then an array, and orders of one call whose ladders
    reach the same base values (such as kappa and kappa - 1) share them.
    """
    zeta = complex(zeta)
    if zeta == 0 or (zeta.imag == 0.0 and zeta.real < 0.0):
        raise DomainError(f"W is evaluated on the plane cut along (-inf,0], got {zeta}")
    bases: dict = {}

    def base(k: float) -> complex:
        if k not in bases:
            bases[k] = _w_base(k, mu_im, zeta, nodes, _check)
        return bases[k]

    def one(k: float) -> complex:
        levels = []
        while k >= 0.5 - 1e-13:
            levels.append(k)
            k -= 1.0
        if not levels:
            return base(k)
        lo, hi = base(levels[-1] - 2.0), base(levels[-1] - 1.0)
        for level in reversed(levels):
            lo, hi = hi, ((zeta - 2.0 * level + 2.0) * hi
                          - ((1.5 - level) ** 2 + mu_im ** 2) * lo)
        return hi

    if np.ndim(kappa):
        return np.array([one(float(k)) for k in kappa])
    return one(float(kappa))


def whittaker_w(kappa, mu_im: float, x: float):
    """W_{kappa, i mu_im}(x) for x > 0; real for these indices.

    `kappa` may be a sequence of orders, giving an array (see
    `whittaker_w_complex`).  Relative error <= 1e-8 for x in [0.05, 60],
    |kappa| <= 2, |mu_im| <= 3.  Raises ConvergenceError if the internal
    quadrature misses its tolerance or leaves a relative imaginary residue
    above 1e-10.
    """
    if not x > 0.0:
        raise DomainError(f"whittaker_w needs x > 0, got x={x}")
    val = whittaker_w_complex(kappa, float(mu_im), complex(x))
    residue = np.abs(np.imag(val))
    if np.any(residue > 1e-10 * np.maximum(np.abs(np.real(val)), 1e-280)):
        raise ConvergenceError(
            f"W({kappa}, {mu_im}i, {x}) kept an imaginary residue {np.max(residue):.3e}"
        )
    return np.real(val) if np.ndim(val) else val.real
