"""Special functions used by the kernel formulas.

Everything here is double precision and pure: the gamma family (complex
log-gamma, Pochhammer symbols, digamma), Bessel J of real order together
with its derivative in the order, Bessel J of complex order through 0F1,
and the Whittaker function W with real first index and purely imaginary
second index.

Bessel J strategy: two routes, split by the order.  Integer orders
(reflected, J_(-n) = (-1)^n J_n) run Miller's backward recurrence toward
the minimal solution, normalized by J_0 + 2 sum_k J_2k = 1; one run
started at a point fixed by u serves every integer order up to a reach
fixed by u.  Every other real order, integer orders below u = 1e-40, and
every complex order (the Riemann-Hilbert checks) take one formula,

    J_nu(u) = (u/2)^nu / Gamma(nu+1) 0F1(nu+1; -u^2/4),

with 0F1 from `_hyp0f1`, which sums the series only where it does not
cancel and runs the contiguous relation in c down from there (stable,
since 0F1 is its minimal solution), and the factor in front, with its
overflow guard, from `_j_from_0f1`.  It takes arrays of orders and
reflects negative integer orders, J_(-n) = (-1)^n J_n.

Whittaker W strategy: the integral representation

    W_{kappa,mu}(z) = e^{-z/2} z^kappa / Gamma(mu-kappa+1/2)
                      * int_0^inf e^{-t} t^(mu-kappa-1/2) (1+t/z)^(mu+kappa-1/2) dt

(valid for Re(mu-kappa+1/2) > 0 and |arg z| < pi) evaluated on
geometrically graded panels; kappa >= 1/2 is reached by the three-term
contiguous recurrence in kappa, run upward from two base values below 1/2.
W takes a sequence of orders too, and orders on one recurrence ladder share
its base values.  Every base value of a call, with both quadrature rules
of its self-check, comes from one array expression over base x panel x
node.  Near the cut arg z ~ +-pi the integrand develops a spike at t = -z,
so for |arg z| > 3pi/4 the Kummer connection

    W = Gamma(-2mu)/Gamma(1/2-mu-kappa) M_{kappa,mu}
      + Gamma(2mu)/Gamma(1/2+mu-kappa) M_{kappa,-mu}

is used instead (well defined here because 2mu is never an integer), but
only where its 1F1 sums, which cancel by ~e^(|z| + Re z), stay accurate:
|z| + Re z < 12.9 (|z| < 44 at |arg z| = 3pi/4) and |z| < 100, and only
for a base whose two terms do not cancel by more than 1e3.  The
integral is accurate elsewhere: the spike stays well off the real t axis
unless z is close to the cut, and from |z| = 100 on e^-t makes it
negligible even there.  At real z, where W is real, each base value's imaginary part is
checked against the moduli it summed; the ladder's coefficients are real
there, so the bases are the only place an imaginary residue can come from.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from math import exp, floor, fsum, lgamma, log, pi, sin, sqrt

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
    (-inf, 0].  Relative error <= 1e-13 for |z| <= 50.  A z that is not
    finite raises DomainError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"log_gamma needs a finite z, got {z}")
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


# ----------------------------------------------------------------------
# Bessel J, real order
# ----------------------------------------------------------------------

_DORDER_MAX_U = 20.0        # range of the differentiated series
# (k, log k!, (-1)^k) for the at most 250 terms of `bessel_j_dorder`'s series
_DORDER_STEPS = tuple((k, lgamma(k + 1), (-1.0) ** (k % 2)) for k in range(250))
_MILLER_MIN_U = 1e-40       # below it one step of Miller's run can overflow
# resource bounds, not accuracy claims: the largest u of `bessel_j` (its
# Miller run keeps ~u + 12 sqrt(u) floats, 11 220 at the cap, and no run
# of a higher order is longer) and the highest start of a 0F1 ladder (one
# complex shift per step, 16 MiB)
_MAX_U = 1e4
_LADDER_MAX = 2 ** 20


def _miller_top(n: float, u: float) -> int:
    """Start of Miller's run for order n: 20 + 12 sqrt(.) orders above max(n, u)."""
    m = max(n, u)
    return int(m + 20 + 12 * sqrt(max(m, 1.0)))


def _miller(top: int, u: float) -> np.ndarray:
    """J_k(u), k = 0..top: one backward run from order top, normalized by
    J_0 + 2 sum_(k >= 1) J_2k = 1.  A run longer than the one at u = 1e4
    raises DomainError before its list is made.  Each pass of 1e250
    rescales the entries made so far except the top ones that have
    underflowed to +-0.0, which rescaling would leave as they are, so the
    work is linear in top."""
    if top > _miller_top(0.0, _MAX_U):
        raise DomainError(f"bessel_j's Miller run from order {top} is longer than its cap, "
                          f"the {_miller_top(0.0, _MAX_U)} orders of the run at u = {_MAX_U:g}")
    above = 0.0
    here = 1e-280
    vals = [0.0] * (top + 1)
    live = top + 1      # vals[live:] have underflowed to +-0.0
    s = float(top)
    for k in range(top, -1, -1):
        vals[k] = here
        above, here = here, (2.0 * s / u) * here - above
        if abs(here) > 1e250:
            above *= 1e-250
            here *= 1e-250
            vals[k:live] = [v * 1e-250 for v in vals[k:live]]
            while live > k and vals[live - 1] == 0.0:
                live -= 1
        s -= 1.0
    norm = 0.0
    for k in range(top // 2):
        norm += (1.0 if k == 0 else 2.0) * vals[2 * k]
    return np.array(vals) / norm


def _jn_reach(u: float) -> int:
    """Highest integer order read from the shared run at u: 20 below its start."""
    return _miller_top(0.0, u) - 20


def bessel_j(nu, u: float):
    """Bessel function J_nu(u) for real order nu and u >= 0.

    Two routes, by the order, at every u:

    * integer orders (J_(-n) = (-1)^n J_n exactly): Miller's backward
      recurrence, started 20 + 12 sqrt(.) orders above max(n, u) and
      normalized by J_0 + 2 sum J_2k = 1.  Every order n <= u shares that
      start, T(u), so all integer orders |n| <= R(u) = T(u) - 20 read one
      run from T(u) and J_n(u) depends on (n, u) alone.  A higher order
      runs its own recurrence.  Below u = 1e-40, where one step of the
      recurrence can overflow, they take the 0F1 route;
    * non-integer orders, either sign: (u/2)^nu / Gamma(nu+1) 0F1(nu+1;
      -u^2/4), the real part of `bessel_j_complex_order` at the order,
      one ladder per order.

    `nu` may be an array of orders, each entry one order of the same
    path, so a scalar order is a one-element call; the integer orders up
    to R(u) share a single run.

    At u = 0 order 0 gives 1, other integer and positive orders 0, and
    negative non-integer orders, where J is infinite, raise DomainError.
    So does an order that is not finite, and so does u > 1e4 (theta >
    2.5e7 at u = 2 sqrt(theta)), a bound on the run's length (u + 12
    sqrt(u) floats), not on accuracy, and so does an integer order above u
    whose own run would be longer than the shared run at u = 1e4 (n + 20 +
    12 sqrt(n) > 11 220, i.e. n > 1e4); the 0F1 route is bounded by its
    ladder, at |u^2/4| + 20 - nu <= 2^20 steps.
    A subnormal u takes log(u) - log 2 for log(u/2), since u/2 rounds
    there (and underflows to 0 at the least subnormal).  Raises
    BesselOverflowError when (u/2)^nu / Gamma(nu+1) leaves the double
    range, which happens for strongly negative non-integer orders at
    small u.

    Against 40-digit mpmath, integer orders 0..120 at u = 2 sqrt(theta),
    theta in {1, 4, 9, 16, 25, 30, 100, 400, 1000}, are within 2.2e-16
    absolute (2.2e-16 measured, at theta = 1000), and integer orders
    0..120 at ten u in [0.05, 10] likewise (2.2e-16).  Against 30-digit
    mpmath, random real orders |nu| <= 60 at u <= 40 are within
    4e-13 max(1, |J|) (1.3e-13 measured on 3 300 draws off the corner
    below, the largest at nu ~ -60).  The one weaker corner is a negative
    non-integer order at distance delta < 1e-3 from a negative integer -n
    with n > u: the 0F1 ladder for c = nu + 1 steps through
    c + n - 1 = delta and cancels on the way down, so the error grows like
    1e-15/delta max(1, |J|) (measured up to 3.6e-16/delta for u in
    [0.5, 40], n - u in [1, 40]: up to 3.6e-10 at delta = 1e-6, 2.2e-7
    at delta = 1e-9).  No caller in the package uses such orders.
    """
    u = float(u)
    if not 0.0 <= u <= _MAX_U:
        raise DomainError(f"bessel_j needs 0 <= u <= {_MAX_U:g}, got u={u}")
    # the run every integer order n <= u starts alike, made on first use
    run = functools.cache(lambda: _miller(_miller_top(0.0, u), u))
    orders = np.asarray(nu, dtype=float)
    if not np.isfinite(orders).all():
        raise DomainError(f"bessel_j needs finite orders, got nu={nu}")
    return np.reshape([_bessel_j(n, u, run) for n in orders.ravel().tolist()], orders.shape)[()]


def _bessel_j(nu: float, u: float, run) -> float:
    """One order of `bessel_j`; `run()` is the shared integer-order run at u."""
    if nu == round(nu):
        if nu < 0.0:
            return (1.0 if nu % 2.0 == 0.0 else -1.0) * _bessel_j(-nu, u, run)
        if u == 0.0:
            return 1.0 if nu == 0.0 else 0.0
        if u >= _MILLER_MIN_U:
            n = int(nu)
            return float(run()[n] if n <= _jn_reach(u) else _miller(_miller_top(n, u), u)[n])
    elif u == 0.0:
        if nu < 0.0:
            raise DomainError("bessel_j at u=0 needs a nonnegative or integer order")
        return 0.0
    return float(bessel_j_complex_order(nu, u).real)


def bessel_j_dorder(nu, u: float):
    """dJ_nu(u)/dnu by the term-by-term differentiated power series.

    Each series term picks up the factor ln(u/2) - psi(nu+k+1); at the
    poles of Gamma the product psi/Gamma is replaced by its finite limit
    through the reflection split.  Defined for 0 < u <= 20: against
    40-digit references at orders 0..44 the absolute error grows with u to
    7.7e-9 at u = 20.  The series cancels beyond it (3e-6 at u = 25, 10 at
    u = 40), so larger u raises DomainError, as does an order that is not
    finite.

    `nu` may be an array of orders (a scalar is a one-element call).  Each
    order sums its own series with its own stop, reading log k! and (-1)^k
    from a module table, and ln(u/2)/Gamma(s) + d(1/Gamma)/ds by
    s = nu + k + 1 from a table the call fills on first use: orders 0..40
    at u = 20 share 66 s values.
    """
    u = float(u)
    if not 0.0 < u <= _DORDER_MAX_U:
        raise DomainError(f"bessel_j_dorder needs 0 < u <= {_DORDER_MAX_U:g}, got u={u}")
    lhalf = log(0.5 * u)
    factor: dict[float, float] = {}
    orders = np.asarray(nu, dtype=float)
    if not np.isfinite(orders).all():
        raise DomainError(f"bessel_j_dorder needs finite orders, got nu={nu}")
    sums = []
    for nu in orders.ravel().tolist():
        terms = []
        push = terms.append
        # the largest |term| so far, floored at 1e-300 for the stop test
        biggest = 1e-300
        k_min = max(0.0, -nu) + 6
        for k, lg, sign in _DORDER_STEPS:
            lt = (nu + 2 * k) * lhalf - lg
            if lt > 690.0:
                raise BesselOverflowError(f"dJ/dnu term overflow at nu={nu}, u={u}")
            s = nu + k + 1
            g = factor.get(s)
            if g is None:
                g = factor[s] = lhalf * _rgamma(s) + _drgamma(s)
            t = sign * exp(lt) * g
            push(t)
            a = abs(t)
            if a > biggest:
                biggest = a
            if k > k_min and a < 1e-18 * biggest:
                break
        sums.append(fsum(terms))
    return np.reshape(sums, orders.shape)[()]


# ----------------------------------------------------------------------
# Bessel J, complex order
# ----------------------------------------------------------------------

def _hyp0f1(c, w, top: int = 1) -> np.ndarray:
    """0F1(c + k; w) for k = 0, ..., top, along a leading axis, for an array
    of c and complex w: by default the pair (0F1(c; w), 0F1(c+1; w)).

    0F1 has poles at c in {0, -1, -2, ...}.  The series
    sum w^k / (k! (c)_k) alternates and cancels once |w| is large, but in
    c the function is the minimal solution of its contiguous relation
    F(b-1) = F(b) + w F(b+1) / (b (b-1)), which is therefore stable run
    downward (Gautschi, SIAM Rev. 9, 1967).  The series is summed only at
    b = c + n and b + 1, with n the least integer >= 0 that makes
    Re b >= |w| + 20 for every element; there each term is below the one
    before it by the ratio |w| / ((k+1)(|w|+20+k)), which fixes the term
    count from |w| alone.  The relation then steps down n times, forming
    each c + k from c itself (accumulated shifts cost ~100x in accuracy
    next to the poles).  A start n above 2^20 raises DomainError before
    the ladder is allocated (a resource bound: suite_drhp starts at
    ~theta + 150).  Against 40-digit mpmath, on residue circles of
    radius 1e-3 and on the |zeta| = 40 circle, the relative error is at
    most 4e-13 for real w in [-400, 0); at complex w of modulus 5, 20
    and 40 (six phases, positive real w among them) and c in
    {1/2, ..., 41/2}, at most 3.8e-15.

    The ladder passes through every c + k on its way down, so `top` > 1
    keeps the values at k = 2, ..., top as well (the ladder then starts at
    n >= top - 1).  Where n is not raised by that, 0F1(c) and 0F1(c + 1)
    are the default call's bit for bit: one element per offset of c from
    the integers serves every integer shift of it.

    w may be an array, broadcast against c: n and the term count then
    come from the largest |w|, so one ladder serves every (c, w) pair and
    the call costs what its longest ladder costs.  An element's values
    then depend on the other elements only through n and the term count,
    which move them within the error above: against one call per element,
    on random w in [-400, -0.5], by <= 1.7e-14 relative off the poles and
    <= 1.6e-12 on residue circles of radius 1e-3.  Equal w give the
    scalar call's values bit for bit, and so does any subset of the
    elements that keeps the leftmost Re c and the largest |w|.  For real w,
    0F1(conj c) is conj 0F1(c) bit for bit off the real axis, since every
    step of the ladder is conjugation-symmetric.

    This is the one-group, one-ladder case of `_hyp0f1_ladders`, which joins
    groups on one ladder and runs several ladders in one downward loop.
    """
    return _hyp0f1_ladders(([(c, w)], top))[0][0]


def _ladder_start(groups, top: int) -> tuple:
    """(shapes, c, w, n, series) of one `_hyp0f1_ladders` ladder: each
    group's broadcast shape, the groups' c and w broadcast, flattened and
    joined, the start n and the series values (0F1(c + n), 0F1(c + n + 1))
    along a leading axis of 2."""
    pairs = [np.broadcast_arrays(np.asarray(c, dtype=complex),
                                 np.asarray(w, dtype=np.result_type(w, float)))
             for c, w in groups]
    shapes = [c.shape for c, _ in pairs]
    c, w = (np.concatenate([v.ravel() for v in column]) for column in zip(*pairs))
    pole = (c.imag == 0.0) & (c.real <= 0.0) & (c.real == np.round(c.real))
    if pole.any():
        raise PoleError(f"0F1 pole at c={c[np.argmax(pole)]}")
    if not c.size:
        return shapes, c, w, 0, np.empty((2, 0), dtype=complex)
    a = float(np.max(np.abs(w)))
    reach = a + 20.0 - c.real.min()
    if not reach <= _LADDER_MAX:
        raise DomainError(f"0F1 ladder needs a start <= {_LADDER_MAX} steps up, got "
                          f"{reach:.6g} (|w| = {a:.6g}, min Re c = {c.real.min():.6g})")
    n = max(0, top - 1, math.ceil(reach))
    shift = np.array([[n], [n + 1]])
    terms, bound = 0, 1.0
    while bound > 1e-17:
        terms += 1
        bound *= a / (terms * (a + 19.0 + terms))
    term = np.ones((2, c.size), dtype=complex)
    total = term.copy()
    # the factors w / (k + 1) and c + n + k (c + n + 1 + k on the second
    # row) of every term k, formed at once before the loop
    k = np.arange(terms)
    for w_k, c_k in zip(w / (k + 1)[:, None], c + (shift + k[:, None, None])):
        term *= w_k
        term /= c_k
        total += term
    return shapes, c, w, n, total


def _hyp0f1_ladders(*ladders) -> list:
    """`_hyp0f1` on several ladders (groups, top) in one downward loop, a
    ladder's groups a list of (c, w): for each ladder, the list of its
    groups' 0F1(c + k; w), k = 0, ..., top, each in its group's broadcast
    shape.

    The groups of a ladder are joined into one array (`_ladder_start`), so
    they share its start n and series term count, set by the largest |w|
    and the leftmost Re c over all of them: a group's values are its own
    call's bit for bit where that call has the ladder's n and term count,
    and within `_hyp0f1`'s error of them otherwise.  Each ladder enters the
    loop at its own n; from there the loop steps it with every ladder
    entered before, over one array.  A step's arithmetic is elementwise, so
    each ladder's values are its own call's bit for bit, while the loop
    costs the longest ladder's steps, not the sum of all ladders' steps.
    """
    shapes, cs, ws, starts, series = zip(*(_ladder_start(*ladder) for ladder in ladders))
    tops = [top for _, top in ladders]
    # longest first, so the ladders entered at any step are a prefix
    order = sorted(range(len(ladders)), key=lambda i: -starts[i])
    ends = dict(zip(order, np.cumsum([cs[i].size for i in order]).tolist()))
    c = np.concatenate([cs[i] for i in order])
    # w and the shifts k as complex, which the steps' arithmetic casts them to
    w = np.concatenate([ws[i] for i in order]).astype(complex)
    shifts = np.arange(max(starts) + 1, dtype=complex)
    out = np.empty((max(tops) + 1, c.size), dtype=complex)
    f0, f1 = np.empty_like(c), np.empty_like(c)
    waiting = list(order)
    for k in range(max(starts), -1, -1):
        while waiting and starts[waiting[0]] == k:
            i = waiting.pop(0)
            active = ends[i]
            f0[active - cs[i].size:active], f1[active - cs[i].size:active] = series[i]
            v0, v1, ck, wk = f0[:active], f1[:active], c[:active], w[:active]
            b = ck + shifts[k]
        if not k:
            break
        # here v0 = 0F1(c + k), v1 = 0F1(c + k + 1) on the entered ladders
        if k < len(out) - 1:
            out[k + 1, :active] = v1
        b1 = ck + shifts[k - 1]
        step = wk * v1
        step /= b * b1
        np.add(v0, step, out=v1)
        f0, f1, v0, v1, b = f1, f0, v1, v0, b1
    out[0], out[1] = f0, f1
    values = []
    for i, top in enumerate(tops):
        ladder = out[:top + 1, ends[i] - cs[i].size:ends[i]]
        cuts = np.cumsum([math.prod(shape) for shape in shapes[i]])[:-1]
        values.append([f.reshape((top + 1,) + shape)
                       for f, shape in zip(np.split(ladder, cuts, axis=1), shapes[i])])
    return values


def _j_reflected(nu, u) -> tuple:
    """(order, sign, u) of `bessel_j_complex_order`: negative integer orders
    -n reflected to n with the sign (-1)^n, and u checked to be > 0."""
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0.0):
        raise DomainError(f"bessel_j_complex_order needs u > 0, got u={u}")
    nu = np.asarray(nu, dtype=complex)
    reflect = (nu.imag == 0.0) & (nu.real < 0.0) & (nu.real == np.round(nu.real))
    order = np.where(reflect, -nu, nu)
    return order, np.where(reflect & (order.real % 2.0 == 1.0), -1.0, 1.0), u


def _j_0f1_args(nu, u) -> tuple:
    """(c, w) of the 0F1 in J_nu(u): c = nu + 1 after reflection, w = -u^2/4.

    An element with u^2/4 > 2^20 + Re c, whose ladder would start above the
    cap of `_ladder_start`, raises DomainError before u^2/4 is formed (it
    overflows from u ~ 1e154 on)."""
    order, _, u = _j_reflected(nu, u)
    c = order + 1.0
    if np.any(0.5 * u > np.sqrt(np.maximum(_LADDER_MAX + c.real, 0.0))):
        raise DomainError(f"0F1 ladder of J_nu(u) needs u^2/4 + 20 - Re(nu + 1) <= "
                          f"{_LADDER_MAX}, got u up to {np.max(u):.6g}")
    return c, -0.25 * u * u


def _j_from_0f1(nu, u, f0):
    """J_nu(u) from f0 = 0F1(c; w) at `_j_0f1_args(nu, u)`; raises
    BesselOverflowError where (u/2)^nu / Gamma(nu+1) leaves the double range."""
    order, sign, u = _j_reflected(nu, u)
    lg = np.array([log_gamma(s) for s in (order + 1.0).ravel().tolist()]).reshape(order.shape)
    # log(u/2); u/2 rounds at subnormal u (to 0 at the least one): log u - log 2 there
    tiny = 0.5 * u < sys.float_info.min
    log_half = np.log(np.where(tiny, u, 0.5 * u)) - np.where(tiny, log(2.0), 0.0)
    scale = order * log_half - lg
    if np.any(scale.real > 705.0):
        raise BesselOverflowError(f"J_nu(u) exceeds double range at nu={nu}, u={u}")
    return sign * np.exp(scale) * f0


def bessel_j_complex_order(nu, u):
    """J_nu(u) = (u/2)^nu / Gamma(nu+1) 0F1(nu+1; -u^2/4) for complex orders.

    Used by the Riemann-Hilbert checks, which evaluate the Bessel matrix
    at complex spectral points and u = 2 sqrt(theta).  `nu` may be an
    array of orders and `u` an array broadcast against it; the result has
    their broadcast shape, and all (nu, u) share one `_hyp0f1` ladder.
    Both are broadcast and flattened first, so a scalar is a one-element
    array: numpy's scalar arithmetic, whose complex products differ from
    its array loops in the last bit on some machines, never runs.
    Negative integer orders -n are reflected,
    J_(-n) = (-1)^n J_n (DLMF 10.4.1), since 0F1(nu+1) has its poles
    there.  1/Gamma(nu+1) is exp(-log_gamma), one scalar call per element.
    Against 40-digit mpmath at u in {2, 11, 20, 40}, the error is at most
    2e-14 max(1, |J|) on complex orders with |Re nu|, |Im nu| <= 12,
    half-integer orders and integer orders -12..12 (1.8e-14 measured).
    Real orders are `bessel_j`'s non-integer route, with its bounds, its
    subnormal u and its BesselOverflowError (2.0e-13 relative measured on
    1 600 orders |nu| <= 40, next to zeros of J).  Digits are lost only
    within ~1e-6 of a negative integer -n with n > u, where the ladder
    runs down next to the pole (5.1e-11 relative at nu = -11 + 1e-6,
    u = 2).

    The work splits in two halves, `_j_0f1_args` and `_j_from_0f1`, so
    that a caller can run the 0F1 of several subjects in one ladder.
    """
    shape = np.broadcast_shapes(np.shape(nu), np.shape(u))
    nu, u = (np.broadcast_to(v, shape).ravel() for v in (nu, u))
    return _j_from_0f1(nu, u, _hyp0f1(*_j_0f1_args(nu, u))[0]).reshape(shape)[()]


# ----------------------------------------------------------------------
# Whittaker W
# ----------------------------------------------------------------------

# Gauss-Legendre nodes and weights of the W integral on one axis: the
# 32-point rule that gives W, then the 24-point rule that checks it
_W_NODES = 32
_W_X, _W_WEIGHTS = (np.concatenate(pair) for pair in
                    zip(np.polynomial.legendre.leggauss(_W_NODES),
                        np.polynomial.legendre.leggauss(24)))
# the largest real part that cmath.exp takes without an OverflowError
_LOG_MAX = log(sys.float_info.max)


def _w_integral(kappas: list, mu_im: float, zeta: complex) -> list:
    """W at base orders kappa < 1/2, |arg zeta| <= 3pi/4, in one pass.

    Integral representation.  Panels double geometrically from
    2^-20 |zeta| up to 80; the leading panel [0, 2^-20 |zeta|] is integrated
    analytically from a third-order Taylor expansion of the smooth factor,
    which removes the algebraic endpoint singularity t^(mu-kappa-1/2) from
    the quadrature's job.  Its zeta^-3 term overflows below |zeta| ~ 1e-103
    (NaN, then a ZeroDivisionError once zeta^3 underflows), so |zeta| <
    1e-100 raises DomainError, as does |zeta| >= 80 * 2^20, where no panel
    is left.  The integrand is one base x panel x node array:
    log t and log(1 + t/zeta) are shared by every base, and the 24-point
    check rule's nodes sit beside the 32-point rule's along the node axis.
    Each rule's panel sums are added one by one in Python, so every value
    rounds exactly as a separate pass per base and rule does.  A base
    whose two rules differ by more than 1e-8 relative raises
    ConvergenceError.  At real zeta, where W is real, so does a base whose
    imaginary part exceeds 1e-10 times the size of what was added up:
    |prefactor| times the moduli of the leading panel and of the main
    rule's terms, summed.  That yardstick, not |W|, keeps the test sound
    next to a zero of W.
    """
    mu = 1j * mu_im
    if not 1e-100 <= abs(zeta) < 80.0 * 2.0 ** 20:
        raise DomainError(
            f"W needs 1e-100 <= |zeta| < {80.0 * 2.0 ** 20:.6g}, got {abs(zeta):.6g}")
    h = abs(zeta) * 2.0 ** -20
    lh = log(h)
    edges = [h]
    while edges[-1] < 80.0:
        edges.append(min(2.0 * edges[-1], 80.0))
    edges = np.array(edges)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    t = half * _W_X + mid
    log_t = np.log(t)
    log_1p = np.log(1.0 + t / zeta)
    heads, prefs, a_s, b_s = [], [], [], []
    for kappa in kappas:
        a = mu - kappa - 0.5
        b = mu + kappa - 0.5
        # Taylor coefficients of g(t) = e^-t (1+t/zeta)^b around t = 0
        g = (
            1.0 + 0j,
            -1.0 + b / zeta,
            0.5 - b / zeta + b * (b - 1.0) / (2.0 * zeta ** 2),
            -1.0 / 6.0 + b / (2.0 * zeta) - b * (b - 1.0) / (2.0 * zeta ** 2)
            + b * (b - 1.0) * (b - 2.0) / (6.0 * zeta ** 3),
        )
        head = 0j
        for j, gj in enumerate(g):
            head += gj * cmath.exp((a + j + 1) * lh) / (a + j + 1)
        heads.append(head)
        log_pref = -0.5 * zeta + kappa * cmath.log(zeta) - log_gamma(mu - kappa + 0.5)
        if log_pref.real > _LOG_MAX:
            raise DomainError(f"W at base order kappa = {kappa}, mu = {mu_im}i, "
                              f"zeta = {zeta} is past the double range")
        prefs.append(cmath.exp(log_pref))
        a_s.append(a)
        b_s.append(b)
    a = np.array(a_s)[:, None, None]
    b = np.array(b_s)[:, None, None]
    terms = half * _W_WEIGHTS * np.exp(a * log_t - t + b * log_1p)
    main = terms[..., :_W_NODES]
    panels = main.sum(axis=-1)
    sizes = np.abs(main).sum(axis=(1, 2)).tolist()
    checks = terms[..., _W_NODES:].sum(axis=-1)
    values = []
    for i, (kappa, head, pref) in enumerate(zip(kappas, heads, prefs)):
        val = pref * sum(panels[i], head)
        ref = pref * sum(checks[i], head)
        if abs(val - ref) > 1e-8 * max(abs(val), 1e-280):
            raise ConvergenceError(
                f"W quadrature not converged at kappa={kappa}, mu_im={mu_im}, zeta={zeta}"
            )
        if zeta.imag == 0.0 and abs(val.imag) > 1e-10 * abs(pref) * (abs(head) + sizes[i]):
            raise ConvergenceError(
                f"W({kappa}, {mu_im}i, {zeta.real}) kept an imaginary residue {abs(val.imag):.3e}"
            )
        values.append(val)
    return values


def _hyp1f1(a: complex, b: complex, w: complex) -> tuple:
    """1F1(a; b; w) by its series, and the sum of its terms' moduli."""
    s = t = 1.0 + 0j
    size = 1.0
    for k in range(700):
        t = t * (a + k) / (b + k) * w / (k + 1)
        s += t
        term = abs(t)
        size += term
        if term < 1e-18 * max(abs(s), 1e-300):
            return s, size
    raise ConvergenceError(f"1F1({a},{b},{w}) did not converge")


def _w_kummer(kappa: float, mu_im: float, zeta: complex):
    """W by the Kummer connection, used near the cut; needs mu_im != 0.

    None where the connection's two terms cancel, (|c1 M1| + |c2 M2|) >
    `_KUMMER_CANCEL` |c1 M1 + c2 M2|: that loss grows with |Gamma(1/2 +- mu
    - kappa)|, so only strongly negative kappa away from the cut meets it.
    At kappa <= -2 also None where the terms t1, t2 of M1, M2 cancel with
    them, (|c1| sum |t1| + |c2| sum |t2|) > `_KUMMER_TERMS` |c1 M1 + c2 M2|.
    """
    if mu_im == 0.0:
        raise ParameterError("Kummer route to W needs a nonzero imaginary index")
    mu = 1j * mu_im
    lz = cmath.log(zeta)
    c1 = cmath.exp(log_gamma(-2.0 * mu) - log_gamma(0.5 - mu - kappa) + (0.5 + mu) * lz)
    c2 = cmath.exp(log_gamma(2.0 * mu) - log_gamma(0.5 + mu - kappa) + (0.5 - mu) * lz)
    # M(a,b,zeta) = e^zeta M(b-a,b,-zeta) keeps the 1F1 sums cancellation-free
    m1, size1 = _hyp1f1(0.5 + mu + kappa, 1.0 + 2.0 * mu, -zeta)
    m2, size2 = _hyp1f1(0.5 - mu + kappa, 1.0 - 2.0 * mu, -zeta)
    p1, p2 = c1 * m1, c2 * m2
    w = abs(p1 + p2)
    if (abs(p1) + abs(p2) > _KUMMER_CANCEL * w
            or kappa <= -2.0 and abs(c1) * size1 + abs(c2) * size2 > _KUMMER_TERMS * w):
        return None
    return cmath.exp(0.5 * zeta) * (p1 + p2)


# Kummer replaces the integral, whose integrand spikes at t = -zeta, only
# near the cut, |arg zeta| > 3pi/4, and only where it is accurate.  Its 1F1
# sums cancel by ~e^(|zeta| + Re zeta); against 30-digit mpmath it is 2e-11
# relative at |zeta| + Re zeta = 12.8 (|zeta| = 44, arg zeta = 0.751pi) and
# 2.7e-5 at |zeta| = 100, arg zeta = 0.76pi.  The bound 12.9 keeps it at
# every |zeta| < 44 (12.9 = 44 (1 - cos pi/4)), where the routes cross; at
# |zeta| = 44 the integral is within 4e-14 for |arg zeta| <= 0.99pi but loses
# digits closer to the cut (3e-9 at (1 - 1e-8)pi), as it does up to |zeta|
# ~ 56, and up to ~ 100 at orders kappa <= -2.5 (ConvergenceError, or 1.5e-8
# off).  From |zeta| = 100 on it is within 5.8e-14 at every arg, while
# Kummer's sums outgrow `_hyp1f1`'s 700 terms from |zeta| ~ 500 on.
_ARG_SPLIT = 0.75 * pi
_KUMMER_LOSS = 12.9
_KUMMER_MAX = 100.0
# Kummer also hands a base to the integral where its two connection terms
# cancel by more than this factor, which happens at strongly negative kappa
# away from the cut: at |zeta| = 20, arg zeta = 0.76pi, mu_im = 0.5 the
# ratio is 1.1e7 / 5.7e4 / 220 at kappa = -12 / -8 / -5, Kummer 2.5e-7 /
# 2.2e-10 off 30-digit mpmath and the integral within 2e-14.  From arg
# zeta = 0.99pi to the cut the ratio is ~1 (and the integral can fail
# there: ConvergenceError at kappa = -12, 0.999pi, where Kummer is 5.9e-12
# off).  For Psi's bases, kappa in (-1.5, 1/2), it stays below 25 from
# mu_im = 0.1 on, and grows like 1/mu_im below (2.6e3 at 0.001, where the
# integral is 4e-15 off and Kummer 9e-13).  On a sweep of kappa in [-12,
# 1/2], mu_im in [0.1, 2.5] over Kummer's box, 1e3 hands 964 of 15 300
# points over; the integral raises ConvergenceError at 5 and is within
# 3.5e-11 at the rest.
_KUMMER_CANCEL = 1e3
# At kappa <= -2 (Psi's bases, kappa > -3/2, reach 1e6 and stay accurate),
# also where the 1F1 sums cancel with the connection by more than this: on
# kappa in {-2, -3, -5, -8, -9, -12}, mu_im in {0.1, 0.3, 1.2, 2.5}, |zeta|
# 5-90, arg 0.751pi-0.999pi, W is then within 5.2e-12 of 30-digit mpmath or
# raises ConvergenceError (17 of 768 points; Kummer alone: 5.1e-9, 1 raise).
_KUMMER_TERMS = 1e5
# the highest order of W, a resource bound: its ladder keeps one level per
# unit of kappa - 1/2, and from kappa ~ 172 on W(x = 1) is past the double range
_KAPPA_MAX = 1e4


def whittaker_w_complex(kappa, mu_im: float, zeta: complex):
    """W_{kappa, i mu_im}(zeta) on the cut plane |arg zeta| < pi.

    kappa >= 1/2 runs the contiguous recurrence in kappa upward from the
    two base values below 1/2.  `kappa` may also be a sequence of orders:
    the result is then an array, and orders of one call whose ladders
    reach the same base values (such as kappa and kappa - 1) share them.
    A call first collects its distinct base orders, then evaluates them
    all in one integrand pass (`_w_integral`: both quadrature rules, one
    base x panel x node array) or one Kummer connection each, and then
    runs the ladders.  Kummer serves |arg zeta| > 3pi/4 where |zeta| < 100
    and |zeta| + Re zeta < 12.9 (|zeta| < 44 at |arg zeta| = 3pi/4), for
    each base whose two connection terms cancel by at most 1e3 (and at
    kappa <= -2 whose 1F1 sums cancel with them by at most 1e5), the
    integral everything else.  A pair such as (W_k, W_(k-1)) (two orders,
    two bases) costs ~105 µs on a 2-core AMD EPYC, against ~170 µs for one
    pass per base and rule.

    Near the cut, against 30-digit mpmath at |arg zeta| from 0.751pi to
    (1 - 1e-8)pi, base orders in [-1.49, 0.49] and 0.1 <= mu_im <= 2.5,
    the relative error is at most 1e-10 where Kummer serves (8.6e-11 at
    mu_im = 0.1, |zeta| + Re zeta = 12.9, 3.9e-11 from mu_im = 0.2 on; it
    grows with |zeta| + Re zeta and as mu_im falls) and 7.1e-14 where the
    integral serves, up to |zeta| = 400.

    The integral needs 1e-100 <= |zeta| < 80 * 2^20 (its panels) and
    raises DomainError outside.  An order that is not finite, or above 1e4
    (a resource bound: the ladder keeps one level per unit of kappa - 1/2),
    raises DomainError before any ladder is built, and so does a W past
    the double range, where it would be inf or NaN: from kappa ~ 172 on at
    zeta = 1, and near the cut from |zeta| ~ 1420 on, where e^(-zeta/2)
    outgrows it.
    """
    zeta = complex(zeta)
    if zeta == 0 or (zeta.imag == 0.0 and zeta.real < 0.0):
        raise DomainError(f"W is evaluated on the plane cut along (-inf,0], got {zeta}")
    orders = np.asarray(kappa, dtype=float)
    ks = orders.ravel().tolist()
    if not all(-math.inf < k <= _KAPPA_MAX for k in ks):
        raise DomainError(f"W needs finite orders kappa <= {_KAPPA_MAX:g}, got {kappa}")
    ladders = []
    for k in ks:
        levels = []
        while k >= 0.5 - 1e-13:
            levels.append(k)
            k -= 1.0
        ladders.append((levels, (levels[-1] - 2.0, levels[-1] - 1.0) if levels else (k,)))
    bases = list(dict.fromkeys(k for _, ends in ladders for k in ends))
    values = []
    # a base or a level past the double range leaves every level above it
    # inf or NaN, so only the top one is checked; at real zeta the
    # coefficients are real, so the ladder adds no imaginary part to what
    # its bases carry
    with np.errstate(over="ignore", invalid="ignore"):
        near_cut = (abs(cmath.phase(zeta)) > _ARG_SPLIT and abs(zeta) < _KUMMER_MAX
                    and abs(zeta) + zeta.real < _KUMMER_LOSS)
        base = {k: _w_kummer(k, mu_im, zeta) for k in bases} if near_cut else {}
        rest = [k for k in bases if base.get(k) is None]
        if rest:
            base.update(zip(rest, _w_integral(rest, mu_im, zeta)))
        for k, (levels, ends) in zip(ks, ladders):
            lo, hi = base[ends[0]], base[ends[-1]]
            for level in reversed(levels):
                c1, c2 = zeta - 2.0 * level + 2.0, (1.5 - level) ** 2 + mu_im ** 2
                lo, hi = hi, c1 * hi - c2 * lo
            if not cmath.isfinite(hi):
                raise DomainError(f"W at kappa = {k}, mu = {mu_im}i, zeta = {zeta} "
                                  f"is past the double range")
            values.append(hi)
    return np.array(values).reshape(orders.shape)[()]


def whittaker_w(kappa, mu_im: float, x: float):
    """W_{kappa, i mu_im}(x) for x > 0; real for these indices.

    `kappa` may be a sequence of orders, giving an array (see
    `whittaker_w_complex`).  Relative error, against 30-digit mpmath over
    3 000 draws with x in [0.05, 60] and |kappa| <= 2: <= 2e-13 for
    |mu_im| <= 1.2 (8.4e-14 measured) and <= 1e-10 for |mu_im| <= 3
    (5.0e-11, at x < 0.1, where W oscillates like x^(1/2 +- i mu_im)).
    At the orders of the continuum kernel (kappa = +-Re z + 1/2 and
    kappa - 1) for the benchmark's z it is <= 8.5e-15 on x in [0.05, 40].
    Next to a zero of W the relative error grows as |W| vanishes, while the
    absolute error stays at rounding level (4.7e-16, 2.4e-10 relative, at
    kappa = -0.0957, mu_im = 2.961, x = 0.07685).  Raises ConvergenceError
    if the internal quadrature misses its tolerance or leaves a base value
    (kappa < 1/2) with an imaginary residue above 1e-10 times the moduli
    that base summed, a test that holds next to a zero of W too; the
    ladder above the bases has real coefficients, so it cannot add one.
    """
    if not x > 0.0:
        raise DomainError(f"whittaker_w needs x > 0, got x={x}")
    return np.real(whittaker_w_complex(kappa, float(mu_im), x))
