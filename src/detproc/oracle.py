"""Brute-force ground truth for every kernel: finite windows, dense solves.

A kernel restricted to a finite window becomes an ordinary matrix; the
resolvent identities K = L(1+L)^(-1) and K^ = L(L-1)^(-1), the Fredholm
determinant det(1+L), ensemble probabilities and correlation minors are all
evaluated by LU with partial pivoting, each solve and factorization of
1 + L once per operator.  Windows come in two kinds:

* lattice  -- the symmetric block {-M+1/2, ..., M-1/2} of Z'; truncation
  error is controlled by the factorial decay of the L entries.
* real-line -- the trapezoid rule in s on x = +-e^s over [-R,-eps] u
  [eps,R]; entries are pre/post-scaled by sqrt(weight) so that matrix
  algebra represents operator algebra (Nystrom).

A window takes the kernels whose domain is its kind ('finite': any), by
their array-valued `matrix` (one `fg` call for the whole window).  K
comes from one solve per operator; K^ (K at -L) is D K D, D = diag(sgn x),
for a two-sided L, and a solve at -L otherwise.  On a real-line window
`NystromResolvent` evaluates K off the nodes without a dense solve.  An
`IntegrableKernel` vanishes for xy > 0 and is antisymmetric by type, so
1 + L~ = [[I, B], [-B^T, I]] with B the negative-by-positive block; each
new column y costs one solve of the half-size SPD Schur complement
I + B B^T, checked by the backward error of the full system.  It agrees
with the dense solve to ~1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ParameterError, SingularOperatorError, WindowError
from .kernels import LATTICE, REAL_LINE, IntegrableKernel, _quotient
from .partitions import half

__all__ = [
    "Window",
    "WindowedOperator",
    "lattice_window",
    "quadrature_window",
    "materialize",
    "k_from_l",
    "khat_from_l",
    "fredholm_det",
    "prob_of_configuration",
    "correlation_from_k",
    "LATTICE_MARGIN",
    "NystromResolvent",
]

_RESIDUAL_TOL = 1e-12
_LOG_MAX = math.log(np.finfo(float).max)     # e^x overflows beyond it
# lattice steps between a compared block and the window edge, where the
# truncation error of the window is below the comparison tolerance
LATTICE_MARGIN = 5
# points per window, so that one dense n x n matrix stays <= 512 MiB
_MAX_POINTS = 8192


@dataclass(frozen=True)
class Window:
    """A finite evaluation window: ordered points plus quadrature weights."""

    kind: str                      # a kernel domain, or 'finite' for any
    points: np.ndarray
    weights: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.points.size

    def index_of(self, point: float) -> int:
        """Position of a window point (the first, if it repeats)."""
        i = self._index.get(float(point))
        if i is None:
            raise WindowError(f"point {point} is not in the window")
        return i

    @cached_property
    def _index(self) -> dict:
        index = {}
        for i, x in enumerate(self.points.tolist()):
            index.setdefault(x, i)
        return index


def lattice_window(m: int) -> Window:
    """The symmetric lattice block {-M+1/2, ..., M-1/2}, ascending; WindowError
    unless M is an integer in [1, 4096]."""
    if m < 1:
        raise WindowError(f"window radius must be >= 1, got {m}")
    if 2 * m > _MAX_POINTS:
        raise WindowError(f"window radius must be <= {_MAX_POINTS // 2}, got {m}")
    if not float(m).is_integer():
        raise WindowError(f"window radius must be an integer, got {m}")
    pts = np.array([k + 0.5 for k in range(-int(m), int(m))])
    return Window(LATTICE, pts)


def quadrature_window(r: float = math.exp(4.5), eps: float = math.exp(-45.0),
                      h: float = 0.35) -> Window:
    """Exponential trapezoid rule on [-R,-eps] u [eps,R].

    The nodes are +-e^s on s = log eps, log eps + h, ... <= log R, with
    weights h e^s (x = +-e^s maps each half-line onto the s-line).  The
    Whittaker-side data decays like |x|^(+-Re z) e^(-|x|/2) at infinity
    and follows a power law at 0, so in s the integrands are analytic and
    decay at both ends, and the rule converges exponentially in 1/h
    (Bornemann, Math. Comp. 79, 2010; Trefethen-Weideman, SIAM Rev. 56,
    2014).  The defaults (eps = e^-45 ~ 3e-20, R = e^4.5 ~ 90, h = 0.35)
    give 284 nodes; `h` is the refinement knob for convergence studies.
    A rule of more than 8192 nodes raises WindowError before it is built.
    """
    if not 0.0 < eps < r < math.inf:
        raise WindowError(f"need 0 < eps < R < inf, got eps={eps}, R={r}")
    if not 0.0 < h < math.inf:
        raise WindowError(f"need a finite step h > 0, got h={h}")
    s_lo = math.log(eps)
    steps = (math.log(r) - s_lo) / h
    if not steps < _MAX_POINTS // 2:
        raise WindowError(f"h={h} on [eps, R] gives more than {_MAX_POINTS} nodes")
    pos = np.exp(s_lo + h * np.arange(math.floor(steps) + 1))
    pts = np.concatenate([-pos[::-1], pos])
    return Window(REAL_LINE, pts, h * np.abs(pts))


@dataclass(frozen=True)
class WindowedOperator:
    """Dense matrix of a kernel on a window; entries[i][j] ~ k(x_i, x_j).

    Taken as L, an operator solves (1 + L)K = L and factors 1 + L for
    det(1 + L) at most once each, on first use: `k_from_l` hands every
    caller the same K operator, `khat_from_l` of a two-sided L conjugates
    that K by signs, and `fredholm_det` and every `prob_of_configuration`
    share one det(1 + L).  So an operator is read-only: no caller writes to
    its entries or to the shared K, whose entries (like those `materialize`
    makes) are flagged read-only.
    """

    window: Window
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.window.size

    @cached_property
    def _k(self) -> "WindowedOperator":
        k = _resolvent(self.window, self.entries)
        k.entries.flags.writeable = False
        return k

    @cached_property
    def _det_one_plus(self) -> float:
        return _det(np.eye(self.size) + self.entries)

    def value_at(self, x: float, y: float) -> float:
        """Kernel value at window points (undoing the sqrt-weight scaling)."""
        i, j = self.window.index_of(x), self.window.index_of(y)
        v = self.entries[i, j]
        if self.window.weights is not None:
            v /= np.sqrt(self.window.weights[i] * self.window.weights[j])
        return float(v)


def _check_domain(kernel, window: Window) -> None:
    if window.kind not in ("finite", kernel.domain):
        raise WindowError(f"kernel domain {kernel.domain!r} does not fit a "
                          f"{window.kind} window")


def materialize(kernel, window: Window) -> WindowedOperator:
    """Evaluate a kernel on a window; sqrt-weight scaling for quadrature."""
    _check_domain(kernel, window)
    mat = kernel.matrix(window.points)
    if window.weights is not None:
        s = np.sqrt(window.weights)
        mat *= s[:, None]
        mat *= s
    mat.flags.writeable = False
    return WindowedOperator(window, mat)


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as err:
        raise SingularOperatorError(f"{what}: {err}") from err
    if not np.all(np.isfinite(x)):
        raise SingularOperatorError(f"{what}: non-finite solution")
    return x


def _resolvent(window: Window, ln: np.ndarray) -> WindowedOperator:
    """Solve (1+L)K = L by LU with partial pivoting; check the residual."""
    a = ln + np.eye(ln.shape[0])
    k = _solve(a, ln, "1+L is singular")
    scale = max(np.max(np.abs(ln)), 1e-300)
    resid = np.max(np.abs(a @ k - ln))
    if resid > _RESIDUAL_TOL * scale:
        raise SingularOperatorError(
            f"(1+L)K = L residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e}*|L|; "
            f"condition estimate {np.linalg.cond(a):.3e}"
        )
    return WindowedOperator(window, k)


def k_from_l(l_op: WindowedOperator) -> WindowedOperator:
    """K = L(1+L)^(-1), solved once per operator and shared."""
    return l_op._k


def khat_from_l(l_op: WindowedOperator) -> WindowedOperator:
    """K^ = L(L-1)^(-1), which is K = L(1+L)^(-1) taken at -L.

    Where L vanishes on same-sign pairs of a window without 0, as a
    two-sided L-kernel does, -L = D L D for D = diag(sgn x), so K^ is
    D K D, the shared K times sgn(x) sgn(y).  It is the solve at -L bit for
    bit: partial pivoting picks the same pivots in 1 - L = D(1 + L)D, and
    every rounding is the same up to sign.  Any other L is solved at -L.
    """
    d = np.sign(l_op.window.points)
    sign = np.outer(d, d)
    if d.all() and not l_op.entries[sign > 0.0].any():
        return WindowedOperator(l_op.window, sign * l_op._k.entries)
    return _resolvent(l_op.window, -l_op.entries)


def _det(a: np.ndarray) -> float:
    """det a by LU; SingularOperatorError where it leaves the double range."""
    sign, logdet = np.linalg.slogdet(a)
    if logdet > _LOG_MAX:
        raise SingularOperatorError(f"determinant e^{logdet:.6g} overflows a double")
    return float(sign * np.exp(logdet))


def fredholm_det(l_op: WindowedOperator) -> float:
    """det(1 + L) on the window (the L-ensemble normalizing constant),
    factored once per operator and shared."""
    return l_op._det_one_plus


def _minor(op: WindowedOperator, points) -> np.ndarray:
    """The entries at doubled integers 2x: 0 x 0, of determinant 1, at none."""
    idx = np.array([op.window.index_of(half(p)) for p in points], dtype=int)
    return op.entries[np.ix_(idx, idx)]


def prob_of_configuration(l_op: WindowedOperator, subset) -> float:
    """L-ensemble probability of exactly this configuration of doubled
    integers 2x (the convention of `partitions.fr_config`)."""
    return float(np.linalg.det(_minor(l_op, subset))) / fredholm_det(l_op)


def correlation_from_k(k_op: WindowedOperator, points) -> float:
    """rho_n = det of the correlation kernel's minor at doubled integers 2x."""
    return float(np.linalg.det(_minor(k_op, points)))


class NystromResolvent:
    """Resolvent K = L(1+L)^(-1) of a two-sided L-kernel, with off-node values.

    `k_at` extends the node solution to arbitrary points through the
    Nystrom identity K(x,y) = L(x,y) - sum_i w_i L(x,t_i) K(t_i,y).  The
    kernel must be an `IntegrableKernel`, whose type carries the paper's
    two-sided form: L(x,y) = 0 for xy > 0 and L(y,x) = -L(x,y), so the row
    L(x, t_i) is minus the column at x.  Any other kernel raises
    `ParameterError`.  With the nodes split by sign the scaled system is
    1 + L~ = [[I, B], [-B^T, I]], and the build forms only B = L~(negative,
    positive) and the SPD Schur complement S = I + B B^T.  The node values
    of each new y solve S u1 = b1 - B b2, then u2 = b2 + B^T u1; they are
    checked by the backward error of the full system, computed from the
    blocks, and kept per y.  Every eigenvalue of S is >= 1, and cond(S) is
    cond(1 + L~)^2 (1223 at |B| = 35, the largest of the benchmark's three
    z on the default window).  At those z and 64 point pairs, k_at agrees
    with the dense 284-node solve to 3.4e-14 of max(1, |K|).  The
    integrable data on the nodes is evaluated once, by one `fg` call, and
    every column L(t_i, y) is one array expression over it.
    """

    def __init__(self, kernel: IntegrableKernel, window: Window):
        if not isinstance(kernel, IntegrableKernel):
            raise ParameterError(f"NystromResolvent needs a two-sided L-kernel, "
                                 f"got a {type(kernel).__name__}")
        if window.weights is None:
            raise WindowError("NystromResolvent needs a quadrature window")
        _check_domain(kernel, window)
        self.kernel = kernel
        self.window = window
        self._fg = f1, f2, _, _ = kernel.fg(window.points)
        self._neg = window.points < 0.0
        self._pos = ~self._neg
        self._sqrtw = np.sqrt(window.weights)
        t, sf1, sf2 = window.points, self._sqrtw * f1, self._sqrtw * f2
        self._b = np.outer(sf2[self._neg], sf1[self._pos])
        self._b /= np.subtract.outer(t[self._neg], t[self._pos])
        self._s = self._b @ self._b.T
        self._s[np.diag_indices_from(self._s)] += 1.0
        abs_b = np.abs(self._b)
        self._a_norm = 1.0 + max(np.max(np.sum(abs_b, axis=1)),
                                 np.max(np.sum(abs_b, axis=0)))
        self._columns: dict = {}

    def column(self, y: float) -> np.ndarray:
        """L(t_i, y) at every node t_i, 0 at a node equal to y."""
        f1, f2, _, _ = self._fg
        _, _, g1, g2 = self.kernel.fg((y,))
        col = _quotient(f1, f2, g1, g2, self.window.points, y)
        col[self.window.points == y] = 0.0
        return col

    def _k_column(self, y: float) -> np.ndarray:
        # scaled node values sqrt(w_i) K(t_i, y), solved once per y
        if y not in self._columns:
            b = self._sqrtw * self.column(y)
            b1, b2 = b[self._neg], b[self._pos]
            u1 = _solve(self._s, b1 - self._b @ b2, "1+L is singular")
            u2 = b2 + self._b.T @ u1
            resid = max(np.max(np.abs(u1 + self._b @ u2 - b1)),
                        np.max(np.abs(u2 - self._b.T @ u1 - b2)))
            v = np.empty_like(b)
            v[self._neg], v[self._pos] = u1, u2
            bound = _RESIDUAL_TOL * (self._a_norm * np.max(np.abs(v)) + np.max(np.abs(b)))
            if not resid <= bound:
                # (1+L~)^T(1+L~) = diag(S, I + B^T B), so for a square B
                # cond(1+L~) = sqrt(cond S)
                raise SingularOperatorError(
                    f"(1+L)v = L(., {y}) residual {resid:.3e} exceeds "
                    f"{_RESIDUAL_TOL:.0e}*(|1+L||v| + |L|); "
                    f"condition estimate {np.sqrt(np.linalg.cond(self._s)):.3e}"
                )
            self._columns[y] = v
        return self._columns[y]

    def k_at(self, x: float, y: float) -> float:
        """K(x, y) at any two points, the diagonal included.

        For scaled_whittaker_l(z) on the default window, against
        whittaker_kernel_k(z) with |Re z| <= 0.45 and |x|, |y| in
        [0.05, 7]: within 1e-12 max(1, |K|) for 0.05 <= |Im z| <= 1
        (7.2e-14 absolute at the benchmark's z and points), and within
        1e-8 max(1, |K|) for |Im z| <= 2.5.  The quadrature converges
        long before that; what grows with |Im z| is rounding, as |B|
        grows like e^(pi |Im z|) and cond S like its square (5.1e-10 at
        |Im z| = 2.5, where cond S ~ 3e7).
        """
        x, y = float(x), float(y)
        v = self._k_column(y)
        return float(self.kernel(x, y) + np.sum(self._sqrtw * self.column(x) * v))

    def fredholm_det(self) -> float:
        """det(1 + L~) on the nodes, which is det S.

        On the default quadrature window at z = 0.25+0.6i, -0.3+1.2i and
        0.1+0.3i it is within 6.1e-13 relative of the dense `fredholm_det`
        of the same nodes.
        """
        return _det(self._s)
