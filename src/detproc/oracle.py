"""Brute-force ground truth for every kernel: finite windows, dense solves.

A kernel restricted to a finite window becomes an ordinary matrix; the
resolvent identities K = L(1+L)^(-1) and K^ = L(L-1)^(-1), the Fredholm
determinant det(1+L), ensemble probabilities and correlation minors are all
evaluated by LU with partial pivoting.  Windows come in two kinds:

* lattice  -- the symmetric block {-M+1/2, ..., M-1/2} of Z'; truncation
  error is controlled by the factorial decay of the L entries.
* quadrature -- Gauss-Legendre nodes on [-R,-eps] u [eps,R] with panels
  graded geometrically toward 0; entries are pre/post-scaled by sqrt(weight)
  so that matrix algebra represents operator algebra (Nystrom).

On a quadrature window `NystromResolvent` evaluates K off the nodes.  It
works on arrays: the kernel's integrable data on the nodes is computed
once, each row L(x, t_i) and column L(t_i, y) is one numpy expression over
it, and each new column y costs one dense solve, checked by its backward
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import SingularOperatorError, WindowError
from .kernels import LATTICE, REAL_LINE, AssembledKernel, IntegrableKernel

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
    "max_abs_diff",
    "LATTICE_MARGIN",
    "NystromResolvent",
]

_RESIDUAL_TOL = 1e-12
LATTICE_MARGIN = 5


@dataclass(frozen=True)
class Window:
    """A finite evaluation window: ordered points plus quadrature weights."""

    kind: str                      # 'lattice', 'quadrature', or 'finite'
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
    """The symmetric lattice block {-M+1/2, ..., M-1/2}, ascending."""
    if m < 1:
        raise WindowError(f"window radius must be >= 1, got {m}")
    pts = np.array([k + 0.5 for k in range(-m, m)])
    return Window(LATTICE, pts)


def quadrature_window(r: float = 40.0, eps: float = 1e-4,
                      nodes_per_panel: int = 16) -> Window:
    """Gauss-Legendre discretization of [-R,-eps] u [eps,R].

    Panels double geometrically away from 0 (the integrable |x|^(-Re z)
    endpoint growth of the Whittaker-side kernels needs the grading);
    `nodes_per_panel` is the refinement knob for convergence studies.
    """
    if not 0.0 < eps < r:
        raise WindowError(f"need 0 < eps < R, got eps={eps}, R={r}")
    edges = [eps]
    while edges[-1] < r:
        edges.append(min(2.0 * edges[-1], r))
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_panel)
    pos_pts, pos_wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pos_pts.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        pos_wts.append(0.5 * (hi - lo) * wg)
    pos_pts = np.concatenate(pos_pts)
    pos_wts = np.concatenate(pos_wts)
    pts = np.concatenate([-pos_pts[::-1], pos_pts])
    wts = np.concatenate([pos_wts[::-1], pos_wts])
    return Window("quadrature", pts, wts)


@dataclass(frozen=True)
class WindowedOperator:
    """Dense matrix of a kernel on a window; entries[i][j] ~ k(x_i, x_j)."""

    window: Window
    entries: np.ndarray

    @classmethod
    def from_matrix(cls, points: Sequence[float], entries: np.ndarray,
                    kind: str = "finite") -> "WindowedOperator":
        pts = np.asarray(points, dtype=float)
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (pts.size, pts.size):
            raise WindowError("entry matrix must be square over the points")
        return cls(Window(kind, pts), entries)

    @property
    def size(self) -> int:
        return self.window.size

    def value_at(self, x: float, y: float) -> float:
        """Kernel value at window points (undoing the sqrt-weight scaling)."""
        i, j = self.window.index_of(x), self.window.index_of(y)
        v = self.entries[i, j]
        if self.window.weights is not None:
            v /= np.sqrt(self.window.weights[i] * self.window.weights[j])
        return float(v)


def materialize(kernel, window: Window, fg: Optional[tuple] = None) -> WindowedOperator:
    """Evaluate a kernel on a window; sqrt-weight scaling for quadrature.

    `fg` is the kernel's `fg_arrays(window.points)`, when the caller has
    them already.
    """
    domain = getattr(kernel, "domain", None)
    if window.kind == LATTICE and domain != LATTICE:
        raise WindowError(f"kernel domain {domain!r} does not fit a lattice window")
    if window.kind == "quadrature" and domain != REAL_LINE:
        raise WindowError(f"kernel domain {domain!r} does not fit a quadrature window")
    if isinstance(kernel, (IntegrableKernel, AssembledKernel)):
        mat = kernel.matrix(window.points, fg)
    else:
        pts = window.points
        mat = np.array([[kernel(float(x), float(y)) for y in pts] for x in pts])
    if window.weights is not None:
        s = np.sqrt(window.weights)
        mat *= s[:, None]
        mat *= s
    return WindowedOperator(window, mat)


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as err:
        raise SingularOperatorError(f"{what}: {err}") from err
    if not np.all(np.isfinite(x)):
        raise SingularOperatorError(f"{what}: non-finite solution")
    return x


def k_from_l(l_op: WindowedOperator) -> WindowedOperator:
    """K = L(1+L)^(-1), solving (1+L)K = L by LU with partial pivoting."""
    ln = l_op.entries
    a = np.eye(ln.shape[0]) + ln
    k = _solve(a, ln, "1+L is singular")
    scale = max(np.max(np.abs(ln)), 1e-300)
    resid = np.max(np.abs(a @ k - ln))
    if resid > _RESIDUAL_TOL * scale:
        raise SingularOperatorError(
            f"(1+L)K = L residual {resid:.3e} exceeds {_RESIDUAL_TOL:.0e}*|L|; "
            f"condition estimate {np.linalg.cond(a):.3e}"
        )
    return WindowedOperator(l_op.window, k)


def khat_from_l(l_op: WindowedOperator) -> WindowedOperator:
    """K^ = L(L-1)^(-1), solving (L-1)K^ = L."""
    ln = l_op.entries
    a = ln - np.eye(ln.shape[0])
    khat = _solve(a, ln, "L-1 is singular")
    scale = max(np.max(np.abs(ln)), 1e-300)
    resid = np.max(np.abs(a @ khat - ln))
    if resid > _RESIDUAL_TOL * scale:
        raise SingularOperatorError(
            f"(L-1)K = L residual {resid:.3e}; condition {np.linalg.cond(a):.3e}"
        )
    return WindowedOperator(l_op.window, khat)


def fredholm_det(l_op: WindowedOperator) -> float:
    """det(1 + L) on the window (the L-ensemble normalizing constant)."""
    sign, logdet = np.linalg.slogdet(np.eye(l_op.size) + l_op.entries)
    return float(sign * np.exp(logdet))


def _minor(op: WindowedOperator, points) -> np.ndarray:
    idx = [op.window.index_of(_as_point(p)) for p in points]
    return op.entries[np.ix_(idx, idx)]


def _as_point(p) -> float:
    # configurations carry half-integers as doubled ints; accept both
    if isinstance(p, (int, np.integer)):
        return p / 2.0
    return float(p)


def prob_of_configuration(l_op: WindowedOperator, subset) -> float:
    """L-ensemble probability of exactly this configuration.

    Points may be doubled integers (2x, the configuration convention) or
    the half-integers themselves.
    """
    pts = list(subset)
    det_minor = 1.0 if not pts else float(np.linalg.det(_minor(l_op, pts)))
    return det_minor / fredholm_det(l_op)


def correlation_from_k(k_op: WindowedOperator, points) -> float:
    """rho_n = det of the indicated minor of the correlation kernel."""
    pts = list(points)
    if not pts:
        return 1.0
    return float(np.linalg.det(_minor(k_op, pts)))


def max_abs_diff(kernel, op: WindowedOperator, sub_points) -> float:
    """max |kernel(x,y) - op(x,y)| over a sub-window strictly inside op's.

    The margin requirement (>= 5 lattice steps, or 5 absolute units for
    quadrature windows) keeps the window-truncation error of `op` below the
    comparison tolerance.
    """
    pts = [_as_point(p) for p in sub_points]
    lo, hi = float(np.min(op.window.points)), float(np.max(op.window.points))
    margin = LATTICE_MARGIN
    for p in pts:
        if p - lo < margin or hi - p < margin:
            raise WindowError(
                f"sub-window point {p} is within {margin} of the window edge"
            )
    worst = 0.0
    for x in pts:
        for y in pts:
            worst = max(worst, abs(kernel(x, y) - op.value_at(x, y)))
    return worst


def _quotient(num: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """num / dx, with the integrable kernels' value 0 where dx == 0."""
    return np.divide(num, dx, out=np.zeros_like(num), where=dx != 0.0)


class NystromResolvent:
    """Resolvent K = L(1+L)^(-1) of a continuous kernel, with off-node values.

    `k_at` extends the node solution to arbitrary points through the
    Nystrom identity K(x,y) = L(x,y) - sum_i w_i L(x,t_i) K(t_i,y).  The
    node values K(t_i, y) of each new y cost one dense solve of the scaled
    system (1 + L~) plus its backward-error residual check; they are kept
    per y.  The integrable data f1, f2, g1, g2 on the nodes is evaluated
    once, at build time, and every column L(t_i, y) and row L(x, t_i) is
    one array expression over it.
    """

    def __init__(self, kernel: IntegrableKernel, window: Window):
        if window.weights is None:
            raise WindowError("NystromResolvent needs a quadrature window")
        self.kernel = kernel
        self.window = window
        self._fg = kernel.fg_arrays(window.points)
        self.l_op = materialize(kernel, window, fg=self._fg)
        self._a = self.l_op.entries.copy()
        self._a[np.diag_indices(window.size)] += 1.0
        self._a_norm = float(np.max(np.sum(np.abs(self._a), axis=1)))
        self._sqrtw = np.sqrt(window.weights)
        self._columns: dict = {}

    def column(self, y: float) -> np.ndarray:
        """L(t_i, y) at every node t_i."""
        f1, f2, _, _ = self._fg
        num = f1 * self.kernel.g1(y) + f2 * self.kernel.g2(y)
        return _quotient(num, self.window.points - y)

    def row(self, x: float) -> np.ndarray:
        """L(x, t_i) at every node t_i."""
        _, _, g1, g2 = self._fg
        num = self.kernel.f1(x) * g1 + self.kernel.f2(x) * g2
        return _quotient(num, x - self.window.points)

    def _k_column(self, y: float) -> np.ndarray:
        # scaled node values sqrt(w_i) K(t_i, y), solved once per y
        if y not in self._columns:
            b = self._sqrtw * self.column(y)
            v = _solve(self._a, b, "1+L is singular")
            resid = np.max(np.abs(self._a @ v - b))
            bound = _RESIDUAL_TOL * (self._a_norm * np.max(np.abs(v)) + np.max(np.abs(b)))
            if not resid <= bound:
                raise SingularOperatorError(
                    f"(1+L)v = L(., {y}) residual {resid:.3e} exceeds "
                    f"{_RESIDUAL_TOL:.0e}*(|1+L||v| + |L|); "
                    f"condition estimate {np.linalg.cond(self._a):.3e}"
                )
            self._columns[y] = v
        return self._columns[y]

    def k_at(self, x: float, y: float) -> float:
        x, y = float(x), float(y)
        v = self._k_column(y)
        return float(self.kernel(x, y) - np.sum(self._sqrtw * self.row(x) * v))

    def fredholm_det(self) -> float:
        return fredholm_det(self.l_op)
