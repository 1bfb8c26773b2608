"""Determinantal point process kernels and their numerical certification.

Subpackages by role:

* `special`    -- gamma family, Bessel J (with order derivative), Whittaker W
* `partitions` -- Young diagrams, Frobenius coordinates, Plancherel weights
* `kernels`    -- the L-kernels and correlation kernels in integrable form
* `oracle`     -- dense finite-window ground truth (resolvents, Fredholm det)
* `drhp`       -- residue/jump/ODE certification of the closed forms
* `sampler`    -- seeded RSK Monte Carlo and empirical correlations
* `cli`        -- CSV-emitting command-line front end
"""

from . import drhp, errors, kernels, oracle, partitions, sampler, special
from .kernels import (
    discrete_bessel_k,
    discrete_bessel_khat,
    plancherel_l,
    scaled_whittaker_l,
    whittaker_kernel_k,
    zw_l,
)
from .oracle import (
    fredholm_det,
    k_from_l,
    khat_from_l,
    lattice_window,
    materialize,
    quadrature_window,
)
from .partitions import YoungDiagram, fr_config, frobenius, plancherel_weight
from .sampler import SeededGenerator, empirical_correlation, sample_poissonized

__version__ = "0.1.0"

__all__ = [
    "drhp", "errors", "kernels", "oracle", "partitions", "sampler", "special",
    "discrete_bessel_k", "discrete_bessel_khat", "plancherel_l",
    "scaled_whittaker_l", "whittaker_kernel_k", "zw_l", "fredholm_det",
    "k_from_l", "khat_from_l", "lattice_window", "materialize",
    "quadrature_window", "YoungDiagram", "fr_config", "frobenius",
    "plancherel_weight", "SeededGenerator", "empirical_correlation",
    "sample_poissonized",
]
