"""Dirichlet and interpolation kernels, compact and direct forms.

Every kernel with a closed form also has a ``*_direct`` companion that sums
exponentials over the defining index set in fixed lexicographic order.  The
compact forms are production code only for the ``kernel`` CLI command;
interpolation, the Lebesgue scans and Fourier coefficients work on
coefficient boxes, FFTs of node or cell samples and the node group
(``interpolation``, ``transforms``), and the compact and direct forms are
their oracles.  All kernels accept arrays of points of shape (..., 4) and
broadcast.

Singularity policy: the compact forms are built from ratios
sin(m*pi*x)/sin(pi*x) whose denominators vanish at integer x, which node
arguments hit constantly.  The ratio is evaluated after reducing x by its
nearest integer a, sin(m*pi*x)/sin(pi*x) = (-1)^(a(m-1)) sin(m*pi*d)/sin(pi*d)
with d = x - a, and the analytic limit m is substituted where
|sin(pi*d)| < 1e-8.  The reduction loses no accuracy near large integers,
where the naive form does.
"""

from __future__ import annotations

import operator

import numpy as np

from .indexsets import _degree, class_sizes, generate_Hn, generate_Hn_star, strata
from .lattice import _PAIRS

SING_TOL = 1e-8


def sine_ratio(m: int, x) -> np.ndarray:
    """sin(m*pi*x)/sin(pi*x) with the removable singularities filled in."""
    x = np.asarray(x, dtype=float)
    a = np.round(x)
    d = x - a
    sgn = np.where((a.astype(np.int64) * (m - 1)) % 2 == 0, 1.0, -1.0)
    s = np.sin(np.pi * d)
    singular = np.abs(s) < SING_TOL
    num = np.sin(m * np.pi * d)
    ratio = np.where(singular, float(m), num / np.where(singular, 1.0, s))
    return sgn * ratio


def K_n(n: int, t) -> np.ndarray:
    """Geometric kernel sum_{j=0}^{n} exp(2*pi*i*j*t) in product form, integer n."""
    t = np.asarray(t, dtype=float)
    return np.exp(1j * np.pi * n * t) * sine_ratio(operator.index(n) + 1, t)


def theta_n(n: int, t) -> np.ndarray:
    """Product of the four coordinate sine ratios, integer n; theta_0 vanishes."""
    t = np.asarray(t, dtype=float)
    return np.prod(sine_ratio(operator.index(n), t), axis=-1)


def dirichlet(n: int, t) -> np.ndarray:
    """Dirichlet kernel of the star set in compact form, theta_{n+1} - theta_n."""
    return theta_n(n + 1, t) - theta_n(n, t)


def dirichlet_product(n: int, t) -> np.ndarray:
    """Dirichlet kernel as prod K_n(t_j) - prod (K_n(t_j) - 1)."""
    t = np.asarray(t, dtype=float)
    kt = K_n(n, t)
    return np.prod(kt, axis=-1) - np.prod(kt - 1.0, axis=-1)


def _expsum(kk: np.ndarray, t) -> np.ndarray:
    """phi_k(t) = exp(i pi k.t / 2) for points t (rows) and frequencies kk
    (columns); the one exponential matrix of every direct sum."""
    return np.exp(0.5j * np.pi * (np.asarray(t, dtype=float) @ kk.astype(float).T))


def dirichlet_direct(n: int, t) -> np.ndarray:
    """Oracle: explicit exponential sum over the star frequency set."""
    return _expsum(generate_Hn_star(n), t).sum(axis=-1)


def phi_n_fund(n: int, t) -> np.ndarray:
    """Fundamental interpolation kernel of the half-open node set.

    Mean of the 4n^3 exponentials; there is no shorter closed form.  The
    ``in`` interpolant is tested against sums of this kernel.
    """
    return _expsum(generate_Hn(n), t).sum(axis=-1) / (4 * n**3)


def edge_sum(n: int, t) -> np.ndarray:
    """Exponential sum over the two edge strata of the star set, compact form.

    Equals sum of phi_k over the nodes with (|I|, |J|) in {(1,2), (2,1)}:
    2 * sum_nu sine_ratio(n-1, t_nu) * sum_{j != nu} cos(n*pi*(2 t_j + t_nu)).
    """
    t = np.asarray(t, dtype=float)
    total = 0.0
    for nu in range(4):
        sr = sine_ratio(n - 1, t[..., nu])
        inner = 0.0
        for j in range(4):
            if j != nu:
                inner = inner + np.cos(n * np.pi * (2.0 * t[..., j] + t[..., nu]))
        total = total + sr * inner
    return 2.0 * total


def edge_sum_direct(n: int, t) -> np.ndarray:
    """Oracle for edge_sum: sum exponentials over the two edge strata."""
    kk = generate_Hn_star(n)
    # |I| + |J| = 3 exactly on the (1, 2) and (2, 1) strata
    return _expsum(kk[strata(kk, n).sum(axis=1) == 3], t).sum(axis=-1)


def phi_n_star(n: int, t) -> np.ndarray:
    """Fundamental kernel of the symmetric node set, compact real form.

    (1/4n^3) [ (D_n + D_{n-1})/2 - edge_sum/6 - (1/2) sum_j cos(2 pi n t_j)
               - (1/3) sum_{mu<nu} cos(2 pi n (t_mu + t_nu)) ].
    """
    n = _degree(n)
    t = np.asarray(t, dtype=float)
    body = 0.5 * (dirichlet(n, t) + dirichlet(n - 1, t))
    body = body - edge_sum(n, t) / 6.0
    c2 = np.cos(2.0 * np.pi * n * t).sum(axis=-1)
    c3 = np.cos(2.0 * np.pi * n * (t[..., _PAIRS[0]] + t[..., _PAIRS[1]])).sum(axis=-1)
    body = body - 0.5 * c2 - c3 / 3.0
    return body / (4 * n**3)


def phi_n_star_direct(n: int, t) -> np.ndarray:
    """Oracle: weighted exponential sum over the star set."""
    kk = generate_Hn_star(n)
    return (_expsum(kk, t) * (1.0 / class_sizes(kk, n))).sum(axis=-1) / (4 * n**3)

