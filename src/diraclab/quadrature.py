"""Radial and spherical quadrature rules used by the analytic probes.

The integrands here are smooth with algebraic (power-law) radial decay, so the
layout is Gauss-Legendre panels on a geometrically graded radial mesh paired
with a product rule on the sphere (Gauss-Legendre in cos(theta), uniform in
phi, which integrates spherical polynomials of matching degree exactly).
Summation order is fixed so results do not depend on evaluation scheduling.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

ArrayR = NDArray[np.float64]

__all__ = [
    "radial_panels",
    "simpson",
    "sphere_product_rule",
    "sphere_directions_26",
]


def simpson(y: ArrayR, x: ArrayR) -> float:
    """Composite Simpson's rule for samples y at distinct increasing nodes x.

    A port of scipy.integrate.simpson(y, x=x) for 1-D data, with the same
    operations in the same order, so the result is bit-identical to scipy's
    (1.11 and later): Simpson's rule for irregular spacing over pairs of
    intervals and, for an even node count, Cartwright's correction for the
    last interval. Kept here so that the package does not import
    scipy.integrate, which loads scipy.optimize, scipy.sparse and
    scipy.spatial with it (about 16 MB).
    """
    y, x = np.asarray(y, dtype=np.float64), np.asarray(x, dtype=np.float64)
    if y.ndim != 1 or y.shape != x.shape or len(y) < 3:
        raise ValueError("need 1-D y and x of equal length >= 3")
    N, h = len(y), np.diff(x)
    stop = N - 2 if N % 2 else N - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if N % 2 == 0:
        # 1-element arrays, as in scipy: numpy's scalar power can round the
        # cube differently in the last bit
        g0, g1 = h[-2:-1], h[-1:]
        alpha = (2 * g1**2 + 3 * g0 * g1) / (6 * (g1 + g0))
        beta = (g1**2 + 3.0 * g0 * g1) / (6 * g0)
        eta = (1 * g1**3) / (6 * g0 * (g0 + g1))
        result += (alpha * y[-1] + beta * y[-2] - eta * y[-3])[0]
    return float(result)


def radial_panels(
    r_min: float, r_max: float, panels: int, nodes_per_panel: int
) -> tuple[ArrayR, ArrayR]:
    """Gauss-Legendre nodes/weights on [r_min, r_max], geometrically graded.

    Panel edges grow geometrically from r_min > 0, so a fixed node budget
    resolves both the O(1) core and the power-law tail. Returns (r, w) with
    sum(w * f(r)) ~ integral f dr. diraclab.modes passes its module
    constants as the sizes.
    """
    if not (r_max > r_min > 0.0):
        raise ValueError("need 0 < r_min < r_max")
    if panels < 1 or nodes_per_panel < 2:
        raise ValueError("need at least one panel and two nodes per panel")
    edges = np.geomspace(r_min, r_max, panels + 1)
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    rs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        rs.append(0.5 * (a + b) + half * x)
        ws.append(half * w)
    return np.concatenate(rs), np.concatenate(ws)


def sphere_product_rule(n_theta: int, n_phi: int) -> tuple[ArrayR, ArrayR]:
    """Product quadrature on the unit sphere.

    Returns (points, weights): points of shape (n_theta*n_phi, 3), weights
    summing to 4*pi. Gauss-Legendre in cos(theta) times a uniform (trapezoid,
    exact for trigonometric polynomials) rule in phi. diraclab.modes passes
    its module constants as the sizes.
    """
    if n_theta < 2 or n_phi < 4:
        raise ValueError("sphere rule too coarse")
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    st = np.sqrt(1.0 - ct**2)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wp = 2.0 * np.pi / n_phi
    pts = np.empty((n_theta * n_phi, 3))
    wgt = np.empty(n_theta * n_phi)
    for i in range(n_theta):
        s = slice(i * n_phi, (i + 1) * n_phi)
        pts[s, 0] = st[i] * np.cos(phi)
        pts[s, 1] = st[i] * np.sin(phi)
        pts[s, 2] = ct[i]
        wgt[s] = wt[i] * wp
    return pts, wgt


def sphere_directions_26() -> ArrayR:
    """The 26 lattice directions: axes, face diagonals and body diagonals.

    A standard direction census for uniform-in-omega checks; not a quadrature
    rule (no weights attached).
    """
    dirs = []
    for ix in (-1, 0, 1):
        for iy in (-1, 0, 1):
            for iz in (-1, 0, 1):
                if ix == iy == iz == 0:
                    continue
                v = np.array([ix, iy, iz], dtype=float)
                dirs.append(v / np.linalg.norm(v))
    return np.array(dirs)
