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
from scipy.special import roots_legendre

ArrayR = NDArray[np.float64]

__all__ = [
    "radial_panels",
    "sphere_product_rule",
    "sphere_directions_26",
]


def radial_panels(
    r_min: float, r_max: float, panels: int, nodes_per_panel: int
) -> tuple[ArrayR, ArrayR]:
    """Gauss-Legendre nodes/weights on [r_min, r_max], geometrically graded.

    Panel edges grow geometrically from r_min (or from a small head panel when
    r_min = 0), so a fixed node budget resolves both the O(1) core and the
    power-law tail. Returns (r, w) with sum(w * f(r)) ~ integral f dr.
    diraclab.modes passes its module constants as the sizes.
    """
    if not (r_max > r_min >= 0.0):
        raise ValueError("need 0 <= r_min < r_max")
    if panels < 1 or nodes_per_panel < 2:
        raise ValueError("need at least one panel and two nodes per panel")
    lo = r_min if r_min > 0.0 else min(1e-3, r_max * 1e-6)
    edges = np.geomspace(lo, r_max, panels + 1)
    edges[0] = r_min
    x, w = roots_legendre(nodes_per_panel)
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
    ct, wt = roots_legendre(n_theta)
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
