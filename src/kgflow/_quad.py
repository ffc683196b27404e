"""Quadrature helpers: composite Gauss-Legendre panels and the trapezoid rule."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _legval(x, c):
    """Clenshaw sum of the Legendre series c (low degree first, at least 2 terms) at x."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per size.

    numpy's leggauss algorithm, ported so numpy.polynomial is never
    imported: the roots of L_n are the eigenvalues of its symmetric
    companion matrix, refined by one Newton step; the weights are
    proportional to 1 / (L_n'(x) L_{n-1}(x)).  Both are then symmetrized
    and the weights scaled to sum to 2.  The results are bitwise those
    of leggauss.
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    k = np.arange(nodes)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    companion = np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(companion)
    c = np.zeros(nodes + 1)  # L_n
    c[-1] = 1.0
    # L_n' = sum of (2k + 1) L_k over k = n - 1, n - 3, ...
    dc = np.where((nodes - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0)
    df = _legval(x, dc)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])  # L_{n-1}
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _alternating_weights(terms: int):
    """Read-only weights c_k with sum c_k a_k ~ sum (-1)^k a_k, computed once per size.

    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier (Experimental Math. 9, 3, 2000);
    relative error below 2 (3 + sqrt 8)^-terms for a_k the moments of a measure >= 0 on [0, 1].
    """
    d = (3.0 + np.sqrt(8.0)) ** terms
    d = 0.5 * (d + 1.0 / d)
    b, c, weights = -1.0, -d, np.empty(terms)
    for k in range(terms):
        c = b - c
        weights[k] = c / d
        b *= (k + terms) * (k - terms) / ((k + 0.5) * (k + 1.0))
    weights.setflags(write=False)
    return weights


def gauss_panels(lo, hi, panels: int, nodes_per_panel: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    Returns (x, w) with x strictly increasing and all w > 0.  Array
    endpoints give one rule per interval, along the last axis.
    """
    if not np.all(hi > lo):
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if panels < 1 or nodes_per_panel < 2:
        raise ValueError("need at least 1 panel and 2 nodes per panel")
    edges = np.linspace(lo, hi, panels + 1, axis=-1)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    x, w = panel_rule(edges, nodes_per_panel)
    shape = edges.shape[:-1] + (-1,)
    return x.reshape(shape), w.reshape(shape)


def panel_rule(edges, nodes_per_panel: int):
    """Gauss-Legendre nodes and weights, shape (..., panels, nodes), between consecutive edges."""
    base_x, base_w = _legendre_rule(nodes_per_panel)
    half = 0.5 * np.diff(edges)[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    return mid + half * base_x, half * base_w


def trapezoid_weights(n: int, h: float):
    """Weights of the n-point trapezoid rule at spacing h: h inside, h / 2 at both ends."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w
