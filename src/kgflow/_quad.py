"""Quadrature helpers: composite Gauss-Legendre panels and the trapezoid rule."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per size."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_panels(lo: float, hi: float, panels: int, nodes_per_panel: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    Returns (x, w) with x strictly increasing and all w > 0.
    """
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if panels < 1 or nodes_per_panel < 2:
        raise ValueError("need at least 1 panel and 2 nodes per panel")
    edges = np.linspace(lo, hi, panels + 1)
    return gauss_panels_edges(edges, nodes_per_panel)


def gauss_panels_edges(edges, nodes_per_panel: int):
    """Composite Gauss-Legendre rule with explicit panel edges."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    base_x, base_w = _legendre_rule(nodes_per_panel)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return x, w


def trapezoid_weights(n: int, h: float):
    """Weights of the n-point trapezoid rule at spacing h: h inside, h / 2 at both ends."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w
