"""Composite-trapezoid radial quadrature with cumulative (prefix) evaluation.

All solver integrals reduce to integrals of s^p f(s) over subranges of the
radial grid.  CumulativeIntegral stores prefix sums once per integrand, so a
full per-mode solve costs O(M) instead of O(M^2), and supports evaluation at
arbitrary radii by linear interpolation of the integrand inside one panel
(consistent with the trapezoid rule, second order in node spacing).

ScaledIntegrals is the batched mode kernel: for many rows f_i and powers p_i
at once it tabulates the power-kernel integrals already multiplied back by
the matching power of the radius,

    prefix:  s_j^{-p_i} int_{s_0}^{s_j} t^{p_i} f_i(t) dt
    suffix:  s_j^{p_i}  int_{s_j}^{s_M} t^{-p_i} f_i(t) dt,

so no power of a radius is ever formed on its own (s^{+-p} overflows at
high modes and large rmax, and total - prefix cancels catastrophically).
The grid is cut into blocks that end before |p| log(s_end / s_start)
exceeds 300; inside a block every term is scaled by (s / s_end)^p, which
stays within [e^-300, e^300], and one cumsum gives the block.  The carry
from block to block is rescaled by the same ratios.  A suffix is summed
directly, from the outer end inwards (the recursive mode convolutions of
Borges & Daripa, J. Comput. Phys. 169 (2001)).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "CumulativeIntegral",
    "ScaledIntegrals",
    "cumulative",
    "radial_integral",
    "scaled_integrals",
    "trapezoid_weights",
]

_RANGE_SLACK = 1e-9
# a kernel block ends before |p| log(s_end / s_start) exceeds this: e^300 ~ 1e130
_BLOCK_EXPONENT = 300.0


def _locate(nodes, r, extend: bool = False):
    """(clipped radii, panel index, fraction inside the panel) of radii r.

    r must lie in the grid span; with extend=True radii beyond the last node
    are allowed and clipped to it.
    """
    lo, hi = nodes[0], nodes[-1]
    slack = _RANGE_SLACK * (hi - lo)
    if np.any(r < lo - slack) or (not extend and np.any(r > hi + slack)):
        raise ValueError(f"radius outside grid span [{lo}, {hi}]")
    rc = np.clip(r, lo, hi)
    idx = np.clip(np.searchsorted(nodes, rc, side="right") - 1, 0, len(nodes) - 2)
    frac = (rc - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return rc, idx, frac


@dataclass(frozen=True)
class CumulativeIntegral:
    """Prefix trapezoid integrals of a sampled integrand."""

    nodes: np.ndarray
    integrand: np.ndarray
    prefix: np.ndarray

    @property
    def total(self) -> complex:
        return complex(self.prefix[-1])

    def at(self, r, extend: bool = False):
        """Integral from nodes[0] to r, vectorized; r must lie in the grid span.

        With extend=True radii beyond the last node saturate at the total,
        which is exact for integrands supported inside the span.
        """
        rc, idx, frac = _locate(self.nodes, np.asarray(r, dtype=float), extend)
        f0 = self.integrand[idx]
        f1 = self.integrand[idx + 1]
        f_at = f0 + (f1 - f0) * frac
        partial = (rc - self.nodes[idx]) * 0.5 * (f0 + f_at)
        out = self.prefix[idx] + partial
        return complex(out) if out.ndim == 0 else out

    def suffix_at(self, r, extend: bool = False):
        """Integral from r to nodes[-1] (zero beyond the span when extend=True)."""
        return self.total - self.at(r, extend=extend)


def cumulative(nodes, integrand) -> CumulativeIntegral:
    nodes = np.asarray(nodes, dtype=float)
    integrand = np.asarray(integrand, dtype=complex)
    if integrand.shape != nodes.shape:
        raise ValueError("integrand must be sampled at every node")
    panels = 0.5 * np.diff(nodes) * (integrand[:-1] + integrand[1:])
    prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(panels)))
    return CumulativeIntegral(nodes, integrand, prefix)


@dataclass(frozen=True)
class ScaledIntegrals:
    """Scaled prefix or suffix trapezoid integrals of the rows of an integrand.

    table[i, j] is s_j^{-p_i} int_{s_0}^{s_j} t^{p_i} f_i for a prefix and
    s_j^{p_i} int_{s_j}^{s_M} t^{-p_i} f_i for a suffix (p_i = powers[i]).
    """

    nodes: np.ndarray
    integrand: np.ndarray
    powers: np.ndarray
    suffix: bool
    table: np.ndarray

    def rows(self, index) -> "ScaledIntegrals":
        """The kernel restricted to a slice of its rows (views, no copies)."""
        return ScaledIntegrals(self.nodes, self.integrand[index], self.powers[index],
                               self.suffix, self.table[index])

    def at(self, r, rows=slice(None)):
        """Scaled integrals of the given rows at radii r, shape (rows, len(r)).

        Off the nodes the integrand t^{+-p} f is interpolated linearly inside
        one panel, as CumulativeIntegral.at does, and the result is scaled by
        the actual radius.  Radii beyond the last node are allowed: a prefix
        then keeps its total, a suffix is zero.
        """
        r = np.asarray(r, dtype=float)
        rc, idx, frac = _locate(self.nodes, r, extend=True)
        s0, s1 = self.nodes[idx], self.nodes[idx + 1]
        p = self.powers[rows][:, None]
        integrand = self.integrand[rows]
        table = self.table[rows]
        f0 = integrand.take(idx, axis=1)
        f1 = integrand.take(idx + 1, axis=1)
        if not self.suffix:
            h = 0.5 * (rc - s0)
            e0 = np.exp(p * np.log(s0 / r))
            e1 = np.exp(p * np.log(s1 / r))
            return e0 * (table.take(idx, axis=1) + (h * (2.0 - frac)) * f0) + e1 * ((h * frac) * f1)
        h = 0.5 * (s1 - rc)
        # beyond the last node the suffix vanishes; any finite scale will do
        rs = np.minimum(r, self.nodes[-1])
        e0 = np.exp(p * np.log(rs / s0))
        e1 = np.exp(p * np.log(rs / s1))
        return e1 * (table.take(idx + 1, axis=1) + (h * (1.0 + frac)) * f1) + e0 * ((h * (1.0 - frac)) * f0)


def _scaled_prefix(nodes, integrand, powers) -> np.ndarray:
    """s_j^{-p} int_{s_0}^{s_j} t^p f by blocks; nodes may also be decreasing."""
    logs = np.log(nodes)
    dist = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(logs)))))
    reach = _BLOCK_EXPONENT / max(float(np.max(np.abs(powers), initial=0.0)), 1.0)
    half_h = 0.5 * np.diff(nodes)
    table = np.zeros(integrand.shape, dtype=complex)
    j0 = 0
    while j0 < len(nodes) - 1:
        j1 = max(int(np.searchsorted(dist, dist[j0] + reach, side="right")) - 1, j0 + 1)
        # (s_j / s_j1)^p lies in [e^-300, e^300] inside the block
        weights = np.exp(np.multiply.outer(powers, logs[j0 : j1 + 1] - logs[j1]))
        scaled = integrand[:, j0 : j1 + 1] * weights
        acc = np.cumsum(half_h[j0:j1] * (scaled[:, :-1] + scaled[:, 1:]), axis=1)
        acc += (table[:, j0] * weights[:, 0])[:, None]
        table[:, j0 + 1 : j1 + 1] = acc / weights[:, 1:]
        j0 = j1
    return table


def scaled_integrals(nodes, integrand, powers, suffix: bool = False) -> ScaledIntegrals:
    """Batched kernel: scaled prefix (or suffix) integrals of every integrand row."""
    nodes = np.asarray(nodes, dtype=float)
    integrand = np.asarray(integrand, dtype=complex)
    powers = np.asarray(powers, dtype=float)
    if integrand.shape != (powers.size, nodes.size):
        raise ValueError("integrand must hold one row per power, sampled at every node")
    if suffix:
        # the suffix is the prefix over the reversed grid with the opposite
        # power; the reversed panels have negative width, hence the sign
        table = -_scaled_prefix(nodes[::-1], integrand[:, ::-1], -powers)[:, ::-1]
    else:
        table = _scaled_prefix(nodes, integrand, powers)
    return ScaledIntegrals(nodes, integrand, powers, suffix, table)


def radial_integral(nodes, values, power: int = 0, lo: float = None, hi: float = None) -> complex:
    """Composite trapezoid of s^power * f(s) over [lo, hi] within the grid span."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=complex)
    acc = cumulative(nodes, nodes**power * values)
    lo = nodes[0] if lo is None else lo
    hi = nodes[-1] if hi is None else hi
    if hi < lo:
        raise ValueError("integration range reversed")
    return complex(acc.at(hi) - acc.at(lo))


def trapezoid_weights(nodes) -> np.ndarray:
    """Node weights w_j with sum_j w_j f_j = trapezoid integral of f."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w
