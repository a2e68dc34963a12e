"""Composite-trapezoid radial quadrature: cumulative integrals and the batched power kernel.

CumulativeIntegral holds the prefix sums of one integrand, and its at
evaluates them at any radius r >= r0 by linear interpolation of the
integrand inside the panel, saturating at the total beyond the last node.

ScaledIntegrals tabulates, for many rows f_i and powers p_i at once, the
power-kernel integrals scaled back by the matching power of the radius,

    prefix:  s_j^{-p_i} int_{s_0}^{s_j} t^{p_i} f_i(t) dt
    suffix:  s_j^{p_i}  int_{s_j}^{s_M} t^{-p_i} f_i(t) dt.

No power of a radius is formed on its own, and the suffix is summed from
the outer end inwards, never as total minus prefix, so the tables stay
finite and free of cancellation at high modes and large rmax (_scaled_table).
Every pass over a (modes, nodes) array walks the row bands of _bands, and
the independent halves of a pass run through _together; neither changes a
bit of any result.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
import numpy as np

__all__ = [
    "CumulativeIntegral",
    "ScaledIntegrals",
    "cumulative",
    "trapezoid_weights",
]

_RANGE_SLACK = 1e-9
# a kernel block ends before |p| log(s_end / s_start) exceeds this: e^300 ~ 1e130
_BLOCK_EXPONENT = 300.0
# bytes of one complex temporary in a banded pass: 2^20 keeps each operand in L2
_BAND_BYTES = 1 << 20


# _together runs the halves of a pass of at least this many complex values side by side
_SIDE_BY_SIDE = 2 * (_BAND_BYTES // 16)


def _side_by_side(size) -> bool:
    """Whether a pass over size values runs its halves on two threads (see _together)."""
    if size < _SIDE_BY_SIDE:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _together(first, second, size):
    """(first(), second()), with first run on a thread of its own and second on this one.

    numpy releases the interpreter lock inside its loops, so the halves of a
    pass share two cores.  A pass over fewer than _SIDE_BY_SIDE values (size
    counts both), or in a process allowed one CPU, runs both here, first then
    second: there the hand-off costs more than the overlap saves.  Callers
    split their work the same way either way, so results do not depend on
    threading bit for bit.  The thread is joined before this returns or
    raises, and an exception of first is raised here; first may itself call
    _together.
    """
    if not _side_by_side(size):
        return first(), second()
    box = [False, None]

    def run():
        try:
            box[:] = True, first()
        except BaseException as error:  # raised again in the calling thread
            box[1] = error

    worker = threading.Thread(target=run, name="divcurl-worker", daemon=True)
    worker.start()
    try:
        last = second()
    finally:
        worker.join()  # first has finished, whatever second did
        ok, value = box
        if not ok:
            raise value
    return value, last


def _bands(count, width, start=0):
    """Slices covering range(start, count) whose complex rows of the given width fit _BAND_BYTES.

    Rows are independent, so a pass band by band does the whole array's
    arithmetic bit for bit, with each temporary bounded (16 rows at M = 4000).
    """
    step = max(1, _BAND_BYTES // (16 * width))
    return [slice(i, min(i + step, count)) for i in range(start, count, step)]


def _upper(K, count, width):
    """A new complex (count, width) array; for mirrored rows (count = K + 1) the
    upper rows of an uninitialised (2K+1)-row array, which _unfold completes in place."""
    return np.empty((2 * K + 1, width), dtype=complex)[2 * K + 1 - count :]


def _unfold(rows, K):
    """Rows k = -K..K, read-only, of mirrored rows k = 0..K: mode -m is conj(mode m).

    Rows made by _upper get their lower rows written in place, once; other
    rows are copied, and rows already covering -K..K are returned as they are.
    """
    if len(rows) == 2 * K + 1:
        return rows
    full = rows.base
    if not (full is not None and full.flags.writeable and full.strides == rows.strides
            and full.shape == (2 * K + 1,) + rows.shape[1:]
            and full[K:].ctypes.data == rows.ctypes.data):
        full = np.empty((2 * K + 1,) + rows.shape[1:], dtype=rows.dtype)
        full[K:] = rows
    np.conjugate(rows[:0:-1], out=full[:K])
    full.setflags(write=False)
    return full


def _locate(nodes, r):
    """(radii clipped to the last node, panel index, fraction in the panel) of radii r >= r0."""
    lo, hi = nodes[0], nodes[-1]
    slack = _RANGE_SLACK * (hi - lo)
    if np.any(r < lo - slack):
        raise ValueError(f"radius outside grid span [{lo}, {hi}]")
    rc = np.clip(r, lo, hi)
    idx = np.clip(np.searchsorted(nodes, rc, side="right") - 1, 0, len(nodes) - 2)
    frac = (rc - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return rc, idx, frac


@dataclass(frozen=True, eq=False)
class CumulativeIntegral:
    """Prefix trapezoid integrals of a sampled integrand."""

    nodes: np.ndarray
    integrand: np.ndarray
    prefix: np.ndarray

    @property
    def total(self) -> complex:
        return complex(self.prefix[-1])

    def at(self, r):
        """Integral from nodes[0] to r, vectorized; r must not lie below nodes[0]."""
        rc, idx, frac = _locate(self.nodes, np.asarray(r, dtype=float))
        f0 = self.integrand[idx]
        f1 = self.integrand[idx + 1]
        f_at = f0 + (f1 - f0) * frac
        partial = (rc - self.nodes[idx]) * 0.5 * (f0 + f_at)
        out = self.prefix[idx] + partial
        return complex(out) if out.ndim == 0 else out


def cumulative(nodes, integrand) -> CumulativeIntegral:
    nodes = np.asarray(nodes, dtype=float)
    integrand = np.asarray(integrand, dtype=complex)
    if integrand.shape != nodes.shape:
        raise ValueError("integrand must be sampled at every node")
    panels = 0.5 * np.diff(nodes) * (integrand[:-1] + integrand[1:])
    prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(panels)))
    return CumulativeIntegral(nodes, integrand, prefix)


@dataclass(frozen=True, eq=False)
class ScaledIntegrals:
    """The scaled prefix or suffix table of the rows of an integrand, p_i = powers[i];
    sources, the arrays the integrand was formed from, stay in use with it."""

    nodes: np.ndarray
    integrand: np.ndarray
    powers: np.ndarray
    suffix: bool
    table: np.ndarray
    sources: tuple = ()


def _support(columns) -> tuple:
    """Half-open range (lo, hi) from the first nonzero entry of columns to the last, or (0, 0)."""
    nonzero = np.flatnonzero(columns)
    return (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)


def _negative_zero(values) -> bool:
    """Whether a real or imaginary part of the complex values is -0.0."""
    parts = values.view(float)
    return bool(np.any(np.signbit(parts[parts == 0.0])))


def _scaled_table(nodes, integrand, powers, suffix, table, span):
    """Prefix (or suffix) table of the rows, written into table band by band.

    The grid is cut into blocks that end before max|p| log(s_end / s_start)
    exceeds _BLOCK_EXPONENT, the maximum over all rows, so every band has the
    same blocks.  Inside a block each term is scaled by (s / s_end)^p and one
    cumsum sums the block; the carry into the next block is rescaled by the
    same ratios.  The suffix is the prefix over the reversed grid with the
    opposite power, negated for the panels' negative width: the recursive
    mode convolution of Borges & Daripa, J. Comput. Phys. 169 (2001).  The
    integrand is zero outside the columns span = (lo, hi), half-open.  Before
    the first panel that touches the data the table is written as +0.0 (a
    suffix -0.0), and past the last one only the weights and the rescaled
    carry are formed.  Each term skipped is an exact zero, so the table is
    the whole-grid pass's bit for bit; a carry with a -0.0 part, which only
    an underflow makes, sums its zero panels after all.
    """
    M = len(nodes)
    lo, hi = span
    if suffix:  # the reversed grid: its nodes and integrand reversed, its powers negated
        nodes, powers, integrand = nodes[::-1], -powers, integrand[:, ::-1]
        lo, hi = M - hi, M - lo
    # the panels [first, last) touch the data
    first, last = (max(lo - 1, 0), min(hi, M - 1)) if lo < hi else (M - 1, M - 1)
    logs = np.log(nodes)
    half_h = 0.5 * np.diff(nodes)
    dist = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(logs)))))
    reach = _BLOCK_EXPONENT / max(float(np.max(np.abs(powers), initial=0.0)), 1.0)
    cuts = [0]
    while cuts[-1] < M - 1:
        j0 = cuts[-1]
        cuts.append(max(int(np.searchsorted(dist, dist[j0] + reach, side="right")) - 1, j0 + 1))
    blocks = [(j0, j1) for j0, j1 in zip(cuts[:-1], cuts[1:]) if j1 > first]
    view = table[:, ::-1] if suffix else table
    for band in _bands(len(powers), len(nodes)):
        f, p, out = integrand[band], powers[band], view[band]
        out[:, : first + 1] = complex(-0.0, -0.0) if suffix else 0.0
        for j0, j1 in blocks:
            a, b = max(j0, first), min(j1, last)  # the block's panels [a, b) touch the data
            # (s_j / s_j1)^p lies in [e^-300, e^300] inside the block
            weights = np.exp(np.multiply.outer(p, logs[a : j1 + 1] - logs[j1]))
            if a > first:  # a == j0: the carry from the block before
                carry = out[:, a] * weights[:, 0]
                if b < j1 and _negative_zero(carry):
                    b = j1
            else:
                carry = np.zeros(len(p), dtype=complex)  # the zeros' carry, +0.0
            # x * (1 / w) is what complex division by a real w computes, for half the time
            inverse = np.reciprocal(weights[:, 1:])
            if a < b:
                scaled = f[:, a : b + 1] * weights[:, : b + 1 - a]
                acc = np.cumsum(half_h[a:b] * (scaled[:, :-1] + scaled[:, 1:]), axis=1)
                acc += carry[:, None]
                np.multiply(acc, inverse[:, : b - a], out=out[:, a + 1 : b + 1])
                carry = acc[:, -1]
            if b < j1:  # past the data: the carried sum, rescaled
                rest = max(a, b)
                np.multiply(carry[:, None], inverse[:, rest - a :], out=out[:, rest + 1 : j1 + 1])
        if suffix:  # out[:, first + 1 :], in the table's own column order, as floats
            parts = table[band, : M - first - 1].view(float)
            np.negative(parts, out=parts)


def _scaled(nodes, integrand, powers, suffix, span, sources=()) -> ScaledIntegrals:
    """ScaledIntegrals of an integrand that is zero outside the columns span."""
    table = np.empty(integrand.shape, dtype=complex)
    _scaled_table(nodes, integrand, powers, suffix, table, span)
    return ScaledIntegrals(nodes, integrand, powers, suffix, table, sources)


def trapezoid_weights(nodes) -> np.ndarray:
    """Node weights w_j with sum_j w_j f_j = trapezoid integral of f."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w
