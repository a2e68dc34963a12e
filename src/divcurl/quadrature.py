"""Composite-trapezoid radial quadrature with cumulative (prefix) evaluation.

All solver integrals reduce to integrals of s^p f(s) over subranges of the
radial grid.  CumulativeIntegral stores prefix sums once per integrand, so a
full per-mode solve costs O(M) instead of O(M^2), and its at evaluates them
at arbitrary radii by linear interpolation of the integrand inside one panel
(consistent with the trapezoid rule, second order in node spacing).  Radii
beyond the last node saturate at the total, which is exact for integrands
supported inside the span; radii below the first node raise.

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

The solver's data are compactly supported (RadialGrid), and a table does
only the work its data need.  Let span = (lo, hi) be the columns from the
first to past the last one where some row is nonzero.  A prefix is exactly
zero up to the first panel that touches the data, and past the last one
it is the carried sum rescaled; a suffix is the mirror image.  So
_scaled_table sums panels and takes cumsums only on the panels that touch
the support, writes the zeros directly (+0.0 for a prefix, -0.0 for the
negated suffix), and on the far side forms only the weights and the
rescaled carry.  Each term skipped is an exact zero: adding it can change
no more than the sign of a zero, and the block carry settles that sign the
same way with or without it, so the tables are the whole-grid pass's bit
for bit.  The one exception is a carry with a -0.0 part, which only an
underflow makes; its block sums its zero panels after all.  solve_disk
and solve_stream read the span off the data scan they already run
(disk._scan).

The moment conditions read a suffix at s_0 only, b_k(r0): the suffix
table's first column.  The solver, the moment report and the
admissibility projection all read it there, so one quadrature of the
moment serves all three.

Every row is independent, so the tables are built in row bands: _bands
cuts the rows so that one complex band of the grid's width stays within
_BAND_BYTES (2^20 bytes, 16 rows at M = 4000).  That bounds each temporary
of a pass, per thread: a pass holds a few such operands at once, and on
each of the two threads below.  The block schedule comes from the largest
power of all rows, so the banded tables equal the whole-array ones bit for
bit.  The node profiles, the off-node sampler and the volume norms walk the
same bands.

The solver's passes come in independent halves: the prefix and the suffix
table, the two data scans, the two halves of the node-profile bands, of
the sample points and of the velocity norms' density bands, and the terms
of the scalar-field norms.  _together runs the first half on one worker
thread and the second on the calling thread.  numpy releases the
interpreter lock inside its loops over whole bands, so the two halves
share the host's cores.  A pass over less than two bands' worth of values, or a process
that may run on one CPU only, runs its halves one after the other on the
calling thread: there the hand-off, or the two threads taking turns on
one core, costs more than the overlap saves.  The split is fixed, never
dynamic, and every row, point and sum is formed by the same operations in
the same order as one thread would, so results do not depend on it bit
for bit.
"""

from __future__ import annotations

import os
import queue
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
# the inbox of _together's worker thread, started on first use
_inbox = None


def _drop_worker():
    """Forget the worker in a forked child: its thread did not survive the fork."""
    global _inbox
    _inbox = None


os.register_at_fork(after_in_child=_drop_worker)


def _serve(inbox):
    """The worker: run each call put in the inbox, pass back (ok, result or error)."""
    while True:
        call, box, done = inbox.get()
        try:
            box[:] = True, call()
        except BaseException as error:  # raised again in the calling thread
            box[:] = False, error
        del call, box  # keep nothing of a finished call alive
        done.release()


def _side_by_side(size) -> bool:
    """Whether a pass over size values runs its halves on two threads.

    It does from _SIDE_BY_SIDE values on, when this process may run on more
    than one CPU (its affinity mask where the platform has one).
    """
    if size < _SIDE_BY_SIDE:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _together(first, second, size):
    """(first(), second()), with first run on the worker thread and second on this one.

    size is the number of values the two calls pass over together; unless
    _side_by_side(size), both run here, first then second.  Neither call is
    still running when this returns or raises, and if first raises, its
    exception is raised.  The worker runs leaf work only: first never calls
    _together, so the single worker cannot wait on itself.
    """
    global _inbox
    if not _side_by_side(size):
        return first(), second()
    if _inbox is None:
        _inbox = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_inbox,), name="divcurl-worker",
                         daemon=True).start()
    box, done = [], threading.Lock()
    done.acquire()  # released by the worker when first has finished
    _inbox.put((first, box, done))
    try:
        last = second()
    finally:
        done.acquire()  # first has finished, whatever second did
        ok, value = box
        if not ok:
            raise value
    return value, last


def _bands(count, width, start=0):
    """Slices covering range(start, count) whose complex rows of the given width fit _BAND_BYTES."""
    step = max(1, _BAND_BYTES // (16 * width))
    return [slice(i, min(i + step, count)) for i in range(start, count, step)]


def _upper(K, count, width):
    """A new complex (count, width) array; for count = K + 1 (mirrored rows k = 0..K)
    the upper rows of an uninitialised (2K+1)-row array, which _unfold completes in place."""
    return np.empty((2 * K + 1, width), dtype=complex)[2 * K + 1 - count :]


def _unfold(rows, K):
    """Rows k = -K..K of a mirrored array from its rows k = 0..K: mode -m is conj(mode m).

    The result is read-only.  Rows made by _upper get their lower rows
    written in place, once; other rows are copied into a new array, and rows
    already covering -K..K are returned as they are.
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


@dataclass(frozen=True)
class CumulativeIntegral:
    """Prefix trapezoid integrals of a sampled integrand."""

    nodes: np.ndarray
    integrand: np.ndarray
    prefix: np.ndarray

    @property
    def total(self) -> complex:
        return complex(self.prefix[-1])

    def at(self, r):
        """Integral from nodes[0] to r, vectorized; r must not lie below nodes[0].

        Radii beyond the last node saturate at the total, which is exact for
        integrands supported inside the span.
        """
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

    The integrand is zero outside the columns span = (lo, hi), half-open.
    The suffix is the prefix over the reversed grid with the opposite power;
    the reversed panels have negative width, hence its sign flip.  Each band
    is written through the reversed view and negated while it is in cache.
    Before the first panel that touches the data a prefix is +0.0 (a suffix,
    negated, -0.0), written directly; past the last one a block's running
    sum stays where that panel left it, so only the weights are formed there.
    A block carry with a -0.0 part sums its zero panels after all, since
    they may turn that part into +0.0.
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
        if suffix:
            np.negative(out[:, first + 1 :], out=out[:, first + 1 :])


def _scaled(nodes, integrand, powers, suffix, span) -> ScaledIntegrals:
    """ScaledIntegrals of an integrand that is zero outside the columns span."""
    table = np.empty(integrand.shape, dtype=complex)
    _scaled_table(nodes, integrand, powers, suffix, table, span)
    return ScaledIntegrals(nodes, integrand, powers, suffix, table)


def trapezoid_weights(nodes) -> np.ndarray:
    """Node weights w_j with sum_j w_j f_j = trapezoid integral of f."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w
