"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's solver path: brute-force
nested quadrature of the mode formulas, finite-difference operators, and
closed-form classical flows.  run_in_child runs a concurrency check in a
forked child with a timeout.
"""

import multiprocessing
from bisect import bisect_right
from dataclasses import replace

import numpy as np

from divcurl.disk import vinf_coefficients
from divcurl.grids import smooth_bump
from divcurl.quadrature import _bands, _locate


class MpGrid:
    """Radial nodes, half panel widths and target radii of the mpmath references in dps digits.

    Built once per reference and shared by every mode and both integrals of a
    mode: at[i] holds (panel index, radius, fraction inside the panel, half
    the partial panel width) of radii[i], cuts the panel indices in order,
    and power(p) the nodes' p-th powers (modes k and -k use the same two).
    """

    def __init__(self, nodes, radii, dps=60):
        import mpmath

        self.dps = dps
        self._powers = {}
        with mpmath.workdps(dps):
            self.s = s = [mpmath.mpf(float(x)) for x in nodes]
            self.half = [(b - a) / 2 for a, b in zip(s[:-1], s[1:])]
            self.at = []
            for radius in radii:
                idx = min(max(bisect_right(nodes, radius) - 1, 0), len(s) - 2)
                r = mpmath.mpf(float(radius))
                self.at.append((idx, r, (r - s[idx]) / (s[idx + 1] - s[idx]), (r - s[idx]) / 2))
        self.cuts = sorted({idx for idx, _, _, _ in self.at})

    def power(self, p):
        if p not in self._powers:
            self._powers[p] = [x**p for x in self.s]
        return self._powers[p]


def mp_mode_profiles(k, grid, w_k, rho_k, g_r_k, g_phi_k, vinf):
    """High-precision (mpmath) evaluation of the mode-k trapezoid formulas at grid's radii.

    Same sums as the solver: composite trapezoid of s^{k+1}(w - i rho) from
    r0 and of s^{-k+1}(w + i rho) to rmax, with the integrand interpolated
    linearly inside one panel off the nodes (CumulativeIntegral.at).  The
    suffix is summed directly and every power is formed in grid.dps digits,
    so neither overflow nor cancellation enters the reference.  grid is an
    MpGrid; vinf(k) gives the far-field pair (v_r,k^inf, v_phi,k^inf); k < 0
    solves the conjugated problem for -k, k = 0 the radial/azimuthal
    cumulative formulas.
    """
    import mpmath

    if k < 0:
        v_r, v_phi = mp_mode_profiles(-k, grid, np.conj(w_k), np.conj(rho_k), np.conj(g_r_k),
                                      np.conj(g_phi_k), vinf)
        return np.conj(v_r), np.conj(v_phi)
    with mpmath.workdps(grid.dps):
        r0 = grid.s[0]

        def real_integrals(values, power):
            """(prefix, suffix) of s^power * values (real) at each radius."""
            f = [x * q for x, q in zip(values.tolist(), grid.power(power))]
            panels = [h * (a + b) for h, a, b in zip(grid.half, f[:-1], f[1:])]
            # whole panels below and above each radius's panel, summed once
            # from the inner end and once from the outer end
            cuts = grid.cuts
            below, total = {}, 0
            for lo, hi in zip([0] + cuts, cuts):
                below[hi] = total = total + mpmath.fsum(panels[lo:hi])
            above, total = {}, 0
            for lo, hi in zip(cuts[::-1], [len(panels)] + cuts[:0:-1]):
                above[lo] = total = total + mpmath.fsum(panels[lo + 1 : hi + 1])
            out = []
            for idx, _, frac, half in grid.at:
                f_at = f[idx] + (f[idx + 1] - f[idx]) * frac
                partial = half * (f[idx] + f_at)
                out.append((below[idx] + partial, above[idx] + panels[idx] - partial))
            return out

        def integrals(values, power):
            """(prefix, suffix) of s^power * values at each radius, one real part at a time."""
            parts = zip(real_integrals(values.real, power), real_integrals(values.imag, power))
            return [(mpmath.mpc(a_re, a_im), mpmath.mpc(b_re, b_im))
                    for (a_re, b_re), (a_im, b_im) in parts]

        w_k = np.asarray(w_k, dtype=complex)
        rho_k = np.asarray(rho_k, dtype=complex)
        g_r_k = mpmath.mpc(complex(g_r_k))
        g_phi_k = mpmath.mpc(complex(g_phi_k))
        vinf_r, vinf_phi = (mpmath.mpc(complex(x)) for x in vinf(k))
        radii = [r for _, r, _, _ in grid.at]
        v_r, v_phi = [], []
        if k == 0:
            for r, (a_rho, _), (a_w, _) in zip(radii, integrals(rho_k, 1), integrals(w_k, 1)):
                v_r.append(complex((a_rho + r0 * g_r_k) / r))
                v_phi.append(complex((a_w + r0 * g_phi_k) / r))
            return np.array(v_r), np.array(v_phi)
        alpha = r0 ** (k + 1) * (g_phi_k - 1j * g_r_k) / 2
        inner = integrals(w_k - 1j * rho_k, k + 1)
        outer = integrals(w_k + 1j * rho_k, 1 - k)
        for r, (a, _), (_, b) in zip(radii, inner, outer):
            decay = r ** (-k - 1)
            grow = r ** (k - 1)
            v_r.append(complex(0.5j * decay * a + 0.5j * grow * b + 1j * alpha * decay + vinf_r))
            v_phi.append(complex(0.5 * decay * a - 0.5 * grow * b + alpha * decay + vinf_phi))
        return np.array(v_r), np.array(v_phi)


def mp_sample(problem, points, dps=60):
    """Cartesian velocity at complex points from the mp_mode_profiles of every mode.

    Sums (v_r,k + i v_phi,k)(r) e^{i (k+1) phi} over k = -K..K in double
    precision, each profile from the dps-digit trapezoid formulas on one
    shared MpGrid.  Returns (values, scale) with scale = max over the points
    of sum_k |v_r,k + i v_phi,k|, the size of the terms the sum cancels.
    """
    points = np.asarray(points, dtype=complex)
    r, phi = np.abs(points), np.angle(points)
    g = problem.boundary
    vinf = lambda k: vinf_coefficients(problem.far_field, k)
    total = np.zeros(points.shape, dtype=complex)
    size = np.zeros(points.shape)
    radii, at = np.unique(r, return_inverse=True)
    grid = MpGrid(problem.grid.nodes, radii, dps)
    for k in range(-problem.K, problem.K + 1):
        v_r, v_phi = mp_mode_profiles(
            k, grid, problem.vorticity.coeff(k), problem.divergence.coeff(k),
            g.coeff_r(k), g.coeff_phi(k), vinf)
        v = (v_r + 1j * v_phi)[at].reshape(points.shape)
        total += v * np.exp(1j * (k + 1) * phi)
        size += np.abs(v)
    return total, float(np.max(size))


def brute_force_mode_profiles(k, w_fn, rho_fn, alpha, vinf_r, vinf_phi, r0, rmax, targets,
                              n_fine=20001):
    """Direct nested-trapezoid evaluation of the mode-k velocity profiles.

    Integrates s^{k+1}(w - i rho) from r0 to r and s^{-k+1}(w + i rho) from r
    to rmax on a fine uniform grid for every target radius separately.
    """
    s = np.linspace(r0, rmax, n_fine)
    w = np.asarray(w_fn(s), dtype=complex)
    rho = np.asarray(rho_fn(s), dtype=complex)
    inner_density = s ** (k + 1) * (w - 1j * rho)
    outer_density = s ** (-k + 1) * (w + 1j * rho)

    def prefix_to(density, r):
        idx = int(np.searchsorted(s, r, side="right")) - 1
        acc = np.trapezoid(density[: idx + 1], s[: idx + 1]) if idx >= 1 else 0.0
        if idx < n_fine - 1 and s[idx] < r:
            frac = (r - s[idx]) / (s[idx + 1] - s[idx])
            f_at = density[idx] + (density[idx + 1] - density[idx]) * frac
            acc += 0.5 * (r - s[idx]) * (density[idx] + f_at)
        return acc

    outer_total = np.trapezoid(outer_density, s)
    v_r = np.empty(len(targets), dtype=complex)
    v_phi = np.empty(len(targets), dtype=complex)
    for i, r in enumerate(targets):
        a = prefix_to(inner_density, r)
        b = outer_total - prefix_to(outer_density, r)
        decay = r ** (-k - 1)
        grow = r ** (k - 1)
        v_r[i] = 0.5j * decay * a + 0.5j * grow * b + 1j * alpha * decay + vinf_r
        v_phi[i] = 0.5 * decay * a - 0.5 * grow * b + alpha * decay + vinf_phi
    return v_r, v_phi


def mp_stream_mode(k, w_fn, support, r0, vphi_inf, radii, dps=20):
    """Continuum stream mode psi_k at radii by variation of parameters (mpmath.quad).

    Solves psi'' + psi'/r - k^2 psi / r^2 = w_k on r > r0 with psi(r0) = 0 and
    psi - r vphi_inf bounded at infinity, for data w_fn(s) (mpmath in, mpmath
    out) supported in support = (lo, hi).  With m = |k| >= 1 the particular
    solution built from the homogeneous pair r^{+-m} is

        psi_p = -(r^{-m} int_{r0}^r s^{m+1} w ds + r^m int_r^inf s^{1-m} w ds) / (2m),

    and psi = psi_p + r vphi_inf - (r0/r)^m (psi_p(r0) + r0 vphi_inf).  For
    k = 0 the pair is (1, log r): psi_0 = int_{r0}^r s w(s) log(r/s) ds.
    No grid enters, so this checks the solver's discretisation as well.
    """
    import mpmath

    m = abs(k)
    with mpmath.workdps(dps):
        lo, hi = mpmath.mpf(support[0]), mpmath.mpf(support[1])
        r0 = mpmath.mpf(r0)
        vphi_inf = mpmath.mpc(complex(vphi_inf))

        def integral(f, a, b):
            a, b = max(a, lo), min(b, hi)
            return mpmath.quad(f, [a, b]) if a < b else mpmath.mpf(0)

        def psi_p(r):
            inner = integral(lambda s: s ** (m + 1) * w_fn(s), r0, r)
            outer = integral(lambda s: s ** (1 - m) * w_fn(s), r, hi)
            return -(r ** -m * inner + r**m * outer) / (2 * m)

        out = []
        if m == 0:
            for radius in radii:
                r = mpmath.mpf(float(radius))
                out.append(complex(integral(lambda s: s * w_fn(s) * mpmath.log(r / s), r0, r)))
            return np.array(out)
        c = psi_p(r0) + r0 * vphi_inf
        for radius in radii:
            r = mpmath.mpf(float(radius))
            out.append(complex(psi_p(r) + r * vphi_inf - (r0 / r) ** m * c))
        return np.array(out)


def polar_samples(solution, r, phi):
    """(v_r, v_phi) of a real velocity field at radii r and angles phi.

    Rotates the Cartesian samples into the polar frame: for real components
    e^{-i phi} (v1 + i v2) = v_r + i v_phi.
    """
    r, phi = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(phi, dtype=float))
    v = solution.sample(r * np.exp(1j * phi)) * np.exp(-1j * phi)
    return v.real, v.imag


def reference_kernel_sum(x, sources, charge):
    """Direct sum of d/|d|^2 * charge at one point x, d = x - sources.

    Sources with |d| <= 1e-14 (coincident with x) are dropped.
    """
    d = x - sources
    dist2 = d.real**2 + d.imag**2
    keep = dist2 > 1e-14 ** 2
    return complex(np.sum((d[keep] / dist2[keep]) * charge[keep]))


def longdouble_kernel_sum(x, radii, angles, charge):
    """Direct sum of d/|d|^2 * charge over the cells radii[a] e^{i angles[b]}
    at each point of x, in np.longdouble from the cells' polar coordinates.

    A cell within 1e-14 of the point (the point's own cell) is dropped.
    Returns complex128.
    """
    r = np.asarray(radii, dtype=np.longdouble).reshape(-1, 1)
    t = np.asarray(angles, dtype=np.longdouble).reshape(1, -1)
    s_re, s_im = (r * np.cos(t)).ravel(), (r * np.sin(t)).ravel()
    q_re = np.real(charge).astype(np.longdouble).ravel()
    q_im = np.imag(charge).astype(np.longdouble).ravel()
    out = []
    for xi in np.ravel(x):
        a = np.longdouble(xi.real) - s_re
        b = np.longdouble(xi.imag) - s_im
        dist2 = a * a + b * b
        keep = dist2 > 1e-28
        a, b, inv = a[keep], b[keep], 1 / dist2[keep]
        out.append(complex(float(np.sum((a * q_re[keep] - b * q_im[keep]) * inv)),
                           float(np.sum((a * q_im[keep] + b * q_re[keep]) * inv))))
    return np.array(out)


def reference_scaled_prefix(nodes, integrand, powers, block_exponent=300.0):
    """Whole-array scaled prefix table s_j^{-p} int_{s_0}^{s_j} t^p f, all rows at once.

    The kernel's block schedule without row bands: a block ends before
    |p| log(s_end / s_start) exceeds block_exponent for the largest |p|, and
    one cumsum over every row sums the block.  nodes may be decreasing; the
    suffix table is -reference_scaled_prefix(nodes[::-1], f[:, ::-1], -p)[:, ::-1].
    """
    logs = np.log(nodes)
    dist = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(logs)))))
    reach = block_exponent / max(float(np.max(np.abs(powers), initial=0.0)), 1.0)
    half_h = 0.5 * np.diff(nodes)
    table = np.zeros(integrand.shape, dtype=complex)
    j0 = 0
    while j0 < len(nodes) - 1:
        j1 = max(int(np.searchsorted(dist, dist[j0] + reach, side="right")) - 1, j0 + 1)
        weights = np.exp(np.multiply.outer(powers, logs[j0 : j1 + 1] - logs[j1]))
        scaled = integrand[:, j0 : j1 + 1] * weights
        acc = np.cumsum(half_h[j0:j1] * (scaled[:, :-1] + scaled[:, 1:]), axis=1)
        acc += (table[:, j0] * weights[:, 0])[:, None]
        table[:, j0 + 1 : j1 + 1] = acc / weights[:, 1:]
        j0 = j1
    return table


def mirror_defect(coeffs):
    """max |f_{-k} - conj(f_k)| over the rows k = -K..K: 0.0 for a real field, NaN with NaN data."""
    return np.max(np.abs(coeffs[::-1] - np.conj(coeffs)))


def unfold_rows(rows, K):
    """Rows k = -K..K of an array held on k = 0..K, row -m the conjugate of row m.

    Arrays that already hold 2K+1 rows are returned as they are.
    """
    return rows if len(rows) == 2 * K + 1 else np.concatenate((np.conj(rows[:0:-1]), rows))


def full_terms(terms):
    """disk.ModeTerms on every mode -K..K.

    Terms held on k = 0..K (real data) get the rows k = -m written as the
    conjugates of the rows m, in every table, integrand, power, trace and
    far-field coefficient; terms on -K..K are returned as they are.
    """
    if terms.ks[0] < 0 or terms.K == 0:
        return terms

    def unfold(rows):
        return unfold_rows(rows, terms.K)

    def kernel(k):
        return replace(k, integrand=unfold(k.integrand), powers=unfold(k.powers),
                       table=unfold(k.table))

    return replace(terms, ks=np.arange(-terms.K, terms.K + 1), inner=kernel(terms.inner),
                   outer=kernel(terms.outer), trace=unfold(terms.trace.T).T,
                   vinf=unfold(terms.vinf.T).T)


def mode_coefficients(terms):
    """disk.ModeTerms as one generic linear combination per component c (0: v_r, 1: v_phi):

        v_c = coef[c, 0] a + coef[c, 1] b + coef[c, 2] (r0/r)^{|k|+1} + coef[c, 3],

    with the kernel coefficients of mode 0 zero (its integrals are terms.zero).
    """
    half_i = 0.5j * np.sign(terms.ks)
    n = len(terms.ks)
    coef = np.array([[half_i, half_i, terms.trace[0], terms.vinf[0]],
                     [np.full(n, 0.5), np.full(n, -0.5), terms.trace[1], terms.vinf[1]]],
                    dtype=complex)
    coef[:, :2, n // 2] = 0.0
    return coef


def reference_profiles(terms):
    """Node profiles (v_r, v_phi) of disk.ModeTerms from whole-array kernel tables, k = -K..K.

    Each table is rebuilt by reference_scaled_prefix over all rows -K..K at
    once (full_terms) and every combination is one pass over the whole
    (modes, nodes) array.
    """
    terms = full_terms(terms)
    nodes = terms.inner.nodes
    inner = reference_scaled_prefix(nodes, terms.inner.integrand, terms.inner.powers)
    outer = -reference_scaled_prefix(nodes[::-1], terms.outer.integrand[:, ::-1],
                                     -terms.outer.powers)[:, ::-1]
    decay = np.exp(np.multiply.outer(np.abs(terms.ks) + 1.0, np.log(terms.r0 / nodes)))
    out = []
    for c, integral in zip(mode_coefficients(terms), terms.zero):
        x = c[0, :, None] * inner + c[1, :, None] * outer + c[2, :, None] * decay + c[3, :, None]
        if integral is not None:
            x[terms.ks == 0] += integral.prefix / nodes
        out.append(x)
    return tuple(out)


def scaled_integrals_at(kernel, r):
    """Scaled integrals of every row of a quadrature.ScaledIntegrals at radii r.

    Off the nodes the integrand t^{+-p} f is interpolated linearly inside one
    panel, as CumulativeIntegral.at does, and the result is scaled by the
    actual radius with one exp(p log(ratio)) per row and radius.  Radii beyond
    the last node are allowed: a prefix keeps its total, a suffix is zero.
    """
    rc, idx, frac = _locate(kernel.nodes, r)
    s0, s1 = kernel.nodes[idx], kernel.nodes[idx + 1]
    p = kernel.powers[:, None]
    f0, f1 = kernel.integrand[:, idx], kernel.integrand[:, idx + 1]
    if not kernel.suffix:
        h = 0.5 * (rc - s0)
        e0 = np.exp(p * np.log(s0 / r))
        e1 = np.exp(p * np.log(s1 / r))
        return e0 * (kernel.table[:, idx] + (h * (2.0 - frac)) * f0) + e1 * ((h * frac) * f1)
    h = 0.5 * (s1 - rc)
    rs = np.minimum(r, kernel.nodes[-1])
    e0 = np.exp(p * np.log(rs / s0))
    e1 = np.exp(p * np.log(rs / s1))
    return e1 * (kernel.table[:, idx + 1] + (h * (1.0 + frac)) * f1) + e0 * ((h * (1.0 - frac)) * f0)


def mode_values(terms, r):
    """Per-mode Cartesian combinations v_r,k + i v_phi,k of disk.ModeTerms at radii r.

    Every mode row is evaluated with both kernel tables, the decay and the
    constant, in the generic form of mode_coefficients; mode 0 adds its
    cumulative integrals over r.
    """
    r = np.asarray(r, dtype=float)
    coef = mode_coefficients(terms)
    coef = coef[0] + 1j * coef[1]
    decay = np.exp(np.multiply.outer(np.abs(terms.ks) + 1.0, np.log(terms.r0 / r)))
    out = (coef[0, :, None] * scaled_integrals_at(terms.inner, r)
           + coef[1, :, None] * scaled_integrals_at(terms.outer, r)
           + coef[2, :, None] * decay + coef[3, :, None])
    for mu, integral in zip((1.0, 1.0j), terms.zero):
        if integral is not None:
            out[terms.ks == 0] += mu * integral.at(r) / r
    return out


def reference_sample(terms, points, block=2048):
    """Cartesian velocity at points from every mode row at once, in point blocks.

    mode_values gives all rows v_r,k + i v_phi,k at the radii; the phases
    e^{i k phi} are one cumulative product over all modes and one einsum sums
    them, with no band over the modes.  Terms held on k >= 0 are unfolded
    to -K..K first (full_terms).
    """
    terms = full_terms(terms)
    flat = np.asarray(points, dtype=complex).ravel()
    K = terms.K
    out = np.empty(flat.size, dtype=complex)
    for i in range(0, flat.size, block):
        z = flat[i : i + block]
        values = mode_values(terms, np.abs(z))
        unit = np.exp(1j * np.angle(z))
        phases = np.empty_like(values)
        phases[K] = 1.0
        phases[K + 1 :] = np.cumprod(np.broadcast_to(unit, (K, unit.size)), axis=0)
        phases[:K] = np.conj(phases[: K : -1])
        out[i : i + block] = np.einsum("kj,kj->j", values, phases) * unit
    return out.reshape(np.shape(points))


def reference_far_field_deviation_h1(solution, weights):
    """||v - v_inf||_{H1} from whole-array np.gradient and one einsum per term.

    weights are the trapezoid node weights of the grid.  Profiles held on
    k >= 0 (real data) are unfolded to -K..K first.
    """
    s = solution.grid.nodes
    K = solution.K
    v_r, v_phi = (unfold_rows(rows, K) for rows in solution.rows)
    ik = 1j * np.arange(-K, K + 1)[:, None]
    vinf = np.zeros((2 * K + 1, 2), dtype=complex)
    far = solution.far_field
    for k in (-1, 1):
        vinf[K + k] = 0.5 * (far.v1 - 1j * k * far.v2), 0.5 * (far.v2 + 1j * k * far.v1)

    def power(values):
        flat = np.ascontiguousarray(values, dtype=complex).view(float)
        return np.einsum("kj,kj->j", flat, flat).reshape(-1, 2).sum(axis=1)

    def norm(p):
        return float(np.sqrt(2.0 * np.pi * (p @ (weights * s * 1.0))))

    l2 = norm(power(v_r - vinf[:, :1]) + power(v_phi - vinf[:, 1:]))
    p = power(np.gradient(v_r, s, axis=1))
    p += power(np.gradient(v_phi, s, axis=1))
    p += power((ik * v_r - v_phi) / s)
    p += power((ik * v_phi + v_r) / s)
    return float(np.hypot(l2, norm(p)))


def sequential_power(count, s, terms):
    """The sum of norms._power over terms: terms(band) yields the band's rows of every term.

    Each term's squares are summed row after row over the float view, the
    running sum carried from band to band, as norms._power sums one term,
    and the terms are added in order at the end.
    """
    acc = {}
    for band in _bands(count, s.size):
        for t, values in enumerate(terms(band)):
            flat = np.ascontiguousarray(values, dtype=complex).view(float)
            rows = np.empty((len(flat) + 1, flat.shape[1]))
            rows[0] = acc.get(t, 0.0)
            np.multiply(flat, flat, out=rows[1:])
            acc[t] = rows.sum(axis=0)
    return sum(a.reshape(-1, 2).sum(axis=1) for a in acc.values())


def reference_closed_form(modes, corrections, lo, hi):
    """fn(r, phi) of the polynomial-bump modes summed one mode at a time on the
    broadcast shape: c_k = lambda_k + amplitude_k * poly_k(t) per mode, with
    2 Re(c_k e^{ik phi}) for k > 0 and e^{ik phi} built by products."""
    top = max(len(modes) - 1, max(corrections, default=0))

    def fn(r, phi):
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        t = (2.0 * r - (lo + hi)) / (hi - lo)
        e = np.exp(1j * phi)
        power = np.ones_like(e)
        total = np.zeros(np.broadcast(r, phi).shape, dtype=complex)
        for k in range(top + 1):
            c = corrections.get(k, 0.0)
            if k < len(modes):
                amp, a = modes[k]
                c = c + amp * (a[0] + a[1] * t + a[2] * t * t)
            if k == 0:
                total += c
            else:
                power = power * e
                total += 2.0 * (c * power).real
        return smooth_bump(r, lo, hi) * total

    return fn


def reference_field_values(field, fn, rr, pp):
    """Data at every lattice point: the callable, else each mode profile
    interpolated linearly in r at every point and synthesised with its phase."""
    if fn is not None:
        return np.asarray(fn(rr, pp), dtype=complex)
    out = np.zeros(rr.shape, dtype=complex)
    for k, row in zip(range(-field.K, field.K + 1), field.coeffs):
        profile = (np.interp(rr, field.grid.nodes, row.real)
                   + 1j * np.interp(rr, field.grid.nodes, row.imag))
        out += profile * np.exp(1j * k * pp)
    return out


def reference_biot_savart_disk(x, problem, n_radial, n_angular, n_boundary, support=None):
    """The disk oracle's quadrature summed one point at a time, same shape as x."""
    grid = problem.grid
    lo, hi = support if support is not None else (grid.r0, grid.rmax)
    radii = lo + (np.arange(n_radial) + 0.5) * (hi - lo) / n_radial
    angles = 2.0 * np.pi * np.arange(n_angular) / n_angular
    rr, pp = np.meshgrid(radii, angles, indexing="ij")
    area = rr * (hi - lo) / n_radial * (2.0 * np.pi / n_angular)
    w = reference_field_values(problem.vorticity, problem.vorticity_fn, rr, pp)
    rho = reference_field_values(problem.divergence, problem.divergence_fn, rr, pp)
    sources = (rr * np.exp(1j * pp)).ravel()
    charge = ((rho + 1j * w) * area).ravel()

    theta = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    ks = np.arange(-problem.boundary.K, problem.boundary.K + 1)
    phases = np.exp(1j * np.outer(ks, theta))
    g = problem.boundary.g_r @ phases + 1j * (problem.boundary.g_phi @ phases)
    ring = grid.r0 * np.exp(1j * theta)
    layer = g * (grid.r0 * 2.0 * np.pi / n_boundary)

    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    flat = out.reshape(-1)
    for i, xi in enumerate(x.ravel()):
        total = reference_kernel_sum(xi, sources, charge)
        total += reference_kernel_sum(xi, ring, layer)
        flat[i] = total / (2.0 * np.pi) + problem.far_field.as_complex
    return out


def fd_div_curl(sample, points, h):
    """Central-difference divergence and curl of a complex-packed field."""
    vxp = sample(points + h)
    vxm = sample(points - h)
    vyp = sample(points + 1j * h)
    vym = sample(points - 1j * h)
    div = (vxp.real - vxm.real) / (2 * h) + (vyp.imag - vym.imag) / (2 * h)
    curl = (vxp.imag - vxm.imag) / (2 * h) - (vyp.real - vym.real) / (2 * h)
    return div, curl


def cylinder_flow(points, r0=1.0, speed=1.0):
    """Classical zero-circulation potential flow past the disk, v1 + i v2."""
    z = np.asarray(points, dtype=complex)
    return np.conj(speed * (1.0 - r0**2 / (z * z)))


def cylinder_flow_polar(r, phi, r0=1.0, speed=1.0):
    v_r = speed * np.cos(phi) * (1.0 - r0**2 / r**2)
    v_phi = -speed * np.sin(phi) * (1.0 + r0**2 / r**2)
    return v_r, v_phi


def continuum_velocity(problem, points, support, panels=60, order=24, angles=64):
    """v1 + i v2 at the points from the module formula of disk, with continuum integrals.

    The modes |k| <= K of problem.vorticity_fn and divergence_fn (None is
    zero) are the FFT of `angles` equispaced samples at each quadrature node.
    a_k(r) integrates over [lo, r] and b_k(r) over [r, hi], support = (lo, hi)
    holding the data, by composite Gauss-Legendre (`panels` panels of `order`
    nodes); mode 0 integrates s w_0 and s rho_0 over [lo, r] the same way.
    The trace modes and v_inf are the problem's.  No radial grid, trapezoid
    or kernel table of the solver enters.
    """
    K, r0, g, (lo, hi) = problem.K, problem.grid.r0, problem.boundary, support
    x, weights = np.polynomial.legendre.leggauss(order)
    phi = 2.0 * np.pi * np.arange(angles) / angles
    ks = np.arange(-K, K + 1)
    m, sigma = np.abs(ks)[:, None], np.sign(ks)[:, None]
    rules = {}

    def rule(a, b):
        """(nodes, weights, w modes, rho modes) on [a, b]; the modes (2K+1, nodes)."""
        if (a, b) not in rules:
            edges = np.linspace(a, b, panels + 1)
            half = 0.5 * np.diff(edges)[:, None]
            s = (0.5 * (edges[:-1, None] + edges[1:, None]) + half * x).ravel()
            modes = [np.zeros((len(ks), s.size), dtype=complex) if fn is None else
                     (np.fft.fft(np.broadcast_to(fn(s[:, None], phi), (s.size, angles)), axis=1)
                      / angles)[:, ks % angles].T
                     for fn in (problem.vorticity_fn, problem.divergence_fn)]
            rules[a, b] = (s, (half * weights).ravel(), *modes)
        return rules[a, b]

    d = 0.5 * (g.g_phi - 1j * sigma[:, 0] * g.g_r)
    zero = K
    flat = np.ravel(np.asarray(points, dtype=complex))
    out = np.full(flat.size, problem.far_field.as_complex, dtype=complex)
    for i, z in enumerate(flat):
        r = abs(z)
        cut = min(max(r, lo), hi)
        s, q, w, rho = rule(lo, cut)
        a = ((s / r) ** (m + 1) * (w - 1j * sigma * rho)) @ q
        inner = [(s * rho[zero]) @ q, (s * w[zero]) @ q]
        s, q, w, rho = rule(cut, hi)
        b = ((r / s) ** (m - 1) * (w + 1j * sigma * rho)) @ q
        decay = d * (r0 / r) ** (m[:, 0] + 1)
        v_r = 0.5j * sigma[:, 0] * (a + b) + 1j * sigma[:, 0] * decay
        v_phi = 0.5 * (a - b) + decay
        v_r[zero] = (inner[0] + r0 * g.g_r[zero]) / r
        v_phi[zero] = (inner[1] + r0 * g.g_phi[zero]) / r
        out[i] += np.sum((v_r + 1j * v_phi) * (z / r) ** (ks + 1))
    return out.reshape(np.shape(points))


def observed_order(errors):
    """Mean convergence order across a refinement-by-two ladder."""
    errors = np.asarray(errors, dtype=float)
    return float(np.log2(errors[0] / errors[-1]) / (len(errors) - 1))


def run_in_child(target, args, timeout):
    """Exit code of target(*args) run in a forked child; a child still alive after
    timeout seconds is killed, so a deadlock fails its test and hangs nothing."""
    child = multiprocessing.get_context("fork").Process(target=target, args=args)
    child.start()
    child.join(timeout)
    if child.is_alive():
        child.kill()
        child.join()
    return child.exitcode
