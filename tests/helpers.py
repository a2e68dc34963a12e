"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's solver path: brute-force
nested quadrature of the mode formulas, finite-difference operators, and
closed-form classical flows.
"""

from bisect import bisect_right

import numpy as np


def mp_mode_profiles(k, nodes, w_k, rho_k, g_r_k, g_phi_k, vinf, radii, dps=60):
    """High-precision (mpmath) evaluation of the mode-k trapezoid formulas at radii.

    Same sums as the solver: composite trapezoid of s^{k+1}(w - i rho) from
    r0 and of s^{-k+1}(w + i rho) to rmax, with the integrand interpolated
    linearly inside one panel off the nodes (CumulativeIntegral.at).  The
    suffix is summed directly and every power is formed in dps digits, so
    neither overflow nor cancellation enters the reference.  vinf(k) gives
    the far-field pair (v_r,k^inf, v_phi,k^inf); k < 0 solves the conjugated
    problem for -k, k = 0 the radial/azimuthal cumulative formulas.
    """
    import mpmath

    if k < 0:
        v_r, v_phi = mp_mode_profiles(-k, nodes, np.conj(w_k), np.conj(rho_k), np.conj(g_r_k),
                                      np.conj(g_phi_k), vinf, radii, dps)
        return np.conj(v_r), np.conj(v_phi)
    with mpmath.workdps(dps):
        s = [mpmath.mpf(float(x)) for x in nodes]
        r0 = s[0]

        def integrals(values, power):
            """(prefix, suffix) of s^power * values at each radius."""
            f = [mpmath.mpc(complex(v)) * si**power for v, si in zip(values, s)]
            panels = [(s[t + 1] - s[t]) / 2 * (f[t] + f[t + 1]) for t in range(len(s) - 1)]
            out = []
            for radius in radii:
                idx = min(max(bisect_right(nodes, radius) - 1, 0), len(s) - 2)
                r = mpmath.mpf(float(radius))
                frac = (r - s[idx]) / (s[idx + 1] - s[idx])
                f_at = f[idx] + (f[idx + 1] - f[idx]) * frac
                partial = (r - s[idx]) / 2 * (f[idx] + f_at)
                out.append((mpmath.fsum(panels[:idx]) + partial,
                            mpmath.fsum(panels[idx + 1:]) + panels[idx] - partial))
            return out

        w_k = np.asarray(w_k, dtype=complex)
        rho_k = np.asarray(rho_k, dtype=complex)
        g_r_k = mpmath.mpc(complex(g_r_k))
        g_phi_k = mpmath.mpc(complex(g_phi_k))
        vinf_r, vinf_phi = (mpmath.mpc(complex(x)) for x in vinf(k))
        v_r, v_phi = [], []
        if k == 0:
            for radius, (a_rho, _), (a_w, _) in zip(radii, integrals(rho_k, 1), integrals(w_k, 1)):
                r = mpmath.mpf(float(radius))
                v_r.append(complex((a_rho + r0 * g_r_k) / r))
                v_phi.append(complex((a_w + r0 * g_phi_k) / r))
            return np.array(v_r), np.array(v_phi)
        alpha = r0 ** (k + 1) * (g_phi_k - 1j * g_r_k) / 2
        inner = integrals(w_k - 1j * rho_k, k + 1)
        outer = integrals(w_k + 1j * rho_k, 1 - k)
        for radius, (a, _), (_, b) in zip(radii, inner, outer):
            r = mpmath.mpf(float(radius))
            decay = r ** (-k - 1)
            grow = r ** (k - 1)
            v_r.append(complex(0.5j * decay * a + 0.5j * grow * b + 1j * alpha * decay + vinf_r))
            v_phi.append(complex(0.5 * decay * a - 0.5 * grow * b + alpha * decay + vinf_phi))
        return np.array(v_r), np.array(v_phi)


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


def observed_order(errors):
    """Mean convergence order across a refinement-by-two ladder."""
    errors = np.asarray(errors, dtype=float)
    return float(np.log2(errors[0] / errors[-1]) / (len(errors) - 1))
