"""Polar spectral grids: radial nodes, angular Fourier transforms, boundary traces.

A SpectralField holds its coefficients read-only.  The public constructor
and dataclasses.replace copy the array they are given; zeros, from_modes,
add_modes and analyze hand over the array they have just built, with no
second copy.  A zero field (SpectralField.zeros) is a zero-stride view of one
shared read-only zero: it holds no memory per node, whatever K and M.  Every
field is scanned once, when it is made (_scan), and the solver reads that scan.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .quadrature import _bands

__all__ = [
    "RadialGrid",
    "SpectralField",
    "BoundaryTrace",
    "analyze",
    "synthesize",
    "synthesize_boundary",
    "equispaced_angles",
    "analysis_angles",
    "smooth_bump",
]


def _frozen_array(values, dtype=None):
    """A read-only copy of values that owns its data: the one copy a constructed field makes."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


# the one complex zero every zero field is a view of
_ZERO = np.zeros((1, 1), dtype=complex)
_ZERO.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing radial nodes r0 = s_0 < s_1 < ... < s_M = rmax with r0 > 0.

    rmax is the truncation radius; fields fed to the solver are assumed
    supported inside [r0, rmax], which makes every integral to infinity a
    finite one over the grid span.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _frozen_array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 9:
            raise ValueError("need at least 9 radial nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("radial nodes must be finite")
        if nodes[0] <= 0.0:
            raise ValueError("inner radius must be positive")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("radial nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def r0(self) -> float:
        return float(self.nodes[0])

    @property
    def rmax(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return self.nodes.size

    @classmethod
    def uniform(cls, r0: float, rmax: float, count: int) -> "RadialGrid":
        if rmax <= r0:
            raise ValueError("rmax must exceed r0")
        return cls(np.linspace(r0, rmax, count))

    @classmethod
    def geometric(cls, r0: float, rmax: float, count: int, ratio: float = 1.01) -> "RadialGrid":
        """Graded nodes with panel widths growing by `ratio`, denser near r0."""
        if rmax <= r0:
            raise ValueError("rmax must exceed r0")
        if ratio <= 0.0:
            raise ValueError("panel ratio must be positive")
        if abs(ratio - 1.0) < 1e-12 or count < 2:  # too few nodes: the constructor says so
            return cls.uniform(r0, rmax, count)
        m = count - 1
        try:
            h0 = (rmax - r0) * (ratio - 1.0) / (ratio**m - 1.0)
        except OverflowError:
            raise ValueError(f"panel ratio {ratio} overflows over {m} panels: "
                             f"ratio**{m} is out of range") from None
        nodes = np.concatenate(([r0], r0 + np.cumsum(h0 * ratio ** np.arange(m))))
        nodes[-1] = rmax
        return cls(nodes)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Per-mode radial profiles f_k(s_j) for |k| <= K on a shared radial grid.

    coeffs has shape (2K+1, len(grid)); row k + K holds mode k.  Real-valued
    physical fields satisfy f_{-k} = conj(f_k) at every node.  coeffs is
    read-only: a copy of the array given to the constructor, the array
    from_modes, add_modes and analyze build, or for zeros a zero-stride view.
    _scanned is _scan of coeffs, taken when the field is made; repr ignores
    it, and == is identity, as for every dataclass here that holds arrays.
    """

    grid: RadialGrid
    K: int
    coeffs: np.ndarray

    def __post_init__(self):
        self._hold(_frozen_array(self.coeffs, dtype=complex))

    def _hold(self, coeffs: np.ndarray):
        """Keep the read-only complex coeffs and their scan once K and their shape are checked."""
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        if coeffs.shape != (2 * self.K + 1, len(self.grid)):
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match "
                f"(2K+1, nodes) = {(2 * self.K + 1, len(self.grid))}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_scanned", _scan(coeffs))

    @classmethod
    def _taking(cls, grid: RadialGrid, K: int, coeffs) -> "SpectralField":
        """The field of K and complex coeffs, holding coeffs itself: callers
        pass an array they have just built and keep no writable reference to."""
        field = cls.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "K", K)
        coeffs.setflags(write=False)
        field._hold(coeffs)
        return field

    def coeff(self, k: int) -> np.ndarray:
        if abs(k) > self.K:
            raise ValueError(f"mode {k} outside resolved band |k| <= {self.K}")
        return self.coeffs[k + self.K]

    @classmethod
    def zeros(cls, grid: RadialGrid, K: int) -> "SpectralField":
        """The zero field: a read-only zero-stride view, no memory per node."""
        if K < 0:
            raise ValueError("K must be nonnegative")
        return cls._taking(grid, K, np.broadcast_to(_ZERO, (2 * K + 1, len(grid))))

    @classmethod
    def from_modes(cls, grid: RadialGrid, K: int, mode_profiles: dict) -> "SpectralField":
        coeffs = np.zeros((2 * K + 1, len(grid)), dtype=complex)
        for k, profile in mode_profiles.items():
            if abs(k) > K:
                raise ValueError(f"mode {k} outside |k| <= {K}")
            coeffs[k + K] = np.asarray(profile, dtype=complex)
        return cls._taking(grid, K, coeffs)

    def add_modes(self, mode_deltas: dict) -> "SpectralField":
        """Return a new field with per-mode increments added."""
        coeffs = np.array(self.coeffs)
        for k, delta in mode_deltas.items():
            if abs(k) > self.K:
                raise ValueError(f"mode {k} outside |k| <= {self.K}")
            coeffs[k + self.K] = coeffs[k + self.K] + np.asarray(delta, dtype=complex)
        return SpectralField._taking(self.grid, self.K, coeffs)


@dataclass(frozen=True, eq=False)
class BoundaryTrace:
    """Fourier coefficients (g_{r,k}, g_{phi,k}) of the boundary velocity, |k| <= K."""

    K: int
    g_r: np.ndarray
    g_phi: np.ndarray

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        for name in ("g_r", "g_phi"):
            arr = _frozen_array(getattr(self, name), dtype=complex)
            if arr.shape != (2 * self.K + 1,):
                raise ValueError(f"{name} must have shape (2K+1,) = ({2 * self.K + 1},)")
            object.__setattr__(self, name, arr)

    def coeff_r(self, k: int) -> complex:
        return complex(self.g_r[k + self.K]) if abs(k) <= self.K else 0.0 + 0.0j

    def coeff_phi(self, k: int) -> complex:
        return complex(self.g_phi[k + self.K]) if abs(k) <= self.K else 0.0 + 0.0j

    @classmethod
    def zeros(cls, K: int) -> "BoundaryTrace":
        n = 2 * K + 1
        return cls(K, np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))

    @classmethod
    def from_coeffs(cls, K: int, radial: dict = None, tangential: dict = None) -> "BoundaryTrace":
        g_r = np.zeros(2 * K + 1, dtype=complex)
        g_phi = np.zeros(2 * K + 1, dtype=complex)
        for values, coeffs in ((g_r, radial), (g_phi, tangential)):
            for k, val in (coeffs or {}).items():
                if abs(k) > K:
                    raise ValueError(f"mode {k} outside |k| <= {K}")
                values[k + K] = val
        return cls(K, g_r, g_phi)

    @classmethod
    def from_samples(cls, gr_samples, gphi_samples, K: int) -> "BoundaryTrace":
        """Angular DFT of polar-frame samples on equispaced angles (see analyze)."""
        g_r = _dft_coefficients(np.asarray(gr_samples)[None, :], K)[:, 0]
        g_phi = _dft_coefficients(np.asarray(gphi_samples)[None, :], K)[:, 0]
        return cls(K, g_r, g_phi)

    def padded(self, K: int) -> "BoundaryTrace":
        if K < self.K:
            raise ValueError("cannot pad to a smaller band")
        if K == self.K:
            return self
        g_r = np.zeros(2 * K + 1, dtype=complex)
        g_phi = np.zeros(2 * K + 1, dtype=complex)
        sl = slice(K - self.K, K + self.K + 1)
        g_r[sl] = self.g_r
        g_phi[sl] = self.g_phi
        return BoundaryTrace(K, g_r, g_phi)


def _scan(values) -> tuple:
    """(max |values| of each column, read-only; exact-mirror flag) of a (modes, columns) array.

    Row k + K holds mode k; the flag says that row K - m equals conj(row K + m)
    for every m.  A mirrored row has its mirror's moduli, so rows k < 0 are
    read only once a band breaks the mirror.  A zero-stride array (a zero
    field) is answered from its one value v: maxima |v|, mirrored iff
    v == conj(v).  A NaN or inf stays in the maxima.
    """
    if not any(values.strides):
        v = values[(0,) * values.ndim]
        return np.broadcast_to(abs(v), values.shape[1:]), bool(v == np.conj(v))
    K = len(values) // 2
    top, mirrored = np.zeros(values.shape[1]), True
    for band in _bands(K + 1, values.shape[1]):
        pos = values[K + band.start : K + band.stop]
        neg = values[K - band.stop + 1 : K - band.start + 1][::-1]
        np.maximum(top, np.max(np.abs(pos), axis=0), out=top)
        mirrored = mirrored and np.array_equal(neg, np.conj(pos))
        if not mirrored:
            np.maximum(top, np.max(np.abs(neg), axis=0), out=top)  # NaN stays NaN
    top.setflags(write=False)
    return top, mirrored


def equispaced_angles(count: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(count) / count


def analysis_angles(K: int) -> np.ndarray:
    """max(4K, 64) equispaced angles: the samples analyzed into the modes |k| <= K, K >= 1."""
    return equispaced_angles(max(4 * K, 64))


def _dft_coefficients(samples: np.ndarray, K: int) -> np.ndarray:
    """Rows of discrete angular Fourier coefficients for k = -K..K, a new
    C-ordered array (2K+1, samples.shape[:-1]).

    Real samples (or complex ones with zero imaginary parts) take the
    real-input transform, so their rows k < 0 are exactly the conjugates.
    """
    n = samples.shape[-1]
    if n < 2 * K + 1:
        raise ValueError(
            f"{n} angular samples cannot resolve modes |k| <= {K} without aliasing; "
            f"need at least {2 * K + 1} equispaced angles"
        )
    if np.iscomplexobj(samples) and np.any(samples.imag):
        coeffs = np.moveaxis(np.fft.fft(samples, axis=-1), -1, 0)[np.arange(-K, K + 1) % n]
        coeffs /= n
        return coeffs
    half = np.moveaxis(np.fft.rfft(samples.real, axis=-1), -1, 0)[: K + 1]
    coeffs = np.empty((2 * K + 1,) + half.shape[1:], dtype=complex)
    np.divide(half, n, out=coeffs[K:])
    np.conjugate(coeffs[:K:-1], out=coeffs[:K])
    return coeffs


def analyze(grid: RadialGrid, samples, K: int) -> SpectralField:
    """Angular Fourier analysis of samples on the (node, angle) tensor lattice.

    samples[j, a] is the field value at radius nodes[j] and angle 2*pi*a/n.
    Exact inverse of synthesize on band-limited data with n >= 2K+1.  The
    modes of real samples are exactly mirrored, f_{-k} = conj(f_k).
    """
    samples = np.asarray(samples)
    if samples.shape[0] != len(grid):
        raise ValueError("sample rows must match radial node count")
    return SpectralField._taking(grid, K, _dft_coefficients(samples, K))


def synthesize(field: SpectralField, angles) -> np.ndarray:
    """Pointwise mode sum over the given angles, shape (nodes, len(angles))."""
    angles = np.asarray(angles, dtype=float)
    ks = np.arange(-field.K, field.K + 1)
    phases = np.exp(1j * np.outer(ks, angles))
    return field.coeffs.T @ phases


def synthesize_boundary(trace: BoundaryTrace, angles):
    """Polar-frame boundary samples (g_r, g_phi) at the given angles."""
    angles = np.asarray(angles, dtype=float)
    ks = np.arange(-trace.K, trace.K + 1)
    phases = np.exp(1j * np.outer(ks, angles))
    return trace.g_r @ phases, trace.g_phi @ phases


def smooth_bump(s, lo: float, hi: float) -> np.ndarray:
    """C-infinity bump supported on (lo, hi), peak value 1 at the midpoint."""
    if hi <= lo:
        raise ValueError("bump needs lo < hi")
    s = np.asarray(s, dtype=float)
    t = (2.0 * s - (lo + hi)) / (hi - lo)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out
