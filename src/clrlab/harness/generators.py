"""Seeded random instances: matrix tuples, admissible functions, potentials.

Everything here is a pure function of its numpy Generator (or integer
seed), so identical seeds reproduce identical instances byte for byte.
Random PSD matrices come only as whole tuples (``random_psd_tuple``): the
time-ordered experiments draw one tuple per trial and gaussian-bumps one
per field, its bump amplitudes.  Each matrix takes its draws from the
generator in turn, and the tuple is normalised as one stack.
"""

from __future__ import annotations

import numpy as np

from ..config import MAX_MATRIX_DIM
from ..lattice import GridSpec, MatrixPotential
from ..timeorder import ScalarFunctionClass

POTENTIAL_STYLES = ("gaussian-bumps", "random-psd-field", "scalar-embed")
# Power and rate caps of random admissible functions; bumps per gaussian-bumps field.
_MAX_POWER = 6
_ALPHA_CAP = 2.0
_NBUMPS = 3


def rng_from(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_psd_tuple(
    rng: np.random.Generator,
    count: int,
    n: int,
    low: float,
    high: float,
    scale: float = 1.0,
) -> np.ndarray:
    """count random n x n PSD matrices, as one (count, n, n) complex stack.

    Matrix i is G G^H for a complex Gaussian G, scaled so that its largest
    eigenvalue is scale * u_i with u_i uniform in [low, high).  Matrix by
    matrix, the generator draws u_i, then the real and the imaginary part
    of G.  The products and the spectra that fix the scale are taken for
    the whole stack at once.
    """
    tops = np.empty(count)
    g = np.empty((count, n, n), dtype=complex)
    for i in range(count):
        tops[i] = scale * rng.uniform(low, high)
        g[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g @ g.conj().swapaxes(1, 2)
    return (tops / np.linalg.eigvalsh(a)[:, -1])[:, None, None] * a


def random_admissible_function(rng: np.random.Generator) -> ScalarFunctionClass:
    """Random admissible function: monomial, exponential, or a convex mix.

    Monomial powers stay in 2..6 (_MAX_POWER), exponential growth rates
    within [-2, 2] (_ALPHA_CAP); mixtures carry non-negative weights plus a
    free affine part, matching the sign constraints of the class.
    """
    kind = rng.integers(0, 3)
    if kind == 0:
        k = int(rng.integers(2, _MAX_POWER + 1))
        return ScalarFunctionClass.monomial(k, coeff=float(rng.uniform(0.2, 1.0)))
    if kind == 1:
        alpha = float(rng.uniform(-_ALPHA_CAP, _ALPHA_CAP))
        return ScalarFunctionClass.exponential(alpha, weight=float(rng.uniform(0.2, 1.0)))
    total = ScalarFunctionClass(
        poly_coeffs=(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.0, 1.0)))
    )
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(2, _MAX_POWER + 1))
        total = total + ScalarFunctionClass.monomial(k, coeff=float(rng.uniform(0.0, 0.8)))
    for _ in range(int(rng.integers(1, 3))):
        alpha = float(rng.uniform(-_ALPHA_CAP, _ALPHA_CAP))
        total = total + ScalarFunctionClass.exponential(
            alpha, weight=float(rng.uniform(0.0, 0.8))
        )
    return total


def _gaussian_bump_values(
    rng: np.random.Generator,
    grid: GridSpec,
    n: int,
    amplitude: float,
) -> np.ndarray:
    # Draw every bump parameter before touching site coordinates, so the
    # same seed describes the same continuum field at every resolution.
    extent = np.asarray(grid.extent)
    centers = rng.uniform(0.0, 1.0, size=(_NBUMPS, grid.d)) * extent
    sigmas = rng.uniform(0.12, 0.28, size=_NBUMPS) * float(np.min(extent))
    amps = random_psd_tuple(rng, _NBUMPS, n, 0.5, 1.0, scale=amplitude)

    coords = grid.site_coords()
    values = np.zeros((grid.nsites, n, n), dtype=complex)
    for c, s, amp in zip(centers, sigmas, amps):
        r2 = np.sum((coords - c) ** 2, axis=1)
        values += np.exp(-r2 / s**2)[:, None, None] * amp[None, :, :]
    return values


def _psd_field_values(
    rng: np.random.Generator,
    grid: GridSpec,
    n: int,
    amplitude: float,
) -> np.ndarray:
    nsites = grid.nsites
    g = rng.standard_normal((nsites, n, n)) + 1j * rng.standard_normal((nsites, n, n))
    raw = np.einsum("xij,xkj->xik", g, g.conj()) / (2.0 * n)
    raw *= (amplitude * rng.uniform(0.3, 1.0, size=nsites))[:, None, None]

    # One stencil averaging pass; neighbors beyond the walls drop out of the
    # convex combination, which keeps every site PSD.
    pts = grid.points_per_axis
    arr = raw.reshape(*pts, n, n)
    total = arr.copy()
    count = np.ones(pts, dtype=float)
    for ax in range(grid.d):
        lower = (slice(None),) * ax + (slice(None, -1),)
        upper = (slice(None),) * ax + (slice(1, None),)
        # each site adds its lower neighbour along the axis, then its upper one
        total[upper] += arr[lower]
        count[upper] += 1.0
        total[lower] += arr[upper]
        count[lower] += 1.0
    smoothed = total / count[..., None, None]
    return smoothed.reshape(nsites, n, n)


def generate_potential(
    seed,
    grid: GridSpec,
    N: int,
    style: str,
    amplitude: float = 1.0,
) -> MatrixPotential:
    """Deterministic sitewise-PSD potential in one of three styles.

    gaussian-bumps: sum of three Gaussian profiles with random PSD amplitude
    matrices; the bump parameters depend only on the seed and the box, so
    refining the grid samples the same continuum field.
    random-psd-field: i.i.d. PSD site draws smoothed by one stencil
    averaging pass.
    scalar-embed: a scalar (N=1) bump field times the identity, so counts
    are exactly N times the scalar counts.
    The amplitude must be finite and >= 0; an infinite one would give NaN
    sites.
    """
    n = int(N)
    if n < 1 or n > MAX_MATRIX_DIM:
        raise ValueError(f"N must be in [1, {MAX_MATRIX_DIM}], got {n}")
    amplitude = float(amplitude)
    if not 0.0 <= amplitude < np.inf:
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    if style not in POTENTIAL_STYLES:
        raise ValueError(f"style must be one of {POTENTIAL_STYLES}, got {style!r}")

    rng = rng_from(seed)
    if style == "gaussian-bumps":
        values = _gaussian_bump_values(rng, grid, n, amplitude)
    elif style == "random-psd-field":
        values = _psd_field_values(rng, grid, n, amplitude)
    else:
        scalar = _gaussian_bump_values(rng, grid, 1, amplitude)
        values = scalar[:, 0, 0][:, None, None].real * np.eye(n)[None, :, :]
    return MatrixPotential(grid=grid, N=n, values=values)
