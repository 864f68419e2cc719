"""Expectation values by the operator route and the phase-space route,
uncertainty/blob reports, purity, negativity, and Ehrenfest tracking
against a classical RK4 oracle.

Mixed x*p monomials use the Weyl (symmetric) correspondence on the
operator side, which is the unique ordering that makes the two routes
agree.
"""

from dataclasses import dataclass, asdict

import numpy as np

from .errors import StateError
from .potentials import Potential
from .states import Wavefunction, check_normalized
from .wigner import WignerFunction, purity  # purity: kept importable here

__all__ = [
    "MomentReport", "expectation_operator", "expectation_phase_space",
    "moments", "negativity", "ehrenfest_track", "classical_trajectory",
]

MAX_POLY_DEGREE = 4
# moment operator -> exponents (i, j) of its Weyl symbol x^i p^j
WEYL_SYMBOLS = {"x": (1, 0), "p": (0, 1), "x2": (2, 0), "p2": (0, 2),
                "sym_xp": (1, 1)}


@dataclass(frozen=True)
class MomentReport:
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    cov_xp: float
    uncertainty_product: float
    blob_area: float

    def as_dict(self) -> dict:
        return asdict(self)


def _derivative_samples(psi: Wavefunction) -> np.ndarray:
    g = psi.grid
    k = g.wavenumbers_x()
    k[g.n // 2] = 0.0  # unpaired Nyquist bin carries no odd derivative
    return np.fft.ifft(1j * k * np.fft.fft(psi.samples))


def expectation_operator(psi: Wavefunction, which: str,
                         potential: Potential | None = None) -> float:
    """<A> for A in {'x', 'p', 'x2', 'p2', 'H', 'sym_xp'}.

    Position moments by quadrature of |psi|^2; momentum moments
    spectrally via -i hbar d/dx; 'sym_xp' is <(xp + px)/2>, real by
    construction; 'H' needs the potential argument.
    """
    check_normalized(psi)
    g = psi.grid
    dx = g.dx
    density = np.abs(psi.samples) ** 2
    if which == "x":
        return float(np.sum(g.x * density) * dx)
    if which == "x2":
        return float(np.sum(g.x ** 2 * density) * dx)
    dpsi = _derivative_samples(psi)
    if which == "p":
        return float(np.real(np.sum(np.conj(psi.samples)
                                    * (-1j * g.hbar) * dpsi) * dx))
    if which == "p2":
        return float(g.hbar ** 2 * np.sum(np.abs(dpsi) ** 2) * dx)
    if which == "sym_xp":
        return float(np.real(np.sum(np.conj(psi.samples) * g.x
                                    * (-1j * g.hbar) * dpsi) * dx))
    if which == "H":
        if potential is None:
            raise StateError("expectation of H requires a potential")
        kinetic = g.hbar ** 2 * np.sum(np.abs(dpsi) ** 2) * dx / (2 * g.mass)
        return float(kinetic + np.sum(potential.value(g.x) * density) * dx)
    raise StateError(f"unknown observable {which!r}")


def expectation_phase_space(w: WignerFunction, poly: dict) -> float:
    """integral f(x, p) W(x, p) dx dp for f a polynomial in (x, p).

    poly maps exponent pairs (i, j) to coefficients; total degree is
    capped at 4 (higher moments amplify grid-edge noise).
    """
    total = w.total()
    if abs(total - 1.0) > 1e-6:
        raise StateError(f"Wigner field not normalized: integral = {total!r}")
    g = w.grid
    acc = 0.0
    for (i, j), coeff in poly.items():
        if i < 0 or j < 0 or i + j > MAX_POLY_DEGREE:
            raise StateError(
                f"monomial x^{i} p^{j} outside supported degree "
                f"(total degree <= {MAX_POLY_DEGREE})")
        acc += coeff * float((g.x ** i) @ w.values @ (g.p ** j))
    return acc * g.dx * g.dp


def moments(state) -> MomentReport:
    """First and second moments with the uncertainty product and the
    covariance-ellipse (blob) area sqrt(det Sigma).

    Accepts a Wavefunction (operator route) or a WignerFunction
    (phase-space route); the two agree on transform pairs.
    """
    if isinstance(state, Wavefunction):
        mx, mp, x2, p2, xp = (expectation_operator(state, operator)
                              for operator in WEYL_SYMBOLS)
    elif isinstance(state, WignerFunction):
        mx, mp, x2, p2, xp = (expectation_phase_space(state, {powers: 1.0})
                              for powers in WEYL_SYMBOLS.values())
    else:
        raise StateError(f"moments expects a state, got {type(state)!r}")
    var_x = x2 - mx ** 2
    var_p = p2 - mp ** 2
    cov = xp - mx * mp
    det = var_x * var_p - cov ** 2
    return MomentReport(
        mean_x=mx, mean_p=mp, var_x=var_x, var_p=var_p, cov_xp=cov,
        uncertainty_product=float(np.sqrt(max(var_x, 0.0) * max(var_p, 0.0))),
        blob_area=float(np.sqrt(max(det, 0.0))),
    )


def negativity(w: WignerFunction) -> tuple[float, float]:
    """(min over the grid, integral |W| - 1); both zero-ish for
    nonnegative W."""
    g = w.grid
    min_value = float(w.values.min())
    neg_volume = float(np.sum(np.abs(w.values)) * g.dx * g.dp - w.total())
    return min_value, neg_volume


def _rk4_orbit(x: float, p: float, potential: Potential, dt: float,
               schedule, mass: float, t: float) -> list:
    """Rows (t, x, p) after each leg of a schedule of step counts that
    starts at t: RK4 for dx/dt = p/m, dp/dt = -V'(x)."""
    def rhs(x, p):
        return p / mass, -potential.derivative(x, 1)

    rows = []
    for steps in schedule:
        for _ in range(steps):
            k1x, k1p = rhs(x, p)
            k2x, k2p = rhs(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
            k3x, k3p = rhs(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
            k4x, k4p = rhs(x + dt * k3x, p + dt * k3p)
            x += dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            p += dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        t += steps * dt
        rows.append((t, x, p))
    return rows


def classical_trajectory(x0: float, p0: float, potential: Potential,
                         t_grid, dt: float, mass: float = 1.0):
    """RK4 integration of dx/dt = p/m, dp/dt = -V'(x) from t = 0.

    Returns an array of rows (t, x, p) at the requested times, which
    must be (near-)multiples of dt.
    """
    from .dynamics import sample_steps  # local import: cycle break

    if dt <= 0:
        raise StateError(f"dt must be positive, got {dt}")
    schedule = sample_steps([float(t) for t in t_grid], dt)
    return np.array(_rk4_orbit(float(x0), float(p0), potential, dt,
                               schedule, mass, 0.0))


def ehrenfest_track(psi0: Wavefunction, potential: Potential, t_grid,
                    dt: float):
    """Quantum means along a Schrodinger evolution next to the classical
    trajectory launched from (<x>, <p>) at psi0.t.

    Returns rows (t, <x>, <p>, <F(x)>, F(<x>), classical_x, classical_p).
    The gap between <F(x)> and F(<x>) exposes how far the packet is from
    the single-orbit picture; it vanishes identically for quadratic V.
    """
    from .dynamics import propagate_schrodinger, sample_steps  # cycle break

    g = psi0.grid
    schedule = sample_steps(t_grid, dt, psi0.t)
    orbit = _rk4_orbit(expectation_operator(psi0, "x"),
                       expectation_operator(psi0, "p"), potential, dt,
                       schedule, g.mass, psi0.t)
    rows = []
    psi = psi0
    for steps, (_, x_cl, p_cl) in zip(schedule, orbit):
        psi = propagate_schrodinger(psi, potential, dt, steps)
        density = np.abs(psi.samples) ** 2
        mean_x = float(np.sum(g.x * density) * g.dx)
        mean_p = expectation_operator(psi, "p")
        mean_force = float(np.sum(potential.force(g.x) * density) * g.dx)
        force_at_mean = float(potential.force(mean_x))
        rows.append((psi.t, mean_x, mean_p, mean_force, force_at_mean,
                     x_cl, p_cl))
    return np.array(rows)
