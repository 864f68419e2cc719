"""Time propagation by three independent routes and their cross-validation.

Every route is a spectral Strang splitting run by one engine, `_strang`.
Route (a): split-step evolution of the wavefunction.
Route (b): exact phase-space evolution of the Wigner field -- kinetic
           shear and potential kick solved exactly by real FFTs over x
           and p, the kick in x' with the resummed kernel
           V(x + x'/2) - V(x - x'/2) (for quadratic V this reduces to
           the classical force term; the quantum series vanishes).
Route (c): two-coordinate Schrodinger-like evolution of the
           characteristic kernel Z(y, y').

A fourth, deliberately approximate route is route (b) with the kick
kernel cut to its Taylor series in x' up to the n_max-th quantum
correction; n_max = 0 is the classical Liouville equation.  Ehrenfest
tracking runs route (a) beside a classical orbit: the n_max = 0 route's
drift-kick map on one phase-space point, composed to fourth order.
"""

from dataclasses import dataclass, field
from itertools import accumulate
import math

import numpy as np

from .errors import MonitorError, PropagationError, StateError, is_integer
from .grid import PhaseGrid
from .observables import expectation_operator
from .potentials import Potential
from .states import Wavefunction, check_normalized
from .wigner import (HERMITICITY_TOL, CharacteristicZ, WignerFunction,
                     _hermiticity_defect, factorize_characteristic,
                     to_characteristic, wigner_transform)

__all__ = [
    "EvolutionReport", "propagate_schrodinger", "propagate_moyal_exact",
    "propagate_moyal_truncated", "propagate_characteristic",
    "cross_validate", "boundary_mass", "sample_steps", "ehrenfest_track",
    "classical_trajectory",
]

BANDWIDTH_FRACTION = 0.8      # admissible fraction of the momentum Nyquist
BANDWIDTH_TOL = 1e-8          # spectral mass allowed beyond that band
NORM_DRIFT_TOL = 1e-9
BOUNDARY_FLAG = 1e-8
BOUNDARY_HARD = 1e-4
MAX_STEPS = 10_000_000        # steps in one call or one schedule
# Yoshida's triple jump (Phys. Lett. A 150:262 (1990)): Strang steps of
# these fractions of dt compose to one step of fourth order
YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
YOSHIDA_WEIGHTS = (YOSHIDA_W1, 1.0 - 2.0 * YOSHIDA_W1, YOSHIDA_W1)


def _check_steps(dt: float, steps: int) -> None:
    if not 0 < dt < math.inf:   # NaN too
        raise PropagationError(f"nonpositive step, or not finite: dt = {dt}")
    if not (is_integer(steps) and steps >= 0):
        raise PropagationError(f"steps must be an integer >= 0, got {steps}")
    if steps > MAX_STEPS:
        raise PropagationError(
            f"{steps} steps exceed the bound MAX_STEPS = {MAX_STEPS}")


def sample_steps(sample_times, dt: float, t0: float = 0.0,
                 t_final: float | None = None) -> list:
    """Step counts that carry a run from t0 through the sample times,
    given in any order and taken in increasing order; each must lie a
    whole number of steps after the previous, and inside [t0, t_final]
    when t_final is given.  The counts sum to at most MAX_STEPS."""
    _check_steps(dt, 0)
    if not math.isfinite(t0):
        raise PropagationError(f"t0 must be finite, got {t0}")
    if t_final is not None and not math.isfinite(t_final):
        raise PropagationError(f"t_final must be finite, got {t_final}")
    sample_times = sorted(float(t) for t in sample_times)
    if t_final is not None and sample_times and not (
            t0 <= sample_times[0] <= sample_times[-1] <= t_final + 1e-12):
        raise PropagationError(
            f"sample times must lie inside [{t0:g}, t_final]")
    counts = []
    t = t0
    for target in sample_times:
        ratio = (target - t) / dt
        # an infinite or NaN ratio is no whole number of steps
        steps = round(ratio) if math.isfinite(ratio) else -1
        if abs(target - t - steps * dt) > 1e-9 * max(dt, 1.0) or steps < 0:
            raise PropagationError(
                f"sample time {target} is not a multiple of dt={dt}")
        counts.append(steps)
        t += steps * dt
    _check_steps(dt, sum(counts))
    return counts


def boundary_mass(values: np.ndarray) -> float:
    """Fraction of |field| mass in the outer 5% of every axis."""
    magnitude = np.abs(values)
    total = float(magnitude.sum())
    if total == 0.0:
        return 0.0
    # sum the edge slabs of a shrinking interior, so no cell counts twice
    inner = [slice(None)] * magnitude.ndim
    edge_sum = 0.0
    for ax in range(magnitude.ndim):
        n = magnitude.shape[ax]
        edge = max(1, n // 20)
        upper = max(edge, n - edge)
        for band in (slice(0, edge), slice(upper, n)):
            inner[ax] = band
            edge_sum += float(magnitude[tuple(inner)].sum())
        inner[ax] = slice(edge, upper)
    return edge_sum / total


def _check_boundary(route: str, step: int, t: float, mass: float,
                    flags: list | None) -> None:
    """MonitorError above BOUNDARY_HARD (NaN too); flag above BOUNDARY_FLAG."""
    if not mass <= BOUNDARY_HARD:
        raise MonitorError(route, step, t, "boundary mass", mass,
                           BOUNDARY_HARD)
    if flags is not None and mass > BOUNDARY_FLAG:
        flags.append(mass)


def _strang(route: str, values: np.ndarray, t0: float, dt: float,
            steps: int, forward, inverse, a_phase, kick, readings,
            boundary, flags: list | None) -> np.ndarray:
    """Apply e^{A dt/2} (e^{B dt} e^{A dt})^(steps-1) e^{B dt} e^{A dt/2}.

    a_phase(tau) multiplies forward(state) to apply e^{A tau}; kick
    applies e^{B dt}.  Merging the half steps leaves the state half an A
    step short of t0 + s*dt after step s < steps.  After each step every
    (quantity, value, threshold) of readings(values, spec) must stay
    within threshold (NaN trips too), else MonitorError, and then
    _check_boundary rules on the boundary mass.
    """
    a_full = a_phase(dt)
    a_half = a_phase(0.5 * dt)
    values = inverse(forward(values) * a_half)
    for step in range(1, steps + 1):
        spec = forward(kick(values))
        spec *= a_full if step < steps else a_half
        values = inverse(spec)
        mass = boundary(values)
        for quantity, value, threshold in readings(values, spec):
            if not value <= threshold:
                raise MonitorError(route, step, t0 + step * dt, quantity,
                                   value, threshold)
        _check_boundary(route, step, t0 + step * dt, mass, flags)
    return values


def propagate_schrodinger(psi: Wavefunction, potential: Potential,
                          dt: float, steps: int,
                          boundary_flags: list | None = None) -> Wavefunction:
    """Strang split-step evolution under H = p^2/2m + V(x).

    Half kinetic phase in momentum space, full potential phase in
    position space, half kinetic; adjacent kinetic halves merge, so a
    step costs one FFT pair.  Norm is conserved to machine precision per
    step; global error is O(dt^2).
    """
    _check_steps(dt, steps)
    if steps == 0:
        return psi
    check_normalized(psi)
    g = psi.grid
    p_op = g.hbar * g.wavenumbers_x()
    pot_full = np.exp(-1j * potential.value(g.x) * dt / g.hbar)
    band = np.abs(p_op) > BANDWIDTH_FRACTION * np.max(np.abs(p_op))

    def readings(samples, spec):
        # the kinetic phase leaves |spectrum| unchanged
        power = np.abs(spec) ** 2
        yield (f"spectral mass beyond {BANDWIDTH_FRACTION:.0%} of the "
               "momentum Nyquist", float(power[band].sum() / power.sum()),
               BANDWIDTH_TOL)
        yield ("norm drift",
               abs(float((np.abs(samples) ** 2).sum() * g.dx) - 1.0),
               NORM_DRIFT_TOL)

    samples = _strang(
        "schrodinger", psi.samples, psi.t, dt, steps,
        forward=np.fft.fft, inverse=np.fft.ifft,
        a_phase=lambda tau: np.exp(-1j * p_op ** 2 * tau
                                   / (2.0 * g.mass * g.hbar)),
        kick=lambda s: s * pot_full, readings=readings,
        boundary=lambda s: boundary_mass(np.abs(s) ** 2),
        flags=boundary_flags)
    return Wavefunction(g, samples, psi.t + steps * dt)


def _shear_phase(g: PhaseGrid, tau: float) -> np.ndarray:
    """Real-FFT multiplier advecting W in x by p*tau/m (exact); irfft
    reads only the real part of its unpaired Nyquist row."""
    kx = g.wavenumbers_x()[:g.n // 2 + 1]
    return np.exp(-1j * np.outer(kx, g.p) * tau / g.mass)


def _phase_space_split(route: str, w: WignerFunction, kernel, dt: float,
                       steps: int, flags: list | None) -> WignerFunction:
    """Shear-kick-shear evolution, each a real-FFT pair; the kick is
    exp(-i dt kernel / hbar) in x'.  W is real, so the pair takes the
    multiplier at -x' as the conjugate of that at x': set-up checks that
    the kernel is odd in x' bit for bit, else MonitorError at step 0."""
    _check_steps(dt, steps)
    if steps == 0:
        return w
    g = w.grid
    if g.n % 2:
        raise PropagationError(
            f"phase-space evolution needs an even sample count, got {g.n}")
    x = g.x[:, None]
    # real-FFT column c along p is x' = c dx: for even n p's centring cancels
    half_sep = 0.5 * np.arange(g.n // 2)[None, :] * g.dx
    kick_kernel = kernel(x, half_sep)
    odd_defect = kernel(x, -half_sep) + kick_kernel
    if not np.all(odd_defect == 0.0):   # NaN too
        raise MonitorError(route, 0, w.t, "kick kernel asymmetry in x'",
                           float(np.max(np.abs(odd_defect))), 0.0)
    # x' = -L/2, the last column, has no mirror: a factor 1 keeps it real
    kick_phase = np.ones((g.n, g.n // 2 + 1), dtype=complex)
    kick_phase[:, :-1] = np.exp(-1j * dt / g.hbar * kick_kernel).conj()
    total0 = w.total()

    def readings(values, spec):
        drift = abs(float(values.sum() * g.dx * g.dp - total0))
        yield ("phase-space norm drift", drift, NORM_DRIFT_TOL)

    # work buffers, overwritten every step
    p_spectrum = np.empty((g.n, g.n // 2 + 1), dtype=complex)
    x_spectrum = np.empty((g.n // 2 + 1, g.n), dtype=complex)
    plane = np.empty((g.n, g.n))

    def kick(v):
        np.fft.rfft(v, axis=1, out=p_spectrum)
        # spectrum first, in place: a fixed operand order fixes the rounding
        np.multiply(p_spectrum, kick_phase, out=p_spectrum)
        return np.fft.irfft(p_spectrum, g.n, axis=1, out=plane)

    values = _strang(
        route, w.values, w.t, dt, steps,
        forward=lambda v: np.fft.rfft(v, axis=0, out=x_spectrum),
        inverse=lambda spec: np.fft.irfft(spec, g.n, axis=0, out=plane),
        a_phase=lambda tau: _shear_phase(g, tau), kick=kick,
        readings=readings, boundary=boundary_mass,
        flags=flags)
    return WignerFunction(g, values, w.t + steps * dt)


def propagate_moyal_exact(w: WignerFunction, potential: Potential,
                          dt: float, steps: int,
                          boundary_flags: list | None = None) -> WignerFunction:
    """Exact phase-space Strang splitting: half shear, kick, half shear.

    Both sub-steps solve their generator exactly, so the only error is
    the O(dt^2) splitting error (zero for quadratic V up to the shear/
    kick non-commutativity of the classical flow itself).
    """
    return _phase_space_split(
        "moyal", w,
        lambda x, s: potential.value(x + s) - potential.value(x - s),
        dt, steps, boundary_flags)


def propagate_moyal_truncated(w: WignerFunction, potential: Potential,
                              dt: float, steps: int, n_max: int,
                              boundary_flags: list | None = None) -> WignerFunction:
    """The exact route's splitting with the kick kernel cut to its series

        V(x + x'/2) - V(x - x'/2)
            ~ sum_{n=0..n_max} 2 V^(2n+1)(x) (x'/2)^(2n+1) / (2n+1)!,

    which keeps the first n_max quantum corrections
    (-hbar^2/4)^n / (2n+1)! V^(2n+1)(x) d^(2n+1)W/dp^(2n+1) of the Moyal
    equation.  The kick stays unitary, so the step size is limited by
    splitting error alone.  Terms above V's degree vanish and are not
    summed: once n_max covers every odd derivative of V the result no
    longer depends on it.
    """
    if not (is_integer(n_max) and n_max >= 0):
        raise PropagationError(f"n_max must be an integer >= 0, got {n_max}")

    def series(x, half_sep):
        kernel = np.zeros((x.size, half_sep.size))
        # derivatives of order above the degree vanish: stop there
        for n in range(min(n_max, (potential.degree - 1) // 2) + 1):
            order = 2 * n + 1
            kernel = kernel + (2.0 / math.factorial(order)
                               * potential.derivative(x, order)
                               * half_sep ** order)
        return kernel

    return _phase_space_split("truncated", w, series, dt, steps,
                              boundary_flags)


def propagate_characteristic(z: CharacteristicZ, potential: Potential,
                             dt: float, steps: int,
                             boundary_flags: list | None = None) -> CharacteristicZ:
    """Evolution of Z(y, y') under the two-coordinate Schrodinger analog.

    The equation separates: forward split-step evolution in y, the
    conjugate evolution in y' (together one 2-D FFT pair a step), and
    the potential phase exp(-i [V(y) - V(y')] dt / hbar).  Hermiticity
    and the diagonal's integral are monitored each step.  Every step
    works in buffers made once per call: the forward transform is fft2
    into one, and the inverse is ifft2's two passes (axis 1, then axis 0)
    written out, since ifft2 ignores out=.
    """
    _check_steps(dt, steps)
    if steps == 0:
        return z
    g = z.grid
    herm0 = z.hermiticity_defect()
    if not herm0 <= HERMITICITY_TOL:   # NaN too
        raise PropagationError(f"kernel is not Hermitian: defect {herm0:.3e}")
    k = g.wavenumbers_x()
    v = potential.value(g.x)
    pot_full = np.exp(-1j * dt / g.hbar * (v[:, None] - v[None, :]))
    diag0 = z.diagonal_total()

    def kinetic(tau):
        kin = np.exp(-1j * g.hbar * k ** 2 * tau / (2.0 * g.mass))
        return kin[:, None] * np.conj(kin)[None, :]

    # work buffers, overwritten every step; the result owns `kernel`
    spec, kernel, work = (np.empty((g.n, g.n), dtype=complex)
                          for _ in range(3))
    magnitude = np.empty((g.n, g.n))

    def inverse(values):
        np.fft.ifft(values, axis=1, out=spec)
        return np.fft.ifft(spec, axis=0, out=kernel)

    def readings(values, spec):
        yield ("Hermiticity defect",
               _hermiticity_defect(values, work, magnitude), HERMITICITY_TOL)
        yield ("diagonal norm drift",
               abs(CharacteristicZ(g, values).diagonal_total() - diag0),
               NORM_DRIFT_TOL)

    values = _strang(
        "characteristic", z.values, z.t, dt, steps,
        forward=lambda values: np.fft.fft2(values, out=spec),
        inverse=inverse, a_phase=kinetic,
        # values first, in place: a fixed operand order fixes the rounding
        kick=lambda values: np.multiply(values, pot_full, out=values),
        readings=readings, boundary=boundary_mass,
        flags=boundary_flags)
    return CharacteristicZ(g, values, z.t + steps * dt)


@dataclass
class EvolutionReport:
    """Pairwise route discrepancies and monitors at the sample times.

    Routes: (a) wavefunction split-step then Wigner transform,
    (b) Wigner transform then exact phase-space evolution,
    (c) characteristic kernel evolution, factorized back to a state.
    Discrepancies are L2 norms of Wigner-field differences.
    """

    times: list = field(default_factory=list)
    pair_l2: dict = field(default_factory=lambda: {"ab": [], "ac": [], "bc": []})
    norm_drift: list = field(default_factory=list)
    energy_drift: list = field(default_factory=list)
    boundary: list = field(default_factory=list)
    factorization_residual: list = field(default_factory=list)
    boundary_flagged: bool = False

    def max_pairwise(self) -> float:
        values = [v for series in self.pair_l2.values() for v in series]
        return max(values) if values else 0.0


def _l2(a: np.ndarray, b: np.ndarray, g: PhaseGrid) -> float:
    return float(np.sqrt(np.sum((a - b) ** 2) * g.dx * g.dp))


def cross_validate(psi0: Wavefunction, potential: Potential, t_final: float,
                   dt: float, sample_times) -> EvolutionReport:
    """Run the three routes side by side from psi0.t and report their
    agreement at the times reached, in increasing order.

    sample_steps schedules sample_times, in any order, from psi0.t
    within [psi0.t, t_final].  An empty request produces an empty report.
    The fields made from psi and Z pass _check_boundary as the routes do.
    """
    schedule = sample_steps(sample_times, dt, psi0.t, t_final)
    report = EvolutionReport()
    g = psi0.grid
    energy0 = expectation_operator(psi0, "H", potential)

    psi_a = psi0
    w_b = wigner_transform(psi0)
    z_c = to_characteristic(w_b)
    flags: list = []
    for steps_run, steps in zip(accumulate(schedule), schedule):
        psi_a = propagate_schrodinger(psi_a, potential, dt, steps, flags)
        w_b = propagate_moyal_exact(w_b, potential, dt, steps, flags)
        z_c = propagate_characteristic(z_c, potential, dt, steps, flags)

        w_a = wigner_transform(psi_a)
        psi_c, residual = factorize_characteristic(z_c)
        w_c = wigner_transform(psi_c)
        report.times.append(psi_a.t)
        report.pair_l2["ab"].append(_l2(w_a.values, w_b.values, g))
        report.pair_l2["ac"].append(_l2(w_a.values, w_c.values, g))
        report.pair_l2["bc"].append(_l2(w_b.values, w_c.values, g))
        report.norm_drift.append(
            float(np.sum(np.abs(psi_a.samples) ** 2) * g.dx - 1.0))
        report.energy_drift.append(
            expectation_operator(psi_a, "H", potential) - energy0)
        report.boundary.append(boundary_mass(w_b.values))
        report.factorization_residual.append(residual)
        # pairs of psi or Z over L/2 apart wrap to the x edge of the
        # fields made from them, where no route's own monitor looks
        for route, w in (("schrodinger", w_a), ("characteristic", w_c)):
            _check_boundary(route, steps_run, psi_a.t,
                            boundary_mass(w.values), flags)
    report.boundary_flagged = bool(flags)
    return report


def classical_trajectory(x0: float, p0: float, potential: Potential,
                         t_grid, dt: float, mass: float = 1.0):
    """Orbit of dx/dt = p/m, dp/dt = F(x) from t = 0, a symplectic map of
    fourth order: the n_max = 0 route's drift and kick by YOSHIDA_WEIGHTS.

    Returns rows (t, x, p) at the times of t_grid in increasing order,
    each a whole number of steps after the previous (see sample_steps).
    An orbit that stops being finite raises PropagationError.
    """
    if not (math.isfinite(x0) and math.isfinite(p0)):
        raise StateError(f"classical trajectory needs finite x0 and p0, "
                         f"got x0={x0}, p0={p0}")
    if not 0 < mass < math.inf:   # NaN too
        raise StateError(f"classical trajectory needs a finite mass > 0, "
                         f"got mass={mass}")
    x, p, t = float(x0), float(p0), 0.0
    rows = []
    for steps in sample_steps(t_grid, dt):
        for step in range(1, steps + 1):
            for w in YOSHIDA_WEIGHTS:
                x += 0.5 * w * dt * p / mass
                p += w * dt * potential.force(x)
                x += 0.5 * w * dt * p / mass
            if not (math.isfinite(x) and math.isfinite(p)):
                raise PropagationError(
                    f"classical orbit is not finite at t = {t + step * dt:g}"
                    f": x = {x}, p = {p}")
        t += steps * dt
        rows.append((t, x, p))
    return np.array(rows)


def _ehrenfest(psi0: Wavefunction, potential: Potential, t_grid, dt: float):
    """ehrenfest_track's table and the state it ends in."""
    g = psi0.grid
    schedule = sample_steps(t_grid, dt, psi0.t)
    # V is static: the orbit over a span from psi0.t is the one from 0
    orbit = classical_trajectory(
        expectation_operator(psi0, "x"), expectation_operator(psi0, "p"),
        potential, [t - psi0.t for t in t_grid], dt, g.mass)
    rows, psi = [], psi0
    for steps, (_, x_cl, p_cl) in zip(schedule, orbit):
        psi = propagate_schrodinger(psi, potential, dt, steps)
        density = np.abs(psi.samples) ** 2
        mean_x = float(np.sum(g.x * density) * g.dx)
        mean_p = expectation_operator(psi, "p")
        mean_force = float(np.sum(potential.force(g.x) * density) * g.dx)
        rows.append((psi.t, mean_x, mean_p, mean_force,
                     float(potential.force(mean_x)), x_cl, p_cl))
    return np.array(rows), psi


def ehrenfest_track(psi0: Wavefunction, potential: Potential, t_grid,
                    dt: float):
    """Quantum means along a Schrodinger evolution next to the classical
    trajectory launched from (<x>, <p>) at psi0.t.

    Returns rows (t, <x>, <p>, <F(x)>, F(<x>), classical_x, classical_p)
    at the times of t_grid in increasing order.
    The gap between <F(x)> and F(<x>) exposes how far the packet is from
    the single-orbit picture; it vanishes identically for quadratic V.
    """
    return _ehrenfest(psi0, potential, t_grid, dt)[0]
