"""Fully nonlinear quotient flow on the round sphere's conformal class,
restricted to rotationally symmetric conformal factors u = u(theta).

With g = e^{-2u} g_0 the flow d g/dt = -(log sigma_k/sigma_l - log r_{k,l}) g
reduces to the scalar evolution du/dt = (log sigma_k/sigma_l - log r_{k,l})/2
on the latitude grid.  The Schouten endomorphism of g has a radial
eigenvalue e^{2u}(1/2 + u'' + u'^2/2) and a tangential eigenvalue
e^{2u}(1/2 + u' cot(theta) - u'^2/2) of multiplicity n-1, which makes every
sigma_j a two-term closed form.  Spatial derivatives are 4th-order central
differences with even reflection across the poles (enforcing u' = 0 there);
integrals use the endpoint-halved trapezoid rule, which is spectrally
accurate for pole-regular integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import GeometryError


class ConeViolation(GeometryError):
    def __init__(self, node: int, theta: float, sigma_k: float, sigma_l: float, t: float):
        super().__init__(
            f"cone condition violated at node {node} (theta = {theta:.4f}, "
            f"t = {t:.6f}): sigma_k = {sigma_k:.6g}, sigma_l = {sigma_l:.6g}")
        self.node = node
        self.t = t


class BlowUp(GeometryError):
    pass


@dataclass
class FlowState:
    n: int                  # sphere dimension
    k: int
    l: int
    u: np.ndarray           # conformal exponent at the M+1 latitude nodes
    t: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.n < 3:
            raise GeometryError("the flow needs sphere dimension >= 3")
        if len(self.u) < 17:
            raise GeometryError("grid must have at least 17 nodes (M >= 16)")
        if not (0 <= self.l < self.k <= self.n or self.k == self.l):
            if not (0 <= self.k <= self.n and 0 <= self.l <= self.n):
                raise GeometryError(f"quotient indices ({self.k},{self.l}) out of range")

    @property
    def grid_size(self) -> int:
        return len(self.u) - 1

    @property
    def theta(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, len(self.u))

    @classmethod
    def from_function(cls, n: int, k: int, l: int, grid: int, u0=None, t: float = 0.0):
        theta = np.linspace(0.0, math.pi, grid + 1)
        u = np.zeros(grid + 1) if u0 is None else np.asarray([u0(th) for th in theta])
        return cls(n=n, k=k, l=l, u=u, t=t)


@dataclass
class FlowDiagnostics:
    l: int
    times: list = field(default_factory=list)
    energy: list = field(default_factory=list)        # E_l = int sigma_l dv
    log_r: list = field(default_factory=list)
    sup_dev: list = field(default_factory=list)       # sup |log q - log r|
    volume: list = field(default_factory=list)
    aborted: str | None = None
    energy_omitted: bool = False                      # l = n/2 case

    def record(self, t, e, logr, dev, vol):
        if self.times and t <= self.times[-1]:
            raise ValueError("diagnostic samples must advance in time")
        self.times.append(t)
        self.energy.append(e)
        self.log_r.append(logr)
        self.sup_dev.append(dev)
        self.volume.append(vol)


# -- spatial discretization ------------------------------------------------


def _pad_even(u: np.ndarray) -> np.ndarray:
    """Two ghost nodes per side by even reflection about both poles."""
    return np.concatenate([u[2:0:-1], u, u[-2:-4:-1]])


def derivatives(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4th-order u' and u'' on the uniform latitude grid."""
    m = len(u) - 1
    h = math.pi / m
    p = _pad_even(u)
    i = np.arange(2, m + 3)
    du = (p[i - 2] - 8 * p[i - 1] + 8 * p[i + 1] - p[i + 2]) / (12 * h)
    ddu = (-p[i - 2] + 16 * p[i - 1] - 30 * p[i] + 16 * p[i + 1] - p[i + 2]) / (12 * h * h)
    du[0] = du[-1] = 0.0  # exact by symmetry
    return du, ddu


def schouten_eigenvalues(state: FlowState) -> tuple[np.ndarray, np.ndarray]:
    """Radial and tangential eigenvalues of g^{-1}A at every node."""
    u = state.u
    theta = state.theta
    du, ddu = derivatives(u)
    cot_term = np.empty_like(u)
    interior = slice(1, -1)
    cot_term[interior] = du[interior] / np.tan(theta[interior])
    # poles: u' cot(theta) -> u'' by regularity
    cot_term[0] = ddu[0]
    cot_term[-1] = ddu[-1]
    e2u = np.exp(2.0 * u)
    lam_r = e2u * (0.5 + ddu + 0.5 * du * du)
    lam_t = e2u * (0.5 + cot_term - 0.5 * du * du)
    return lam_r, lam_t


def sigma_nodes(state: FlowState, j: int) -> np.ndarray:
    """sigma_j of the two-eigenvalue spectrum (lam_t with multiplicity n-1,
    lam_r once)."""
    n = state.n
    if not 0 <= j <= n:
        raise GeometryError(f"sigma index {j} out of range 0..{n}")
    lam_r, lam_t = schouten_eigenvalues(state)
    return _sigma_from_eigs(n, j, lam_r, lam_t)


def _sigma_from_eigs(n: int, j: int, lam_r, lam_t):
    if j == 0:
        return np.ones_like(lam_r)
    a = math.comb(n - 1, j) * lam_t ** j if j <= n - 1 else 0.0
    b = math.comb(n - 1, j - 1) * lam_t ** (j - 1) * lam_r
    return a + b


def quadrature(state: FlowState, values: np.ndarray) -> float:
    """int f dv_g = omega_{n-1} int_0^pi f e^{-n u} sin^{n-1} dtheta by the
    endpoint-halved trapezoid rule."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise GeometryError("non-finite integrand")
    m = state.grid_size
    if m < 32:
        raise GeometryError("quadrature needs grid resolution >= 32")
    n = state.n
    h = math.pi / m
    theta = state.theta
    w = values * np.exp(-n * state.u) * np.sin(theta) ** (n - 1)
    total = h * (np.sum(w[1:-1]) + 0.5 * (w[0] + w[-1]))
    return sphere_area(n - 1) * total


def sphere_area(d: int) -> float:
    """Volume of the round unit d-sphere."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _nodal_sigmas(state: FlowState):
    """The tangential eigenvalue lam_t and sigma_k, sigma_l at the nodes."""
    lam_r, lam_t = schouten_eigenvalues(state)
    return (lam_t, _sigma_from_eigs(state.n, state.k, lam_r, lam_t),
            _sigma_from_eigs(state.n, state.l, lam_r, lam_t))


def _log_quotient_nodes(state: FlowState):
    """Nodal log(sigma_k/sigma_l), its sigma_l-weighted mean log r_{k,l} and
    int sigma_l dv."""
    _, sk, sl = _nodal_sigmas(state)
    bad = sk * sl <= 0.0
    if np.any(bad):
        node = int(np.argmax(bad))
        raise ConeViolation(node, state.theta[node], float(sk[node]), float(sl[node]),
                            state.t)
    logq = np.log(np.abs(sk)) - np.log(np.abs(sl))
    energy = quadrature(state, sl)
    if abs(energy) < 1e-300:
        raise GeometryError("int sigma_l dv vanishes; weighted mean undefined")
    return logq, quadrature(state, sl * logq) / energy, energy


def log_r_kl(state: FlowState) -> float:
    """sigma_l-weighted mean of log(sigma_k/sigma_l)."""
    return _log_quotient_nodes(state)[1]


def flow_rhs(state: FlowState) -> np.ndarray:
    """Nodal du/dt = (log sigma_k/sigma_l - log r_{k,l}) / 2."""
    logq, logr, _ = _log_quotient_nodes(state)
    rhs = 0.5 * (logq - logr)
    if not np.all(np.isfinite(rhs)):
        raise GeometryError("non-finite flow right-hand side")
    return rhs


def stable_dt(state: FlowState, safety: float = 0.5) -> float:
    """Conservative parabolic step bound dt = safety h^2 / (1 + gain), where
    the gain estimates the sensitivity of the right side to u''."""
    n, k, l = state.n, state.k, state.l
    lam_t, sk, sl = _nodal_sigmas(state)
    # d log sigma_j / d u'' = e^{2u} * (d sigma_j / d lam_r) / sigma_j
    dsk = math.comb(n - 1, k - 1) * lam_t ** (k - 1) if k >= 1 else 0.0
    dsl = math.comb(n - 1, l - 1) * lam_t ** (l - 1) if l >= 1 else 0.0
    gain = np.max(np.exp(2 * state.u) * np.abs(dsk / sk - dsl / sl))
    h = math.pi / state.grid_size
    return safety * h * h / (1.0 + float(gain))


def step(state: FlowState, dt: float) -> FlowState:
    """One classical 4-stage Runge-Kutta step."""
    if dt <= 0:
        raise GeometryError("dt must be positive")
    u, t = state.u, state.t

    def rhs_at(uu, tt):
        return flow_rhs(FlowState(state.n, state.k, state.l, uu, tt))

    k1 = rhs_at(u, t)
    k2 = rhs_at(u + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs_at(u + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs_at(u + dt * k3, t + dt)
    unew = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if np.max(np.abs(unew)) > 10.0:
        raise BlowUp(f"sup|u| exceeded 10 at t = {t + dt:.6f}")
    return FlowState(state.n, state.k, state.l, unew, t + dt)


def run(state: FlowState, t_end: float, dt: float | None = None,
        cadence: int = 10) -> tuple[FlowState, FlowDiagnostics]:
    """Integrate to ``t_end``, sampling diagnostics every ``cadence`` steps.

    Aborts cleanly on cone violation or blow-up, returning the partial
    diagnostics; the E_{n/2} path-integral functional is not implemented,
    so for l = n/2 the conservation diagnostic column holds int sigma_l dv
    but is flagged as omitted."""
    diag = FlowDiagnostics(l=state.l, energy_omitted=(2 * state.l == state.n))
    if dt is None:
        dt = stable_dt(state)

    def sample(s):
        logq, logr, energy = _log_quotient_nodes(s)
        diag.record(s.t, energy, logr, float(np.max(np.abs(logq - logr))),
                    quadrature(s, np.ones_like(s.u)))

    try:
        sample(state)
        nstep = 0
        while state.t < t_end - 1e-12:
            state = step(state, min(dt, t_end - state.t))
            nstep += 1
            if nstep % cadence == 0 or state.t >= t_end - 1e-12:
                sample(state)
    except (ConeViolation, BlowUp) as err:
        diag.aborted = str(err)
    return state, diag


def conformal_field_integral(state: FlowState, k: int) -> float:
    """int <X, grad sigma_k(g)> dv_g for the axial conformal field
    X = grad_{g_0}(cos theta) = -sin(theta) d/dtheta.

    The pairing <X, grad f>_g = X(f) is metric-free, so only the volume
    element sees u.  The latitude derivative of sigma_k is taken spectrally
    on the even extension, keeping this diagnostic independent of the
    finite-difference stencils of the flow."""
    sig = sigma_nodes(state, k)
    dsig = spectral_derivative(sig)
    return quadrature(state, -np.sin(state.theta) * dsig)


def spectral_derivative(f: np.ndarray) -> np.ndarray:
    """d f / d theta for samples on [0, pi], via the even 2pi-periodic
    extension and the FFT."""
    m = len(f) - 1
    ext = np.concatenate([f, f[-2:0:-1]])  # length 2m, even about both poles
    freq = np.fft.rfftfreq(2 * m, d=1.0 / (2 * m))  # integer wavenumbers
    fhat = np.fft.rfft(ext)
    dext = np.fft.irfft(1j * freq * fhat, n=2 * m)
    return dext[: m + 1]
