"""Fully nonlinear quotient flow on the round sphere's conformal class,
restricted to rotationally symmetric conformal factors u = u(theta).

With g = e^{-2u} g_0 the flow d g/dt = -(log sigma_k/sigma_l - log r_{k,l}) g
reduces to the scalar evolution du/dt = (log sigma_k/sigma_l - log r_{k,l})/2
on the latitude grid.  The Schouten endomorphism of g has a radial
eigenvalue e^{2u}(1/2 + u'' + u'^2/2) and a tangential eigenvalue
e^{2u}(1/2 + u' cot(theta) - u'^2/2) of multiplicity n-1, so every sigma_j
is ``sigma.two_eigenvalue_sigma`` of the two.  Spatial derivatives are
4th-order central differences with even reflection across the poles
(enforcing u' = 0 there); integrals use the endpoint-halved trapezoid rule,
which is spectrally accurate for pole-regular integrands.

Grid tables are built once and are read-only: the nodes and tan(theta) per
grid size m, the stencil's neighbour indices per m, and the volume density
sin^{n-1}(theta) per (n, m).  ``FlowState`` checks n, (k, l) and the grid
once; the RK4 stages and the result of ``step`` reuse the checked state
with a new u of the same length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curvature import GeometryError, check_int
from .sigma import ConeConditionError, check_pair, repeated_sigma, two_eigenvalue_sigma


class BlowUp(GeometryError):
    pass


class StepLimitError(ValueError):
    """A run of more than MAX_STEPS steps, refused before its first."""


U_MAX = 10.0  # sup|u|: a FlowState above it is refused, a step above it is a BlowUp
MAX_STEPS = 10 ** 6  # run refuses more steps of dt; a 1e300-step run would never end
DT_SAFETY = 0.5  # share of the parabolic step bound that stable_dt takes


@dataclass
class FlowState:
    """The exponent u(theta) on S^n; n, (k, l), the grid and sup|u| <= U_MAX
    are checked here."""
    n: int                  # sphere dimension
    k: int
    l: int
    u: np.ndarray           # conformal exponent at the M+1 latitude nodes
    t: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        check_int(self.n, "sphere dimension n", 3)
        _check_grid(len(self.u) - 1)
        check_pair(self.n, self.k, self.l)
        sup = np.abs(self.u).max()
        if not sup <= U_MAX:
            raise GeometryError(f"sup|u| = {sup:.6g} exceeds {U_MAX:g}")

    @property
    def grid_size(self) -> int:
        return len(self.u) - 1

    @property
    def theta(self) -> np.ndarray:
        """The grid's shared, read-only latitude nodes."""
        return _nodes(self.grid_size)[0]

    @classmethod
    def from_function(cls, n: int, k: int, l: int, grid: int, u0=None):
        """u = u0(theta), with ``u0`` called once on the whole node array; a
        scalar result (a constant u0) is broadcast to every node."""
        _check_grid(grid)  # before the nodes are laid out
        theta = _nodes(grid)[0]
        u = np.zeros(grid + 1) if u0 is None else \
            np.array(np.broadcast_to(u0(theta), theta.shape), dtype=float)
        return cls(n=n, k=k, l=l, u=u)

    def _evolved(self, u: np.ndarray, t: float) -> FlowState:
        """This state's checked n, (k, l) and grid with a new u of the same
        length and time t, without re-running the checks."""
        new = object.__new__(type(self))
        new.__dict__.update(n=self.n, k=self.k, l=self.l, u=u, t=t)
        return new


def _check_grid(m):
    check_int(m, "grid", 32)
    if m % 2:
        raise GeometryError(f"grid must be even, got {m}")


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m+1 latitude nodes and tan(theta) at the interior ones."""
    theta = np.linspace(0.0, math.pi, m + 1)
    return _read_only(theta, np.tan(theta[1:-1]))


# 12 h u' and 12 h^2 u'' from the nodes i-2..i+2
_STENCIL = _read_only(np.array([[1.0, -8.0, 0.0, 8.0, -1.0],
                                [-1.0, 16.0, -30.0, 16.0, -1.0]]))[0]


@lru_cache(maxsize=None)
def _stencil(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the even-reflected neighbours i-2..i+2 of every node, shape
    (5, m+1), and the divisors 12 h, 12 h^2 of the two stencil rows."""
    j = np.arange(m + 1) + np.arange(-2, 3)[:, None]
    j = np.where(j < 0, -j, np.where(j > m, 2 * m - j, j))
    h = math.pi / m
    return _read_only(j, np.array([[12 * h], [12 * h * h]]))


@lru_cache(maxsize=None)
def _sin_power(n: int, m: int) -> np.ndarray:
    """sin^{n-1}(theta) at the nodes, the density of the round volume."""
    return _read_only(np.sin(_nodes(m)[0]) ** (n - 1))[0]


@dataclass
class FlowDiagnostics:
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


def derivatives(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4th-order u' and u'' on the uniform latitude grid, with ghost nodes by
    even reflection about both poles."""
    index, scale = _stencil(len(u) - 1)
    # einsum rounds every product before it adds, as the written-out stencil
    # does; a BLAS matmul fuses the -30 u_i product into the sum, which moves
    # u'' by ulps that the 1/(12 h^2) cancellation amplifies (~4e-12 relative
    # at grid 512)
    du, ddu = np.einsum("ij,jk->ik", _STENCIL, u[index]) / scale
    du[0] = du[-1] = 0.0  # exact by symmetry
    return du, ddu


def schouten_eigenvalues(state: FlowState) -> tuple[np.ndarray, np.ndarray]:
    """Radial and tangential eigenvalues of g^{-1}A at every node."""
    u = state.u
    du, ddu = derivatives(u)
    cot_term = np.empty_like(u)
    cot_term[1:-1] = du[1:-1] / _nodes(state.grid_size)[1]
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
    check_int(j, "sigma index j", 0, state.n)
    return _nodal_sigmas(state, j)[1]


def _nodal_sigmas(state: FlowState, *js):
    """The tangential eigenvalue lam_t and, for each j of ``js``, sigma_j at
    the nodes, from one evaluation of the spectrum."""
    lam_r, lam_t = schouten_eigenvalues(state)
    return (lam_t, *(two_eigenvalue_sigma(state.n, j, lam_t, lam_r) for j in js))


def quadrature(state: FlowState, values: np.ndarray) -> float:
    """int f dv_g = omega_{n-1} int_0^pi f e^{-n u} sin^{n-1} dtheta by the
    endpoint-halved trapezoid rule."""
    return _integrate(state, np.exp(-state.n * state.u), values)


def _integrate(state: FlowState, e_nu: np.ndarray, values) -> float:
    """``quadrature`` with e^{-n u} given.  The sum keeps this order rather
    than a dot product with pre-multiplied weights: the flow carries a
    one-ulp change of log r_{k,l} through u'' into ~1e-11 relative changes
    of sup |log q - log r|."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise GeometryError("non-finite integrand")
    n, m = state.n, state.grid_size
    w = values * e_nu * _sin_power(n, m)
    total = (math.pi / m) * (w[1:-1].sum() + 0.5 * (w[0] + w[-1]))
    return sphere_area(n - 1) * total


def sphere_area(d: int) -> float:
    """Volume of the round unit d-sphere."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _log_quotient_nodes(state: FlowState):
    """Nodal log(sigma_k/sigma_l), its sigma_l-weighted mean log r_{k,l} and
    int sigma_l dv."""
    _, sk, sl = _nodal_sigmas(state, state.k, state.l)
    ok = sk * sl > 0.0  # the rule of sigma.cone_values, which a NaN sigma fails
    if not ok.all():
        node = int(np.argmin(ok))
        where = f"at node {node} (theta = {state.theta[node]:.4f}, t = {state.t:.6f})"
        raise ConeConditionError(state.k, state.l, float(sk[node]), float(sl[node]), where)
    logq = np.log(np.abs(sk)) - np.log(np.abs(sl))
    e_nu = np.exp(-state.n * state.u)
    energy = _integrate(state, e_nu, sl)
    if abs(energy) < 1e-300:
        raise GeometryError("int sigma_l dv vanishes; weighted mean undefined")
    return logq, _integrate(state, e_nu, sl * logq) / energy, energy


def log_r_kl(state: FlowState) -> float:
    """sigma_l-weighted mean of log(sigma_k/sigma_l)."""
    return _log_quotient_nodes(state)[1]


def flow_rhs(state: FlowState) -> np.ndarray:
    """Nodal du/dt = (log sigma_k/sigma_l - log r_{k,l}) / 2."""
    logq, logr, _ = _log_quotient_nodes(state)
    rhs = 0.5 * (logq - logr)
    if not np.isfinite(rhs).all():
        raise GeometryError("non-finite flow right-hand side")
    return rhs


def stable_dt(state: FlowState) -> float:
    """Conservative parabolic step bound dt = DT_SAFETY h^2 / (1 + gain),
    where the gain estimates the sensitivity of the right side to u''."""
    lam_t, sk, sl = _nodal_sigmas(state, state.k, state.l)
    # d log sigma_j / d u'' = e^{2u} * (d sigma_j / d lam_r) / sigma_j
    dsk, dsl = (repeated_sigma(state.n - 1, j - 1, lam_t) for j in (state.k, state.l))
    gain = np.max(np.exp(2 * state.u) * np.abs(dsk / sk - dsl / sl))
    h = math.pi / state.grid_size
    return DT_SAFETY * h * h / (1.0 + float(gain))


def step(state: FlowState, dt: float) -> FlowState:
    """One classical 4-stage Runge-Kutta step."""
    if dt <= 0:
        raise GeometryError("dt must be positive")
    u, t = state.u, state.t

    def rhs_at(uu, tt):
        return flow_rhs(state._evolved(uu, tt))

    k1 = rhs_at(u, t)
    k2 = rhs_at(u + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs_at(u + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs_at(u + dt * k3, t + dt)
    unew = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if np.abs(unew).max() > U_MAX:
        raise BlowUp(f"sup|u| exceeded {U_MAX:g} at t = {t + dt:.6f}")
    return state._evolved(unew, t + dt)


def run(state: FlowState, t_end: float, dt: float | None = None,
        cadence: int = 10) -> tuple[FlowState, FlowDiagnostics]:
    """Integrate to ``t_end``, sampling diagnostics every ``cadence`` steps.

    Aborts cleanly on cone violation or blow-up, returning the partial
    diagnostics; the E_{n/2} path-integral functional is not implemented,
    so for l = n/2 the conservation diagnostic column holds int sigma_l dv
    but is flagged as omitted."""
    diag = FlowDiagnostics(energy_omitted=(2 * state.l == state.n))
    if dt is None:
        dt = stable_dt(state)

    def sample(s):
        logq, logr, energy = _log_quotient_nodes(s)
        diag.record(s.t, energy, logr, float(np.max(np.abs(logq - logr))),
                    quadrature(s, np.ones_like(s.u)))

    try:
        sample(state)
        if not t_end - state.t <= MAX_STEPS * dt:
            raise StepLimitError(f"t_end = {t_end:g} needs more than {MAX_STEPS} steps "
                                 f"of dt = {dt:g}")
        if state.t + dt == state.t:
            raise StepLimitError(f"a step of dt = {dt:g} does not advance t = {state.t:g}")
        nstep = 0
        while state.t < t_end - 1e-12:
            state = step(state, min(dt, t_end - state.t))
            nstep += 1
            if nstep % cadence == 0 or state.t >= t_end - 1e-12:
                sample(state)
    except (ConeConditionError, BlowUp) as err:
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
    """d f / d theta for samples on [0, pi], via the even extension of
    period 2pi and the FFT."""
    m = len(f) - 1
    ext = np.concatenate([f, f[-2:0:-1]])  # length 2m, even about both poles
    freq = np.fft.rfftfreq(2 * m, d=1.0 / (2 * m))  # integer wavenumbers
    fhat = np.fft.rfft(ext)
    dext = np.fft.irfft(1j * freq * fhat, n=2 * m)
    return dext[: m + 1]
