"""Fully nonlinear quotient flow on the round sphere's conformal class,
restricted to rotationally symmetric conformal factors u = u(theta).

With g = e^{-2u} g_0 the flow d g/dt = -(log sigma_k/sigma_l - log r_{k,l}) g
is the scalar evolution du/dt = (log sigma_k/sigma_l - log r_{k,l})/2 on the
latitude grid, where log r_{k,l} is the sigma_l-weighted mean of
log sigma_k/sigma_l.  The Schouten endomorphism of g has a radial
eigenvalue e^{2u}(1/2 + u'' + u'^2/2) and a tangential eigenvalue
e^{2u}(1/2 + u' cot(theta) - u'^2/2) of multiplicity n-1, so every sigma_j
is ``sigma.two_eigenvalue_sigma`` of the two, and the nodal quotient and its
cone rule are ``sigma.log_quotient``'s.  Spatial derivatives are 4th-order
central differences with even reflection across the poles (u' = 0 there);
integrals use the endpoint-halved trapezoid rule, which is spectrally
accurate for pole-regular integrands.

A time step is one Cox-Matthews ETDRK4 step of du/dt = L u + N(u), N = rhs - L u,
with L the linearization at u = 0, ((k - l)/n)(I - 1 w^T / sum w)(D2 + (n - 1) C
+ n I): D2 and C the stencil's u'' and u' cot(theta) (u'' at the poles), w the
trapezoid weights.  ``run``'s default step is min(DT_MAX, (t_end - t) /
DEFAULT_STEPS), and at most DT_SAFETY h^2 / sup|g - 2(k - l)/n|, the bound of
N's stiffness (g = d log(sigma_k/sigma_l) / d u''), re-checked at each sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curvature import BATCH_BYTES, GeometryError, check_int
from .sigma import (ConeConditionError, check_pair, log_quotient, repeated_sigma,
                    two_eigenvalue_sigma)


class BlowUp(GeometryError):
    pass


class StepLimitError(ValueError):
    """A run that needs more than MAX_STEPS steps, whose step does not
    advance t, or whose grid's (grid + 1)^2 step matrices would each exceed
    BATCH_BYTES, refused before its first step."""


U_MAX = 10.0  # sup|u|: a FlowState above it is refused, a step above it is a BlowUp
MAX_STEPS = 10 ** 6  # run refuses more steps of dt; a 1e300-step run would never end
DT_SAFETY = 0.5  # share of the parabolic step bound that stable_dt takes
DEFAULT_STEPS = 90  # steps of run's default dt, unless DT_MAX or N's stiffness bound it
DT_MAX = 0.01


@dataclass
class FlowState:
    """The exponent u(theta) at the M+1 latitude nodes of S^n; n >= 3, (k, l),
    an even grid M >= 32 and sup|u| <= U_MAX are checked here, once: the
    ETDRK4 stages and ``step`` reuse the checked state with a new u."""
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
    steps: list = field(default_factory=list)         # every step's dt

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
    try:
        logq = log_quotient({state.k: sk, state.l: sl}, state.k, state.l)
    except ConeConditionError as err:
        node = err.probe
        where = f"at node {node} (theta = {state.theta[node]:.4f}, t = {state.t:.6f})"
        raise ConeConditionError(state.k, state.l, err.sigma_k, err.sigma_l, where, node) from None
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


def _gain(state: FlowState) -> np.ndarray:
    """d log(sigma_k/sigma_l) / d u'' at the nodes."""
    lam_t, sk, sl = _nodal_sigmas(state, state.k, state.l)
    dsk, dsl = (repeated_sigma(state.n - 1, j - 1, lam_t) for j in (state.k, state.l))
    return np.exp(2 * state.u) * (dsk / sk - dsl / sl)


def stable_dt(state: FlowState) -> float:
    """Conservative parabolic step bound dt = DT_SAFETY h^2 / (1 + gain),
    where the gain estimates the sensitivity of the right side to u''."""
    h = math.pi / state.grid_size
    return DT_SAFETY * h * h / (1.0 + float(np.max(np.abs(_gain(state)))))


def _default_dt(state: FlowState, span: float) -> float:
    """``run``'s default step for a run over ``span`` (module docstring)."""
    h = math.pi / state.grid_size
    rest = float(np.max(np.abs(_gain(state) - 2 * (state.k - state.l) / state.n)))
    accurate = span / DEFAULT_STEPS if span > 0 else DT_MAX  # a run of no steps
    return min(DT_MAX, accurate, DT_SAFETY * h * h / rest if rest else math.inf)


@lru_cache(maxsize=None)
def _linearization(n: int, k: int, l: int, m: int):
    """L (module docstring), its eigenvalues, eigenvectors and their inverse."""
    if 8 * (m + 1) ** 2 > BATCH_BYTES:
        raise StepLimitError(f"grid {m}: a step matrix exceeds {BATCH_BYTES} bytes")
    index, scale = _stencil(m)
    d1, d2 = np.einsum("ij,jk...->ik...", _STENCIL, np.eye(m + 1)[index]) / scale[..., None]
    a = d2 + (n - 1) * np.vstack([d2[:1], d1[1:-1] / _nodes(m)[1][:, None], d2[-1:]]) \
        + n * np.eye(m + 1)
    w = _sin_power(n, m) * np.r_[0.5, np.ones(m - 1), 0.5]
    lin = (k - l) / n * (a - (w @ a) / w.sum())
    lam, vec = np.linalg.eig(lin)
    return _read_only(lin, lam, vec, np.linalg.inv(vec))


@lru_cache(maxsize=4)
def _etd_matrices(n: int, k: int, l: int, m: int, dt: float):
    """e^{dt L}, e^{dt L/2}, (dt/2) phi_1(dt L/2) and, of dt L, dt (phi_1 - 3 phi_2
    + 4 phi_3), dt (phi_2 - 2 phi_3) and dt (4 phi_3 - phi_2), with phi_j(z) =
    sum_i z^i / (i + j)!, by phi_{j+1} = (phi_j - 1/j!) / z where |z| >= 1 and
    by 20 terms of the series below: six (m+1)^2 matrices, 0.8 MB at grid 128,
    so only the latest few are kept."""
    lam, vec, inv = _linearization(n, k, l, m)[1:]
    z = dt * np.array([lam, 0.5 * lam])
    small = np.abs(z) < 1.0
    w, zs, phi = np.where(small, 1.0, z), np.where(small, z, 0.0), []
    p = np.exp(w)
    for j in range(3):
        p = (p - 1.0 / math.factorial(j)) / w
        phi.append(np.where(small, sum(zs ** i / math.factorial(i + j + 1) for i in range(20)), p))
    (p1, half1), (p2, _), (p3, _) = phi
    diagonals = np.array([*np.exp(z), 0.5 * dt * half1, dt * (p1 - 3 * p2 + 4 * p3),
                          dt * (p2 - 2 * p3), dt * (4 * p3 - p2)])
    return _read_only(*np.real((vec * diagonals[:, None, :]) @ inv))


def step(state: FlowState, dt: float) -> FlowState:
    """One Cox-Matthews ETDRK4 step of du/dt = L u + N(u), with L the
    linearization of ``flow_rhs`` at u = 0 and N(u) = ``flow_rhs``(u) - L u."""
    if dt <= 0:
        raise GeometryError("dt must be positive")
    key, u, t = (state.n, state.k, state.l, state.grid_size), state.u, state.t
    lin, (e, e2, q, f1, f2, f3) = _linearization(*key)[0], _etd_matrices(*key, dt)

    def nonlinear(v, tt):
        return flow_rhs(state._evolved(v, tt)) - lin @ v

    nu, e2u = nonlinear(u, t), e2 @ u
    a = e2u + q @ nu
    na = nonlinear(a, t + 0.5 * dt)
    b = e2u + q @ na
    nb = nonlinear(b, t + 0.5 * dt)
    c = e2 @ a + q @ (2.0 * nb - nu)
    unew = e @ u + f1 @ nu + 2.0 * (f2 @ (na + nb)) + f3 @ nonlinear(c, t + dt)
    if np.abs(unew).max() > U_MAX:
        raise BlowUp(f"sup|u| exceeded {U_MAX:g} at t = {t + dt:.6f}")
    return state._evolved(unew, t + dt)


def run(state: FlowState, t_end: float, dt: float | None = None,
        cadence: int = 10) -> tuple[FlowState, FlowDiagnostics]:
    """Integrate to ``t_end``, sampling diagnostics every ``cadence`` steps; a
    cone violation or blow-up ends the run with the partial diagnostics.  For
    l = n/2 the E_l column holds int sigma_l dv, flagged as omitted.  Without
    ``dt`` the step is the module docstring's default."""
    diag = FlowDiagnostics(energy_omitted=(2 * state.l == state.n))
    span, default = t_end - state.t, dt is None
    dt = _default_dt(state, span) if default else dt

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
            # a remainder within 1e-12 of dt (t's rounding) is one more step of dt
            h = dt if t_end - state.t > dt - 1e-12 else t_end - state.t
            state = step(state, h)
            diag.steps.append(h)
            nstep += 1
            if nstep % cadence == 0 or state.t >= t_end - 1e-12:
                sample(state)
                dt = min(dt, _default_dt(state, span)) if default else dt
    except (ConeConditionError, BlowUp) as err:
        diag.aborted = str(err)
    return state, diag
