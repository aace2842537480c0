"""Seeded inputs for the benchmark workloads.

Everything here is plain Python (``random.Random``, no numpy, no sigmaflow),
so a fresh set-up process can rebuild the inputs before its timer starts.
Each draw comes from a range that keeps its operation valid:

* query points lie inside the model's chart box, 10% away from its faces;
* generated metric specs are round spheres of radius 0.8-1.25 seen through
  a linear chart y = M x with M = I + E, |E_ab| <= 0.12, so the metric stays
  positive definite and every sigma_k is known in closed form;
* flow amplitudes (0.03-0.05 on cos, 0-0.01 on cos 2) stay inside the cone
  and change the stable time step by under 2%, so step counts barely move;
* Hodge fields are fixed trigonometric modes with seeded amplitudes and
  phases, resolved exactly by every grid used.

The same ``(workload, seed)`` always gives the same inputs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

VERIFY_PROBES = 16
GOLDEN_POINTS = 6
STRUCTURAL_PROBES = 12

# chart boxes of the builtin models, as sigmaflow.models defines them
_BOX = {
    "sphere": (-0.9, 0.9),
    "example4": (-1.0, 1.0),
}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{stream}/{seed}")


def model_box(name: str) -> list[tuple[float, float]]:
    """Chart box of a builtin model name such as ``hyperbolic:6``."""
    parts = name.split(":")
    if parts[0] == "warped":
        return [(0.5, 1.5)] + model_box(":".join(parts[2:]))
    n = int(parts[1])
    if parts[0] == "hyperbolic":
        r = 0.85 / math.sqrt(n)
        return [(-r, r)] * n
    return [_BOX[parts[0]]] * n


def box_point(rng: random.Random, box, margin: float = 0.1) -> list[float]:
    return [rng.uniform(lo + margin * (hi - lo), hi - margin * (hi - lo))
            for lo, hi in box]


def point_arg(x) -> str:
    return ",".join(repr(float(v)) for v in x)


# -- round spheres in a linear chart ---------------------------------------


def round_sphere(rng: random.Random, dim: int) -> dict:
    """Radius-s round sphere pulled back through y = M x.

    g = 4 s^2 M^T M / (1 + |M x|^2)^2; its Schouten endomorphism is
    1 / (2 s^2) times the identity.
    """
    s = rng.uniform(0.8, 1.25)
    m = [[(1.0 if a == b else 0.0) + rng.uniform(-0.12, 0.12)
          for b in range(dim)] for a in range(dim)]
    gram = [[sum(m[c][a] * m[c][b] for c in range(dim)) for b in range(dim)]
            for a in range(dim)]
    gram = [[0.5 * (gram[a][b] + gram[b][a]) for b in range(dim)]
            for a in range(dim)]
    ys = ["(" + " + ".join(f"{m[a][b]!r}*x{b + 1}" for b in range(dim)) + ")"
          for a in range(dim)]
    q = "(1 + " + " + ".join(f"{y}^2" for y in ys) + ")"
    metric = [[f"{4.0 * s * s * gram[a][b]!r}/{q}^2" for b in range(dim)]
              for a in range(dim)]
    return {"dim": dim, "radius": s, "m": m, "gram": gram, "ys": ys, "q": q,
            "metric": metric}


def sphere_soliton_doc(rng: random.Random, dim: int) -> tuple[dict, dict]:
    """A gradient (k, l) = (2, 1) soliton on a round sphere in a linear chart.

    f = h_v(M x), the height along a unit vector v; then hess f = -(f / s^2) g,
    so lambda = f / s^2 + log(sigma_2 / sigma_1) with
    sigma_2 / sigma_1 = (n - 1) / (4 s^2).
    """
    sph = round_sphere(rng, dim)
    s, ys, q = sph["radius"], sph["ys"], sph["q"]
    v = [rng.gauss(0.0, 1.0) for _ in range(dim + 1)]
    norm = math.sqrt(sum(c * c for c in v))
    v = [c / norm for c in v]
    lin = " + ".join(f"{v[a]!r}*{ys[a]}" for a in range(dim))
    height = f"(2*({lin}) + {v[dim]!r}*(2 - {q})) / {q}"
    logq = math.log((dim - 1) / (4.0 * s * s))
    doc = {"dim": dim, "metric": sph["metric"],
           "domain": [[-0.8, 0.8]] * dim,
           "potential": height,
           "lambda": f"({height}) / {s * s!r} + {logq!r}",
           "k": 2, "l": 1}
    return doc, sph


def metric_doc(sph: dict) -> dict:
    dim = sph["dim"]
    return {"dim": dim, "metric": sph["metric"],
            "domain": [[-0.8, 0.8]] * dim, "k": 2, "l": 1}


def _write(path: Path, doc: dict, write: bool) -> str:
    if write:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))
    return str(path)


# -- Hodge fields -----------------------------------------------------------

# potential terms alpha * sin(m . x + beta) and divergence-free terms
# gamma * cos(k . x + delta) placed in a component a with k_a = 0
_HODGE_MODES = {
    3: {"potential": [(1, 1, 0), (0, 1, -2), (2, 0, 1)],
        "solenoidal": [(0, (0, 1, 1)), (0, (0, 2, 0)), (1, (1, 0, 1)),
                       (2, (1, -1, 0))]},
    2: {"potential": [(1, 2), (3, -1), (0, 2)],
        "solenoidal": [(0, (0, 1)), (0, (0, 3)), (1, (2, 0))]},
}


def _phase(modes, phase) -> str:
    lin = " + ".join(f"{m}*x{i + 1}" for i, m in enumerate(modes) if m)
    return f"{lin} + {phase!r}"


def hodge_field(rng: random.Random, dim: int) -> dict:
    spec = _HODGE_MODES[dim]
    potential = [(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5), modes,
                  rng.uniform(0.0, 2 * math.pi)) for modes in spec["potential"]]
    solenoidal = [(comp, rng.choice((-1, 1)) * rng.uniform(0.5, 1.5), modes,
                   rng.uniform(0.0, 2 * math.pi))
                  for comp, modes in spec["solenoidal"]]
    comps = []
    for a in range(dim):
        terms = [f"{alpha * modes[a]!r}*cos({_phase(modes, beta)})"
                 for alpha, modes, beta in potential if modes[a]]
        terms += [f"{gamma!r}*cos({_phase(modes, delta)})"
                  for comp, gamma, modes, delta in solenoidal if comp == a]
        comps.append(" + ".join(terms))
    return {"dim": dim, "potential": potential, "solenoidal": solenoidal,
            "field": "; ".join(comps)}


# -- per-workload inputs ------------------------------------------------------


def make(workload: str, seed: int, spec_dir: Path, write: bool = True) -> dict:
    """Inputs of one workload run; writes generated spec files when asked."""
    tag = f"{workload}-s{seed}"
    if workload == "verify-sweep":
        rng = _rng(workload, seed, "verify")
        names = ["sphere:4", "hyperbolic:4", "example4:4", "sphere:5"]
        doc, sph = sphere_soliton_doc(_rng(workload, seed, "spec"), 3)
        return {
            "dims": [3, 4, 5], "models": names, "probes": VERIFY_PROBES,
            "verify_seed": {n: rng.randrange(1000) for n in names + ["file"]},
            "spec": sph, "spec_path": _write(spec_dir / f"{tag}-sphere3.json",
                                             doc, write),
        }
    if workload == "point-highdim":
        rng = _rng(workload, seed, "points")
        names = ["sphere:8", "hyperbolic:6", "example4:6", "warped:sinh:sphere:5"]
        sph = round_sphere(_rng(workload, seed, "spec"), 5)
        points = {n: box_point(rng, model_box(n)) for n in names}
        points["file"] = box_point(rng, [(-0.8, 0.8)] * 5)
        return {
            "dims": [5, 6, 8], "models": names, "points": points, "spec": sph,
            "spec_path": _write(spec_dir / f"{tag}-sphere5.json",
                                metric_doc(sph), write),
        }
    if workload == "identities":
        rng = _rng(workload, seed, "points")
        box = model_box("sphere:4")
        return {
            "dims": [4], "models": ["sphere:4", "hyperbolic:4"],
            "golden_points": {
                n: [box_point(rng, model_box(n)) for _ in range(GOLDEN_POINTS)]
                for n in ("sphere:4", "hyperbolic:4")},
            # lemma and obata share their probes, as users run them together
            "structural_probes": STRUCTURAL_PROBES,
            "structural_seed": rng.randrange(1000),
            "newton_points": [box_point(rng, box) for _ in range(2)],
            "conformal": [{"point": box_point(rng, box),
                           "center": [rng.uniform(-0.3, 0.3) for _ in range(4)],
                           "radius": rng.uniform(0.7, 1.4)} for _ in range(2)],
        }
    if workload == "grid-pde":
        rng = _rng(workload, seed, "fields")
        flows = []
        for n, k, l, grid, t_end in ((4, 2, 1, 128, 0.06), (5, 3, 1, 64, 0.2)):
            a, b = rng.uniform(0.03, 0.05), rng.uniform(0.0, 0.01)
            flows.append({"n": n, "k": k, "l": l, "grid": grid, "t_end": t_end,
                          "u0": f"{a!r}*cos(x1) + {b!r}*cos(2*x1)"})
        hodges = []
        for dim, grid in ((3, 32), (2, 256)):
            hodges.append({"grid": grid, **hodge_field(rng, dim)})
        return {"dims": [], "models": [], "flows": flows, "hodge": hodges}
    raise KeyError(f"unknown workload {workload!r}")
