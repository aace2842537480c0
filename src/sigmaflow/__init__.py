"""Curvature of coordinate-chart metrics, sigma_k quotient solitons, the
rotationally symmetric quotient flow on spheres, and torus Hodge splitting."""

from . import expr, flow, hodge, models, probes, sigma, soliton, taylor, tensor
from .curvature import (CovariantOps, GeometryError, MetricChart,
                        covariant_ops, curvature_at, curvature_taylor,
                        kulkarni_nomizu)
from .sigma import ConeConditionError, SigmaProfile, sigma_profile
from .soliton import ResidualReport, SolitonSpec, soliton_residual

__all__ = [
    "expr", "flow", "hodge", "models", "probes", "sigma", "soliton",
    "taylor", "tensor",
    "CovariantOps", "GeometryError", "MetricChart",
    "covariant_ops", "curvature_at", "curvature_taylor", "kulkarni_nomizu",
    "ConeConditionError", "SigmaProfile", "sigma_profile",
    "ResidualReport", "SolitonSpec", "soliton_residual",
]

__version__ = "0.1.0"
