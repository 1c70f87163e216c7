"""Fake-saddle singularities of planar vector fields.

Classify generic fake saddles in normal form, compute the closed-form
leading coefficient of the transition map across the singular fiber,
and cross-validate every closed form against exact blow-up algebra and
numerical ODE integration.
"""

from .asymptotics import (SectionPair, TransitionReport, arctan_sum, gamma0,
                          gamma_pm, pv_integral, pv_integral_eps_oracle,
                          pv_integral_sym_infinite, transition_report)
from .blowup import (BlowupChart, ChartKind, DivisorReport, SaddleData,
                     blow_up, divisor_report, saddle_data)
from .flow import (IntegratorConfig, ProbeVerdict, SlopeEstimate, Stop,
                   Trajectory, conservation_check, integrate, monodromy_probe,
                   return_slope, transition_slope)
from .normalform import (Classification, Invariants, NormalFormField, Verdict,
                         classify, invariants, validate_and_build)
from .polyfield import AffineMap2, PlanarField, Poly2, pullback_affine

__version__ = "0.1.0"

__all__ = [
    "AffineMap2", "BlowupChart", "ChartKind", "Classification",
    "DivisorReport", "IntegratorConfig", "Invariants", "NormalFormField",
    "PlanarField", "Poly2", "ProbeVerdict", "SaddleData", "SectionPair",
    "SlopeEstimate", "Stop", "Trajectory", "TransitionReport", "Verdict",
    "arctan_sum", "blow_up", "classify", "conservation_check",
    "divisor_report", "gamma0", "gamma_pm", "integrate",
    "invariants", "monodromy_probe", "pullback_affine", "pv_integral",
    "pv_integral_eps_oracle", "pv_integral_sym_infinite", "return_slope",
    "saddle_data", "transition_report", "transition_slope",
    "validate_and_build",
]
