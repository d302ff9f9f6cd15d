"""Numerical laboratory for the quintic pencil's torus fibrations.

Evaluates the meromorphic ratio s = (prod z_k)/(sum z_k^5) and its
normalized gradient field in affine charts, integrates the flow that
carries fibers of the large-complex-limit onto Lagrangian tori of a nearby
smooth member, and runs the auxiliary root-counting and calibration
probes: loop/form pairings, covering counts over the fattened
discriminant, and the explicit special-Lagrangian fibers in C^3.
"""

from .points import (AffinePoint, PoleError, eval_s, random_x_infinity_point,
                     s_gradient)
from .gradient import (FlowConfig, SigmaGuardError, closed_form_V_D4,
                       finite_difference_gradient, grad_V)
from .integrate import (FlowDiagnostics, TorusFiber, TransportResult,
                        circle_collapse_winding, distance_to_quintic,
                        distances_to_quintic, flow, flow_batch,
                        newton_project_to_quintic, transport_fiber)
from .pairing import PairingResult, loop_pairing_detailed, loop_pairings
from .covering import covering_count, covering_roots, covering_stratum
from .harveylawson import (HLProbeResult, classify_hl_target, hl_fiber_probe,
                           hl_map, hl_jacobian_rank, sample_hl_fiber)

__all__ = [
    "AffinePoint", "PoleError", "eval_s", "random_x_infinity_point",
    "s_gradient",
    "FlowConfig", "SigmaGuardError", "closed_form_V_D4",
    "finite_difference_gradient", "grad_V",
    "FlowDiagnostics", "TorusFiber", "TransportResult",
    "circle_collapse_winding", "distance_to_quintic", "distances_to_quintic",
    "flow", "flow_batch", "newton_project_to_quintic", "transport_fiber",
    "PairingResult", "loop_pairing_detailed", "loop_pairings",
    "covering_count", "covering_roots", "covering_stratum",
    "HLProbeResult", "classify_hl_target", "hl_fiber_probe", "hl_map",
    "hl_jacobian_rank", "sample_hl_fiber",
]
