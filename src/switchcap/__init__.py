"""Quantum SWITCH of depolarizing channels: simulation and Holevo capacity."""

from .qmat import DensityMatrix, Spectrum, von_neumann_entropy, partial_trace, tensor
from .channels import (
    KrausChannel,
    apply,
    compose_parallel,
    compose_serial,
    depolarizing_channel,
    dephasing_channel,
    identity_channel,
    is_cptp,
    weyl_basis,
)
from .switch import (
    ControlState,
    JointState,
    fourier_measure_control,
    switch_apply,
    switch_channel,
    switch_with_fixed_control,
    switched_depolarizing_analytic,
)
from .capacity import (
    CapacityReport,
    Ensemble,
    holevo_analytic,
    holevo_of_ensemble,
    h_min,
    optimize_ensemble,
    orthonormal_ensemble,
    reduced_control_state,
    switched_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
