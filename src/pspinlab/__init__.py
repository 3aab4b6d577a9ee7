"""Numerical laboratory for the annealed complexity of finite-rank spiked
spherical polynomial landscapes.

Closed-form layer: complexity surfaces, spike-perturbation eigenvalues, and
eigenvalue large-deviation rates.  Stochastic layer: seeded spiked-GOE Monte
Carlo and exact finite-dimension critical point counting for cross checks.

Importing the package loads the closed-form layer (`core`, `spikes`,
`rates`).  The stochastic layer (`rmt`, `kacrice`) loads on first use: the
first lookup of one of its names, e.g. `pspinlab.GOESpec`, imports its
module.
"""
import importlib

from .core import (
    AuxStatistics,
    ModelParams,
    RegimeLabel,
    appendix_diagnostics,
    aux_statistics,
    classify_regime,
    edge_area,
    eta_critical,
    f_ab,
    g_ab,
    lambda_critical,
    phi_star,
    s_func,
    sigma_tot_joint,
    sigma_tot_projected,
    t_func,
    tau_critical,
    y_shift,
    zero_locus_solve,
)
from .rates import (
    big_l,
    big_l_left,
    i_gamma,
    i_goe,
    i_max,
    j_coupling,
    sigma_max_joint,
    sigma_max_projected,
)
from .spikes import perturbation_factors, spike_eigenvalues, spike_eigenvalues_r2

__version__ = "0.1.0"

# name -> submodule for the stochastic layer, imported by the first lookup.
# The resolved objects are not stored in the package namespace, so every
# lookup reads the submodule's current global.
_LAZY = {
    **dict.fromkeys(
        (
            "CriticalPoint",
            "QuadratureError",
            "SpikedPolynomial",
            "build_polynomial",
            "c_constant",
            "count_expected",
            "find_critical_points",
            "kac_rice_eval",
            "sphere_surface",
        ),
        "kacrice",
    ),
    **dict.fromkeys(
        (
            "GOESpec",
            "MCEstimate",
            "SpectralSample",
            "esd_distance",
            "mc_lambda_max_tail",
            "mc_log_abs_det",
            "mc_restricted_det",
            "sample_spectrum",
            "spherical_integral_mc",
        ),
        "rmt",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AuxStatistics",
    "CriticalPoint",
    "GOESpec",
    "MCEstimate",
    "ModelParams",
    "QuadratureError",
    "RegimeLabel",
    "SpectralSample",
    "SpikedPolynomial",
    "appendix_diagnostics",
    "aux_statistics",
    "big_l",
    "big_l_left",
    "build_polynomial",
    "c_constant",
    "classify_regime",
    "count_expected",
    "edge_area",
    "esd_distance",
    "eta_critical",
    "f_ab",
    "find_critical_points",
    "g_ab",
    "i_gamma",
    "i_goe",
    "i_max",
    "j_coupling",
    "kac_rice_eval",
    "lambda_critical",
    "mc_lambda_max_tail",
    "mc_log_abs_det",
    "mc_restricted_det",
    "perturbation_factors",
    "phi_star",
    "s_func",
    "sample_spectrum",
    "sigma_max_joint",
    "sigma_max_projected",
    "sigma_tot_joint",
    "sigma_tot_projected",
    "sphere_surface",
    "spherical_integral_mc",
    "spike_eigenvalues",
    "spike_eigenvalues_r2",
    "t_func",
    "tau_critical",
    "y_shift",
    "zero_locus_solve",
    "__version__",
]
