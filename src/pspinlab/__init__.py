"""Numerical laboratory for the annealed complexity of finite-rank spiked
spherical polynomial landscapes.

Closed-form layer: complexity surfaces, spike-perturbation eigenvalues, and
eigenvalue large-deviation rates.  Stochastic layer: seeded spiked-GOE Monte
Carlo and exact finite-dimension critical point counting for cross checks.

Importing the package loads none of its modules, and not numpy: every
module loads on first use, `core`, `spikes` and `rates` of the closed-form
layer and the stochastic layer (`rmt`, `kacrice`).  The first lookup of one
of their names, e.g. `pspinlab.ModelParams`, `pspinlab.big_l` or
`pspinlab.GOESpec`, imports its module.  One overlap point runs through
`core` on Python floats, and numpy loads with the first stack or other
array.
"""
import importlib

__version__ = "0.1.0"

# name -> submodule, imported by the first lookup: the one list of public
# names, from which each submodule reads its __all__.  The resolved objects
# are not stored in the package namespace, so every lookup reads the
# submodule's current global.
_LAZY = {
    **dict.fromkeys(
        (
            "ModelParams",
            "AuxStatistics",
            "RegimeLabel",
            "tau_critical",
            "eta_critical",
            "lambda_critical",
            "edge_area",
            "phi_star",
            "s_func",
            "y_shift",
            "t_func",
            "sigma_tot_joint",
            "sigma_tot_projected",
            "aux_statistics",
            "classify_regime",
            "zero_locus_solve",
            "g_ab",
            "f_ab",
            "appendix_diagnostics",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "i_goe",
            "j_coupling",
            "i_gamma",
            "i_max",
            "big_l",
            "big_l_left",
            "sigma_max_joint",
            "sigma_max_projected",
        ),
        "rates",
    ),
    **dict.fromkeys(
        ("perturbation_factors", "spike_eigenvalues", "spike_eigenvalues_r2"),
        "spikes",
    ),
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
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    # a submodule, e.g. pspinlab.core, imports on its first lookup too
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [*_LAZY, "__version__"]
