"""Numerical toolkit for locally periodic homogenization.

Microstructure coverings with frozen local lattices, discrete unfolding
operators with testable integration and boundary identities, unit-cell
corrector solves producing space-dependent effective tensors, a
microscopic signaling solver on perforated grids, the homogenized
macroscopic solver, and a convergence-study harness comparing the two
across an epsilon sweep. The command line front end lives in lphom.cli.

The namespace is lazy: ``import lphom`` loads no submodule, and each
public name imports its home submodule on first access. geometry, imex,
scenarios and unfolding need only numpy; cell_problem, micro, macro and
harness bring in scipy's sparse solvers when first imported.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the public names it defines
_EXPORTS = {
    "cell_problem": ("EffectiveTensorField", "effective_tensor", "solve_cell",
                     "tensor_field"),
    "geometry": ("Partition", "TransformField", "UnitCellSpec",
                 "build_partition", "indicator_perforated"),
    "harness": ("ConvergenceReport", "EpsilonResult", "StudyConfig",
                "convergence_study", "write_convergence_csv"),
    "imex": ("Run",),
    "macro": ("MacroConfig", "assemble_macro", "macro_nodes", "run_macro"),
    "micro": ("MicroConfig", "build_micro_grid", "run_micro"),
    "scenarios": ("SCENARIO_NAMES", "CoefficientSuite", "Scenario",
                  "get_scenario"),
    "unfolding": ("GammaQuadrature", "check_boundary_identity",
                  "check_integration_identity", "grid_function_from_callable",
                  "interpolate_Q", "lattice_pwc_field", "local_average",
                  "lts_pairing", "remainder_R", "unfold", "unfold_boundary"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value     # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
