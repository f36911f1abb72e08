"""Finite-dimensional quantum-logic toolkit.

Builds the maximal sublattice of subspaces on which a state's probabilities
form a measure over 2-valued homomorphisms, evaluates those property states,
checks Kochen-Specker colorability and local-hidden-variable feasibility, and
runs dual dynamics: unitary evolution of the possibility structure plus a
meshing stochastic jump process.

``import qpt`` loads none of the modules below; a public name imports its
home module on first use (PEP 562).  The name is read from that module on
every access, never copied here, so ``qpt.<name>`` is always the module's
current attribute.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

#: home module of every public name
_EXPORTS = {
    "determinate": (
        "BornProbabilities", "DeterminateSublattice", "ExtensionReport",
        "ObservableSpec", "born_check", "build_determinate",
        "complement_probe_rays", "contains", "extend_and_check", "truth_value",
    ),
    "dynamics": (
        "EvolutionSpec", "MarginalSample", "PossibilityTrajectory",
        "PropertyTrajectory", "default_timestep", "evolve_possibility",
        "jump_process", "sample_marginals", "trajectory_rows",
    ),
    "errors": (
        "AlreadyMember", "BudgetExceeded", "DimMismatch", "LabelDiscontinuity",
        "NotClosed", "NotDensityOperator", "NotHermitian", "NotInSublattice",
        "NotNormalized", "NotResolutionOfIdentity", "QptError", "RayFileError",
        "TableShapeMismatch", "UnknownFactor", "ZeroVector",
    ),
    "lattice": (
        "Subspace", "SublatticeSet", "closure", "commutes", "is_boolean",
        "join", "meet", "orthocomplement",
    ),
    "linalg": (
        "DEFAULT_TOL", "ComplexVector", "Operator", "RegisterLayout",
        "Tolerance", "basis_vector", "canonical_phase", "embed",
        "orthonormalize", "partial_trace", "random_state", "reduced_state",
        "tensor",
    ),
    "nogo": (
        "Assignment", "ChshSetting", "NoAssignment", "RaySet", "Satisfiable",
        "Unsatisfiable", "chsh_lhv_bound", "chsh_value", "correlation_table",
        "correlator", "find_assignment", "local_map_search",
        "measurement_rays", "setting_ray_sets", "singlet", "spin_observable",
    ),
    "report": ("SCHEMA_VERSION", "Check", "Quantity", "ScenarioReport"),
    "scenarios": (
        "chsh_scenario", "correspondence_scenario", "decoherence_scenario",
        "determinate_scenario", "dynamics_scenario", "epr_scenario",
        "ks_scenario", "teleportation_scenario",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        return getattr(_import_module(f"{__name__}.{home}"), name)
    if name.isidentifier():  # a submodule, such as qpt.lattice or qpt._kernels
        try:
            return _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise  # a module that exists failed to import one of its own
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
