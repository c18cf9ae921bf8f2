"""Reward-proportional sampler for slot-constrained building-block assemblies,
with crystal-descriptor and capture-metric analysis tools.

Exported names load from their modules on first use (PEP 562), so `import
blockflow` loads neither numpy nor any submodule."""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "analysis": "CrossValSummary IsothermRow RegressionReport average_ranks cross_validate "
                "fit_univariate holdout_validate load_isotherm_table pearson_r percentile_rank "
                "selectivity spearman_rho working_capacity",
    "checkpoint": "load_checkpoint restore_model save_checkpoint",
    "crystal": "PeriodicPointSet amd cell_basis descriptor_distance_matrix "
               "kth_nearest_distances load_cif_file novelty_score parse_cif",
    "dataset": "BaselineSummary CandidateRecord ExactFlows baseline_comparison "
               "exact_flows generate load_dataset save_dataset top_k",
    "env": "Environment Token Topology Vocabulary",
    "errors": "BlockflowError ValidationError",
    "model": "FlowModel ModelConfig",
    "optim": "Adam adam_update",
    "reward": "AdapterConfig RewardModel RewardSpec Scores external_gsa reward surrogate_gsa",
    "trainer": "TrainConfig TrainResult rollout train",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule binds the package's `reward` to it; the name
        # stays the exported function, as `from blockflow import reward` expects
        if name == "reward" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
