"""Reward-proportional sampler for slot-constrained building-block assemblies,
with crystal-descriptor and capture-metric analysis tools."""

from .analysis import (BaselineSummary, CrossValSummary, ExactFlows,
                       IsothermRow, RegressionReport, TabularPolicy,
                       average_ranks, baseline_comparison, cross_validate,
                       exact_flows, fit_univariate, holdout_validate,
                       load_isotherm_table, pearson_r, percentile_rank,
                       selectivity, spearman_rho, working_capacity)
from .autodiff import Tensor, backward, no_grad
from .checkpoint import (load_checkpoint, restore_model, restore_optimizer,
                         restore_rng, save_checkpoint)
from .crystal import (AmdDescriptor, CifStructure, PeriodicPointSet, amd,
                      cell_basis, descriptor_distance_matrix,
                      kth_nearest_distances, load_cif_file, novelty_score,
                      parse_cif)
from .dataset import CandidateRecord, generate, load_dataset, save_dataset, top_k
from .env import Environment, Token, Topology, Vocabulary
from .errors import (AutodiffError, BlockflowError, CoincidentPointsError,
                     ConfigurationError, DeadEndError, DegenerateInputError,
                     EnumerationBoundError, TerminalStateError, TrainingAbort,
                     ValidationError)
from .model import FlowModel, ModelConfig
from .optim import Adam, adam_update
from .reward import (AdapterConfig, GsaResult, RewardModel, RewardSpec,
                     external_gsa, loss_reward, reward, surrogate_gsa)
from .trainer import TrainConfig, TrainResult, rollout, train, uniform_rollout

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
