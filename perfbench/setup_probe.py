"""One fresh-process set-up, timed from outside by the benchmark.

    python setup_probe.py CONFIG [CHECKPOINT]

Imports the package, loads the run config and its reward model, then makes
the model ready: freshly initialised, or restored from CHECKPOINT.
"""

import sys

from blockflow import FlowModel, RewardModel, load_checkpoint, restore_model
from blockflow.cli import load_run_config


def main(argv):
    run = load_run_config(argv[1])
    RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    if len(argv) > 2:
        restore_model(load_checkpoint(argv[2]))
    else:
        FlowModel.init(run.model_config, seed=run.init_seed)


if __name__ == "__main__":
    main(sys.argv)
