"""Command-line entry point.

Subcommands: train, sample, amd, regress, baseline, flows. Exit codes:
0 success, 1 runtime failure, 2 validation failure (argparse uses 2 as well).
Every command echoes its resolved inputs to a manifest once it has accepted
them, before doing the work; writing the manifest makes the output directory,
so a command refused with exit 2 leaves none. Nothing is written outside it.

This module loads only the standard library; each command imports the
modules it runs, so `main` can set the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import BlockflowError, ValidationError
from .files import build_dataclass, read_json, read_table, typed, write_manifest, write_table

RUN_CONFIG_SCHEMA = "blockflow-run/1"
_RUN_CONFIG_KEYS = ("schema", "topology", "vocabulary", "model", "reward", "train")


@dataclass
class RunConfig:
    env: Environment
    model_config: ModelConfig
    init_seed: int
    reward_spec: RewardSpec
    adapter: AdapterConfig | None
    train_config: TrainConfig


def load_run_config(path: str | Path) -> RunConfig:
    from .env import Environment, Topology, Vocabulary
    from .model import ModelConfig
    from .reward import AdapterConfig, RewardSpec
    from .trainer import TrainConfig
    path = Path(path)
    doc = read_json(path, RUN_CONFIG_SCHEMA)
    unknown = set(doc) - set(_RUN_CONFIG_KEYS)
    if unknown:
        raise ValidationError(
            f"{path}: unknown keys {sorted(unknown)}; allowed {sorted(_RUN_CONFIG_KEYS)}")
    for key in ("topology", "vocabulary"):
        if key not in doc:
            raise ValidationError(f"{path}: missing key {key!r}")
        typed(doc[key], str, f"{path}: {key}")
    base = path.parent
    vocab = Vocabulary.load(base / doc["vocabulary"])
    env = Environment(Topology.load(base / doc["topology"]), vocab)

    model_doc = typed(doc.get("model", {}), dict, f"{path}: model")
    init_seed = typed(model_doc.pop("init_seed", 0), int, f"{path}: model.init_seed")
    if init_seed < 0:
        raise ValidationError(f"{path}: model.init_seed must be >= 0, got {init_seed}")
    model_doc.setdefault("vocab_size", len(vocab))
    if model_doc["vocab_size"] != len(vocab):
        raise ValidationError(f"{path}: model.vocab_size must match the vocabulary ({len(vocab)})")
    model_config = build_dataclass(ModelConfig, model_doc, f"{path}: model")

    reward_doc = typed(doc.get("reward", {}), dict, f"{path}: reward")
    adapter_doc = reward_doc.pop("adapter", None)
    adapter = None
    if adapter_doc is not None:
        adapter = build_dataclass(AdapterConfig, adapter_doc, f"{path}: reward.adapter")
    reward_spec = build_dataclass(RewardSpec, reward_doc, f"{path}: reward")

    train_config = build_dataclass(TrainConfig, doc.get("train", {}), f"{path}: train")
    return RunConfig(env=env, model_config=model_config, init_seed=init_seed,
                     reward_spec=reward_spec, adapter=adapter,
                     train_config=train_config)


def _restore_from_checkpoint(args, run: RunConfig) -> tuple[FlowModel, str]:
    from .checkpoint import load_run_checkpoint, restore_model
    ckpt = load_run_checkpoint(args.checkpoint, run.env.env_hash, run.model_config)
    return restore_model(ckpt), ckpt.checksum


# -- commands ----------------------------------------------------------------


def cmd_train(args) -> int:
    from .model import FlowModel
    from .reward import RewardModel
    from .trainer import train
    run = load_run_config(args.config)
    overrides = {field: getattr(args, field) for field in
                 ("seed", "max_episodes", "stop_threshold", "checkpoint_every")
                 if getattr(args, field) is not None}
    tc = dataclasses.replace(run.train_config, **overrides)
    model = FlowModel.init(run.model_config, seed=run.init_seed)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    result = train(tc, model, run.env, reward_model, out_dir=args.out, resume_from=args.resume)
    print(f"episodes={result.episodes_run} stopped_early={result.stopped_early} "
          f"best_reward={result.best_reward!r} log_z={result.log_z!r}")
    if result.best_record is not None:
        print(f"best_record={result.best_record}")
    if result.evaluator_failures:
        print(f"warning: {result.evaluator_failures} episodes scored by a failed evaluation; "
              f"the first: {result.first_evaluator_error}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    from .dataset import generate, save_dataset
    from .reward import RewardModel
    run = load_run_config(args.config)
    model, checksum = _restore_from_checkpoint(args, run)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    write_manifest(args.out / "sample_manifest.json", "sample", {
        "seed": args.seed,
        "n": args.n,
        "checkpoint": str(args.checkpoint),
        "checkpoint_checksum": checksum,
        "env_hash": run.env.env_hash,
        "config": str(args.config),
    })
    records = generate(model, run.env, reward_model, args.n, args.seed)
    save_dataset(args.out / "dataset.csv", records)
    total = sum(r.sample_count for r in records)
    print(f"drawn={total} unique={len(records)} out={args.out / 'dataset.csv'}")
    return 0


def cmd_amd(args) -> int:
    import numpy as np

    from .crystal import amd, descriptor_distance_matrix, load_cif_file, novelty_score
    out, cif_dir, ref_dir = args.out, args.cif_dir, args.reference_dir
    for directory in (cif_dir, ref_dir):
        if directory is not None and not directory.is_dir():
            raise ValidationError(f"{directory} is not a directory")
    files = sorted(cif_dir.glob("*.cif"))
    write_manifest(out / "amd_manifest.json", "amd", {
        "cif_dir": str(cif_dir), "k": args.k, "files": [f.name for f in files],
        "reference_dir": None if ref_dir is None else str(ref_dir),
    })

    def descriptors_of(paths):
        names, descs = [], []
        for f in paths:
            where = ""  # an error of the read names the file itself
            try:
                structure = load_cif_file(f)
                where = f"{f}: "
                descs.append(amd(structure, k=args.k))
                names.append(f.name)
            except BlockflowError as exc:
                print(f"warning: skipping {where}{exc}", file=sys.stderr)
        return names, descs

    names, descs = descriptors_of(files)
    write_table(out / "amd.csv", ["file"] + [f"amd_{i}" for i in range(1, args.k + 1)],
                ([name, *d.tolist()] for name, d in zip(names, descs)))
    # The matrix is bitwise symmetric (row j - row i negates row i - row j),
    # so each pair's text is made once, from the upper triangle.
    cells = np.empty((len(descs), len(descs)), dtype=object)
    for i, row in enumerate(descriptor_distance_matrix(descs).tolist()):
        cells[i, i:] = cells[i:, i] = list(map(repr, row[i:]))
    write_table(out / "distance_matrix.csv", ["file"] + names,
                ([name, *row] for name, row in zip(names, cells.tolist())))
    if ref_dir is not None:
        ref_names, ref_descs = descriptors_of(sorted(ref_dir.glob("*.cif")))
        scores = novelty_score(descs, ref_descs).tolist() if descs and ref_descs else []
        write_table(out / "novelty.csv", ["file", "novelty"], zip(names, scores))
    print(f"processed={len(names)} skipped={len(files) - len(names)} out={out / 'amd.csv'}")
    return 0


def _load_xy(path: Path) -> tuple[list[float], list[float]]:
    header, rows = read_table(path)
    if len(header) != 2:
        raise ValidationError(f"{path}: expected a two-column CSV with one header line")
    xs, ys = [], []
    for lineno, row in rows:
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"{path}:{lineno}: x and y must be finite, got {row[0]!r}, {row[1]!r}")
        xs.append(x)
        ys.append(y)
    return xs, ys


def cmd_regress(args) -> int:
    from .analysis import cross_validate, fit_univariate, holdout_validate
    x, y = _load_xy(args.data)
    # only the fits can tell that a table is degenerate, so they run before the manifest
    report = fit_univariate(x, y)
    if args.holdout:
        cv = holdout_validate(x, y, rounds=args.rounds, seed=args.seed)
    else:
        cv = cross_validate(x, y, folds=args.folds, rounds=args.rounds, seed=args.seed)
    write_manifest(args.out / "regress_manifest.json", "regress", {
        "data": str(args.data), "folds": args.folds, "rounds": args.rounds,
        "seed": args.seed, "holdout": args.holdout, "n": len(x),
    })
    print(f"n={report.n} slope={report.slope!r} intercept={report.intercept!r}")
    print(f"r2={report.r2!r} rmse={report.rmse!r} spearman_rho={report.spearman_rho!r}")
    print(f"cv[{cv.scheme}] test_r2={cv.test_r2_mean!r}+-{cv.test_r2_std!r} "
          f"test_rmse={cv.test_rmse_mean!r}+-{cv.test_rmse_std!r}")
    header = ["n", "slope", "intercept", "r2", "rmse", "spearman_rho", "scheme",
              "test_r2_mean", "test_r2_std", "test_rmse_mean", "test_rmse_std",
              "train_r2_mean", "train_r2_std", "train_rmse_mean", "train_rmse_std"]
    values = {**dataclasses.asdict(report), **dataclasses.asdict(cv)}
    write_table(args.out / "regression.csv", header, [[values[name] for name in header]])
    return 0


def cmd_baseline(args) -> int:
    from .dataset import baseline_comparison
    from .reward import RewardModel
    run = load_run_config(args.config)
    model, checksum = _restore_from_checkpoint(args, run)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    write_manifest(args.out / "baseline_manifest.json", "baseline", {
        "seed": args.seed, "n": args.n, "checkpoint": str(args.checkpoint),
        "checkpoint_checksum": checksum, "env_hash": run.env.env_hash,
    })
    summary = baseline_comparison(model, run.env, reward_model, args.n, args.seed)
    print(f"trained_mean={summary.trained_mean!r} trained_max={summary.trained_max!r}")
    print(f"uniform_mean={summary.uniform_mean!r} uniform_max={summary.uniform_max!r}")
    header = ["n_samples", "trained_mean", "trained_max", "uniform_mean", "uniform_max"]
    write_table(args.out / "baseline.csv", header, [[getattr(summary, name) for name in header]])
    edges = summary.bin_edges.tolist()
    write_table(args.out / "baseline_hist.csv", ["bin_low", "bin_high", "trained_count", "uniform_count"],
                zip(edges[:-1], edges[1:], summary.trained_counts.tolist(),
                    summary.uniform_counts.tolist()))
    return 0


def cmd_flows(args) -> int:
    from .dataset import exact_flows
    from .reward import RewardModel
    run = load_run_config(args.config)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    write_manifest(args.out / "flows_manifest.json", "flows", {
        "config": str(args.config), "bound": args.bound, "env_hash": run.env.env_hash,
    })
    result = exact_flows(run.env, reward_model, bound=args.bound)
    token_ids = run.env.vocabulary.token_ids
    write_table(args.out / "flows.csv", ["depth", "prefix", "flow"],
                ([depth, ",".join(ids), flow] for depth, level in enumerate(result.flows)
                 for ids, flow in zip(token_ids[result.prefixes(depth)].tolist(), level.tolist())))
    write_table(args.out / "terminal_probs.csv", ["assembly_record", "probability"],
                zip(run.env.format_assembly_records(result.terminals), result.terminal_probs.values()))
    print(f"terminals={len(result.terminal_probs)} log_z={result.log_z!r}")
    return 0


# -- parser -------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer >= `low`, refused at parsing otherwise."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    parse.__name__ = "integer"  # argparse names it in "invalid integer value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the shared flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_at_least(0), default=0, help="random seed")

    parser = argparse.ArgumentParser(prog="blockflow",
                                     description="Reward-proportional assembly sampler and analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[out], help="train the sampler from a run config")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="overrides the config's seed")
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to resume from")
    p.add_argument("--max-episodes", dest="max_episodes", type=int, default=None)
    p.add_argument("--stop-threshold", dest="stop_threshold", type=float, default=None)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[seeded, out], help="draw a dataset from a checkpoint")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("-n", type=_int_at_least(0), required=True, help="number of draws")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("amd", parents=[out], help="descriptors for a directory of CIF files")
    p.add_argument("--cif-dir", dest="cif_dir", required=True, type=Path)
    p.add_argument("-k", type=_int_at_least(1), default=100, help="descriptor length")
    p.add_argument("--reference-dir", dest="reference_dir", type=Path, default=None,
                   help="reference CIFs for novelty scores")
    p.set_defaults(func=cmd_amd)

    p = sub.add_parser("regress", parents=[seeded, out], help="univariate fit with cross-validation")
    p.add_argument("--data", required=True, type=Path, help="two-column CSV (x, y) with header")
    p.add_argument("--folds", type=_int_at_least(2), default=10)
    p.add_argument("--rounds", type=_int_at_least(1), default=50)
    p.add_argument("--holdout", action="store_true", help="repeated 80-20 holdout instead of k-fold")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("baseline", parents=[seeded, out], help="trained vs uniform-random comparison")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("-n", type=_int_at_least(1), default=10_000)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("flows", parents=[out], help="exact-flow oracle dump for small fixtures")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--bound", type=_int_at_least(1), default=1_000_000)
    p.set_defaults(func=cmd_flows)
    return parser


def main(argv=None) -> int:
    # One BLAS thread unless the user set a count: at this package's matrix
    # sizes a second thread buys little and takes the CPU that external
    # evaluators need. The variables count only before numpy loads, so a
    # caller that has loaded it keeps its environment.
    if "numpy" not in sys.modules:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(name, "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BlockflowError, OSError) as exc:  # a file that could not be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
