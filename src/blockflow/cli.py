"""Command-line entry point.

Subcommands: train, sample, amd, regress, baseline, flows. Exit codes:
0 success, 1 runtime failure, 2 validation failure (argparse uses 2 as well).
Every command echoes its resolved inputs to a manifest inside the output
directory before doing any work, and writes nothing outside that directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (baseline_comparison, cross_validate, exact_flows,
                       fit_univariate, holdout_validate)
from .checkpoint import file_sha256, load_checkpoint, restore_model
from .crystal import amd, descriptor_distance_matrix, load_cif_file, novelty_score
from .dataset import generate, save_dataset
from .env import Environment, Topology, Vocabulary
from .errors import BlockflowError, ValidationError
from .model import FlowModel, ModelConfig
from .reward import AdapterConfig, RewardModel, RewardSpec
from .trainer import TrainConfig, train

RUN_CONFIG_SCHEMA = "blockflow-run/1"


@dataclass
class RunConfig:
    env: Environment
    model_config: ModelConfig
    init_seed: int
    reward_spec: RewardSpec
    adapter: AdapterConfig | None
    train_config: TrainConfig
    source: Path


def _build_dataclass(cls, doc: dict, where: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    return cls(**doc)


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != RUN_CONFIG_SCHEMA:
        raise ValidationError(f"{path}: expected schema {RUN_CONFIG_SCHEMA!r}")
    for key in ("topology", "vocabulary"):
        if key not in doc:
            raise ValidationError(f"{path}: missing key {key!r}")
    base = path.parent
    vocab = Vocabulary.load(base / doc["vocabulary"])
    topo = Topology.load(base / doc["topology"], edges_enabled=doc.get("edges_enabled"))
    env = Environment(topo, vocab)

    model_doc = dict(doc.get("model", {}))
    init_seed = int(model_doc.pop("init_seed", 0))
    model_doc.setdefault("vocab_size", len(vocab))
    if model_doc["vocab_size"] != len(vocab):
        raise ValidationError(f"{path}: model.vocab_size must match the vocabulary ({len(vocab)})")
    model_config = _build_dataclass(ModelConfig, model_doc, f"{path}: model")

    reward_doc = dict(doc.get("reward", {}))
    adapter_doc = reward_doc.pop("adapter", None)
    adapter = None
    if adapter_doc is not None:
        adapter_doc = dict(adapter_doc)
        if "command" in adapter_doc:
            adapter_doc["command"] = tuple(adapter_doc["command"])
        adapter = _build_dataclass(AdapterConfig, adapter_doc, f"{path}: reward.adapter")
    reward_spec = _build_dataclass(RewardSpec, reward_doc, f"{path}: reward")

    train_config = _build_dataclass(TrainConfig, dict(doc.get("train", {})), f"{path}: train")
    return RunConfig(env=env, model_config=model_config, init_seed=init_seed,
                     reward_spec=reward_spec, adapter=adapter,
                     train_config=train_config, source=path)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, payload: dict) -> None:
    doc = {"schema": "blockflow-run-manifest/1", "command": command}
    doc.update(payload)
    (out / f"{command}_manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1))


def _restore_from_checkpoint(args, run: RunConfig) -> FlowModel:
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.env_hash != run.env.env_hash:
        raise ValidationError(
            "checkpoint does not match the configured topology and vocabulary")
    return restore_model(ckpt)


def _float_cell(x: float) -> str:
    return repr(float(x))


# -- commands ----------------------------------------------------------------


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    tc = run.train_config
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    for flag, field in (("max_episodes", "max_episodes"), ("batch_size", "batch_size"),
                        ("stop_window", "stop_window"), ("stop_threshold", "stop_threshold"),
                        ("smooth_window", "smooth_window"), ("epsilon", "exploration_epsilon"),
                        ("checkpoint_every", "checkpoint_every")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    if overrides:
        tc = dataclasses.replace(tc, **overrides)
    model = FlowModel.init(run.model_config, seed=run.init_seed)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    out = _out_dir(args)
    result = train(tc, model, run.env, reward_model, out_dir=out, resume_from=args.resume)
    print(f"episodes={result.episodes_run} stopped_early={result.stopped_early} "
          f"best_reward={result.best_reward!r} log_z={result.log_z!r}")
    if result.best_record is not None:
        print(f"best_record={result.best_record}")
    return 0


def cmd_sample(args) -> int:
    run = load_run_config(args.config)
    model = _restore_from_checkpoint(args, run)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 0
    manifest = {
        "seed": seed,
        "workers": args.workers,
        "n": args.n,
        "checkpoint": str(args.checkpoint),
        "checkpoint_sha256": file_sha256(args.checkpoint),
        "env_hash": run.env.env_hash,
        "config": str(run.source),
    }
    _write_manifest(out, "sample", manifest)
    records = generate(model, run.env, reward_model, args.n, seed, workers=args.workers)
    save_dataset(out / "dataset.csv", records, manifest=manifest)
    total = sum(r.sample_count for r in records)
    print(f"drawn={total} unique={len(records)} out={out / 'dataset.csv'}")
    return 0


def cmd_amd(args) -> int:
    out = _out_dir(args)
    cif_dir = Path(args.cif_dir)
    if not cif_dir.is_dir():
        raise ValidationError(f"{cif_dir} is not a directory")
    files = sorted(cif_dir.glob("*.cif"))
    _write_manifest(out, "amd", {
        "cif_dir": str(cif_dir), "k": args.k, "files": [f.name for f in files],
        "reference_dir": None if args.reference_dir is None else str(args.reference_dir),
    })

    def descriptors_of(paths):
        names, descs = [], []
        for f in paths:
            try:
                descs.append(amd(load_cif_file(f), k=args.k))
                names.append(f.name)
            except BlockflowError as exc:
                print(f"warning: skipping {f.name}: {exc}", file=sys.stderr)
        return names, descs

    names, descs = descriptors_of(files)
    with open(out / "amd.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file"] + [f"amd_{i}" for i in range(1, args.k + 1)])
        for name, d in zip(names, descs):
            writer.writerow([name] + [_float_cell(v) for v in d.values])
    with open(out / "distance_matrix.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file"] + names)
        if descs:
            mat = descriptor_distance_matrix(descs)
            for name, row in zip(names, mat):
                writer.writerow([name] + [_float_cell(v) for v in row])
    if args.reference_dir is not None:
        ref_dir = Path(args.reference_dir)
        if not ref_dir.is_dir():
            raise ValidationError(f"{ref_dir} is not a directory")
        ref_names, ref_descs = descriptors_of(sorted(ref_dir.glob("*.cif")))
        with open(out / "novelty.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file", "novelty"])
            if descs and ref_descs:
                for name, score in zip(names, novelty_score(descs, ref_descs)):
                    writer.writerow([name, _float_cell(score)])
    print(f"processed={len(names)} skipped={len(files) - len(names)} out={out / 'amd.csv'}")
    return 0


def _load_xy(path: Path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not rows or len(rows[0]) != 2:
        raise ValidationError(f"{path}: expected a two-column CSV with one header line")
    xs, ys = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 2 fields")
        try:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return np.array(xs), np.array(ys)


def cmd_regress(args) -> int:
    x, y = _load_xy(Path(args.data))
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 0
    _write_manifest(out, "regress", {
        "data": str(args.data), "folds": args.folds, "rounds": args.rounds,
        "seed": seed, "holdout": args.holdout, "n": int(x.shape[0]),
    })
    report = fit_univariate(x, y)
    if args.holdout:
        cv = holdout_validate(x, y, rounds=args.rounds, seed=seed)
    else:
        cv = cross_validate(x, y, folds=args.folds, rounds=args.rounds, seed=seed)
    print(f"n={report.n} slope={report.slope!r} intercept={report.intercept!r}")
    print(f"r2={report.r2!r} rmse={report.rmse!r} spearman_rho={report.spearman_rho!r}")
    print(f"cv[{cv.scheme}] test_r2={cv.test_r2_mean!r}+-{cv.test_r2_std!r} "
          f"test_rmse={cv.test_rmse_mean!r}+-{cv.test_rmse_std!r}")
    with open(out / "regression.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["n", "slope", "intercept", "r2", "rmse", "spearman_rho", "scheme",
                  "test_r2_mean", "test_r2_std", "test_rmse_mean", "test_rmse_std",
                  "train_r2_mean", "train_r2_std", "train_rmse_mean", "train_rmse_std"]
        writer.writerow(header)
        writer.writerow([report.n, _float_cell(report.slope), _float_cell(report.intercept),
                         _float_cell(report.r2), _float_cell(report.rmse),
                         _float_cell(report.spearman_rho), cv.scheme,
                         _float_cell(cv.test_r2_mean), _float_cell(cv.test_r2_std),
                         _float_cell(cv.test_rmse_mean), _float_cell(cv.test_rmse_std),
                         _float_cell(cv.train_r2_mean), _float_cell(cv.train_r2_std),
                         _float_cell(cv.train_rmse_mean), _float_cell(cv.train_rmse_std)])
    return 0


def cmd_baseline(args) -> int:
    run = load_run_config(args.config)
    model = _restore_from_checkpoint(args, run)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 0
    _write_manifest(out, "baseline", {
        "seed": seed, "n": args.n, "checkpoint": str(args.checkpoint),
        "checkpoint_sha256": file_sha256(args.checkpoint), "env_hash": run.env.env_hash,
    })
    summary = baseline_comparison(model, run.env, reward_model, args.n, seed)
    print(f"trained_mean={summary.trained_mean!r} trained_max={summary.trained_max!r}")
    print(f"uniform_mean={summary.uniform_mean!r} uniform_max={summary.uniform_max!r}")
    with open(out / "baseline.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_samples", "trained_mean", "trained_max", "uniform_mean", "uniform_max"])
        writer.writerow([summary.n_samples, _float_cell(summary.trained_mean),
                         _float_cell(summary.trained_max), _float_cell(summary.uniform_mean),
                         _float_cell(summary.uniform_max)])
    with open(out / "baseline_hist.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "trained_count", "uniform_count"])
        for i in range(summary.trained_counts.shape[0]):
            writer.writerow([_float_cell(summary.bin_edges[i]), _float_cell(summary.bin_edges[i + 1]),
                             int(summary.trained_counts[i]), int(summary.uniform_counts[i])])
    return 0


def cmd_flows(args) -> int:
    run = load_run_config(args.config)
    reward_model = RewardModel(run.reward_spec, run.env, adapter=run.adapter)
    out = _out_dir(args)
    _write_manifest(out, "flows", {
        "config": str(run.source), "bound": args.bound, "env_hash": run.env.env_hash,
    })
    result = exact_flows(run.env, reward_model, bound=args.bound)
    vocab = run.env.vocabulary
    with open(out / "flows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "prefix", "flow"])
        for prefix in sorted(result.flows, key=lambda p: (len(p), p)):
            label = ",".join(vocab[i].token_id for i in prefix)
            writer.writerow([len(prefix), label, _float_cell(result.flows[prefix])])
    with open(out / "terminal_probs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["assembly_record", "probability"])
        for seq, prob in result.terminal_probs.items():
            writer.writerow([run.env.format_assembly_record(seq), _float_cell(prob)])
    print(f"terminals={len(result.terminal_probs)} log_z={result.log_z!r}")
    return 0


# -- parser -------------------------------------------------------------------


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the shared flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="seed override")

    parser = argparse.ArgumentParser(prog="blockflow",
                                     description="Reward-proportional assembly sampler and analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[seeded, out], help="train the sampler from a run config")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to resume from")
    p.add_argument("--max-episodes", dest="max_episodes", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--stop-window", dest="stop_window", type=int, default=None)
    p.add_argument("--stop-threshold", dest="stop_threshold", type=float, default=None)
    p.add_argument("--smooth-window", dest="smooth_window", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None, help="exploration mix-in")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[seeded, out], help="draw a dataset from a checkpoint")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="RNG streams the draws are split over (the dataset depends on seed, n "
                   "and workers) and max external evaluations at a time")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("-n", type=int, required=True, help="number of draws")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("amd", parents=[out], help="descriptors for a directory of CIF files")
    p.add_argument("--cif-dir", dest="cif_dir", required=True, type=Path)
    p.add_argument("-k", type=int, default=100, help="descriptor length")
    p.add_argument("--reference-dir", dest="reference_dir", type=Path, default=None,
                   help="reference CIFs for novelty scores")
    p.set_defaults(func=cmd_amd)

    p = sub.add_parser("regress", parents=[seeded, out], help="univariate fit with cross-validation")
    p.add_argument("--data", required=True, type=Path, help="two-column CSV (x, y) with header")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--holdout", action="store_true", help="repeated 80-20 holdout instead of k-fold")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("baseline", parents=[seeded, out], help="trained vs uniform-random comparison")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("-n", type=int, default=10_000)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("flows", parents=[out], help="exact-flow oracle dump for small fixtures")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--bound", type=int, default=1_000_000)
    p.set_defaults(func=cmd_flows)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlockflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
