"""The four benchmark workloads, each a closed loop of CLI commands.

Each workload function takes the run's Bench, writes its seeded inputs,
times rounds of commands through `bench.command` and returns its end-to-end
metrics as {name: (value, unit)}. Every workload reports the same metrics,
so each is a time or size of the whole round. See README.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from blockflow import RewardModel, exact_flows
from blockflow.cli import load_run_config

import checks
from inputs import (AMD_K, BENCH_DIR, BRIDGE_BASELINE_DRAWS, BRIDGE_LOGZ_GAP_MAX,
                    BRIDGE_MIN_ROUNDS, BRIDGE_POOLED_ROUNDS, BRIDGE_SAMPLE_DRAWS,
                    BRIDGE_TERMINAL_L1_MAX, CIF_COUNT, CONFIGS, EXTERNAL_EPISODES,
                    GRID_CHECKPOINT_EVERY, GRID_EPISODES, REGRESS_ROUNDS, SAMPLE_DRAWS, XY_ROWS,
                    external_config, grid_checkpoint, write_cifs, write_xy)

SETUP_REPEATS = 9


class Bench:
    """One benchmark run: runs its rounds and counts attempted and failed commands.

    Commands run as child processes. A traced run sets `clock` and runs
    them in this process instead, with the clock active (see layers.py);
    it then skips the set-up probes and runs as few rounds as its time allows.
    """

    def __init__(self, seed: int, seconds: float, work: Path, children, clock=None):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.children = children
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.rounds_run = 0
        self.command_s = 0.0
        self.problems: list[str] = []

    def note_problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def _in_process(self, args):
        from blockflow import cli

        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), self.clock:
            try:
                code = cli.main([str(a) for a in args])
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
        return SimpleNamespace(code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                               wall_s=time.perf_counter() - start,
                               cpu_s=time.process_time() - cpu)

    def command(self, *args, check=None):
        """Run one timed CLI command and its output check."""
        step = self._in_process(args) if self.clock else self.children.cli(*args)
        self.attempted += 1
        self.command_s += step.wall_s
        print(f"{args[0]}: {step.wall_s:.3f} s wall, {step.cpu_s:.3f} s cpu", file=sys.stderr)
        try:
            checks.require(step.code == 0, f"exit code {step.code}: {step.stderr.strip()[-400:]}")
            if check is not None:
                check(step)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.note_problem(f"{args[0]}: {exc}")
        return step

    def setup_s(self, *probe_args) -> float | None:
        """Median wall time of fresh processes that only set up."""
        if self.clock:
            return None
        times = []
        for _ in range(SETUP_REPEATS):
            step = self.children.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                                      *map(str, probe_args)])
            if step.code != 0:
                self.note_problem(f"set-up probe exit code {step.code}: "
                                  f"{step.stderr.strip()[-400:]}")
            times.append(step.wall_s)
        return statistics.median(times)

    def rounds(self, min_rounds: int, body) -> None:
        """Call body(i) until `seconds` have passed, at least min_rounds times."""
        if self.clock:
            min_rounds = 1
        start = time.perf_counter()
        longest = 0.0
        i = 0
        while i < min_rounds or (time.perf_counter() - start < self.seconds
                                 and self.children.remaining() > 2 * longest + 5):
            t0 = time.perf_counter()
            body(i)
            longest = max(longest, time.perf_counter() - t0)
            i += 1
        self.rounds_run = i


def _result(setup_s, times: dict[str, list[float]], wall_keys) -> dict:
    """setup_s, and the median wall and CPU seconds of one round.

    A round's wall time is the sum of its commands' wall times.
    """
    walls = [sum(values) for values in zip(*(times[key] for key in wall_keys))]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(times["cpu"]), "s"),
    }


def _train_rounds(bench, config: Path, episodes: int, checkpoint_every: int,
                  env_hash: str) -> dict[str, list[float]]:
    """Repeat one fixed-length training with the stop rule off.

    Every repeat must write the same metrics.csv bytes. round0 is kept for
    later comparison.
    """
    times: dict[str, list[float]] = {"train": [], "cpu": []}
    digests = []

    def body(i):
        out = bench.work / f"round{i}"

        def check(step):
            checks.metrics_csv(out / "metrics.csv", episodes)
            checks.checkpoint_file(out / "checkpoint.json", env_hash, episodes)
            checks.stdout_float(step.stdout, "log_z")
            digests.append(checks.digest(out / "metrics.csv"))

        step = bench.command("train", "--config", config, "--max-episodes", episodes,
                             "--stop-threshold", 0, "--checkpoint-every", checkpoint_every,
                             "--seed", bench.seed, "--out", out, check=check)
        times["train"].append(step.wall_s)
        times["cpu"].append(step.cpu_s)
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)

    bench.rounds(2, body)
    if len(set(digests)) > 1:
        bench.note_problem("repeats of one seed wrote different metrics.csv bytes")
    return times


def train_grid(bench) -> dict:
    config = CONFIGS / "train_grid.json"
    env_hash = load_run_config(config).env.env_hash
    setup_s = bench.setup_s(config)
    times = _train_rounds(bench, config, GRID_EPISODES, GRID_CHECKPOINT_EVERY, env_hash)
    return _result(setup_s, times, ["train"])


def train_external(bench) -> dict:
    config = bench.work / "train_external.json"
    external_config(config)
    env_hash = load_run_config(config).env.env_hash
    setup_s = bench.setup_s(config)
    times = _train_rounds(bench, config, EXTERNAL_EPISODES, 0, env_hash)
    # The stand-in recomputes the surrogate, so scoring through it must not
    # change a single byte of the training log.
    ref = bench.work / "surrogate"
    bench.children.cli("train", "--config", CONFIGS / "train_grid.json",
                       "--max-episodes", EXTERNAL_EPISODES, "--stop-threshold", 0,
                       "--checkpoint-every", 0, "--seed", bench.seed, "--out", ref)
    external = checks.digest(bench.work / "round0" / "metrics.csv")
    if external is None or external != checks.digest(ref / "metrics.csv"):
        bench.note_problem("external-evaluator metrics.csv differs from the surrogate run")
    return _result(setup_s, times, ["train"])


def sample_grid(bench) -> dict:
    config = CONFIGS / "train_grid.json"
    run = load_run_config(config)
    ckpt = bench.work / "checkpoint.json"
    grid_checkpoint(ckpt, bench.seed)
    setup_s = bench.setup_s(config, ckpt)
    times: dict[str, list[float]] = {"sample": [], "baseline": [], "cpu": []}
    digests = []

    def body(i):
        out = bench.work / f"round{i}"

        def check_sample(step):
            checks.dataset_csv(out / "dataset.csv", SAMPLE_DRAWS, run.env, run.reward_spec)
            digests.append(checks.digest(out / "dataset.csv"))

        common = ("--config", config, "--checkpoint", ckpt, "-n", SAMPLE_DRAWS,
                  "--seed", bench.seed, "--out", out)
        s = bench.command("sample", *common, check=check_sample)
        b = bench.command("baseline", *common,
                          check=lambda step: checks.baseline_csv(out, SAMPLE_DRAWS))
        times["sample"].append(s.wall_s)
        times["baseline"].append(b.wall_s)
        times["cpu"].append(s.cpu_s + b.cpu_s)
        shutil.rmtree(out, ignore_errors=True)

    bench.rounds(1, body)
    if len(set(digests)) > 1:
        bench.note_problem("repeats of one seed wrote different dataset.csv bytes")
    return _result(setup_s, times, ["sample", "baseline"])


def pipeline_bridge(bench) -> dict:
    config = CONFIGS / "train_bridge.json"
    run = load_run_config(config)
    flows = exact_flows(run.env, RewardModel(run.reward_spec, run.env))
    cif_dir = bench.work / "cif"
    names = write_cifs(cif_dir, bench.seed, CIF_COUNT)
    xy_path = bench.work / "xy.csv"
    x, y = write_xy(xy_path, bench.seed, XY_ROWS)
    setup_s = bench.setup_s(config)
    commands = ("train", "sample", "baseline", "amd", "regress")
    times: dict[str, list[float]] = {key: [] for key in commands + ("cpu",)}
    pooled: dict[tuple[int, ...], int] = {}
    log_zs, train_digests = [], []
    sample_digests: dict[int, set[str]] = {}

    def body(i):
        # Training uses the config's own seed, as the quick start does. The
        # draws cycle through fixed seeds, and the first rounds pool theirs
        # for the terminal-frequency check.
        seed = 1 + i % BRIDGE_POOLED_ROUNDS
        out = bench.work / f"round{i}"
        ckpt = out / "checkpoint.json"

        def check_train(step):
            checks.require("stopped_early=True" in step.stdout, "the stop rule did not fire")
            episodes = int(checks.stdout_float(step.stdout, "episodes"))
            checks.metrics_csv(out / "metrics.csv", episodes)
            log_zs.append(checks.stdout_float(step.stdout, "log_z"))
            train_digests.append(checks.digest(out / "metrics.csv"))

        def check_sample(step):
            counts = checks.dataset_csv(out / "dataset.csv", BRIDGE_SAMPLE_DRAWS, run.env,
                                        run.reward_spec)
            sample_digests.setdefault(seed, set()).add(checks.digest(out / "dataset.csv"))
            if i < BRIDGE_POOLED_ROUNDS:
                for seq, count in counts.items():
                    pooled[seq] = pooled.get(seq, 0) + count

        common = ("--config", config, "--checkpoint", ckpt, "--seed", seed, "--out", out)
        steps = [
            bench.command("train", "--config", config, "--out", out, check=check_train),
            bench.command("sample", *common, "-n", BRIDGE_SAMPLE_DRAWS, check=check_sample),
            bench.command("baseline", *common, "-n", BRIDGE_BASELINE_DRAWS,
                          check=lambda step: checks.baseline_csv(out, BRIDGE_BASELINE_DRAWS)),
            bench.command("amd", "--cif-dir", cif_dir, "-k", AMD_K, "--out", out / "amd",
                          check=lambda step: checks.amd_csv(out / "amd", names, AMD_K,
                                                            step.stdout)),
            bench.command("regress", "--data", xy_path, "--rounds", REGRESS_ROUNDS,
                          "--seed", bench.seed, "--out", out / "reg",
                          check=lambda step: checks.regression_csv(out / "reg", x, y)),
        ]
        for key, step in zip(commands, steps):
            times[key].append(step.wall_s)
        times["cpu"].append(sum(step.cpu_s for step in steps))
        shutil.rmtree(out, ignore_errors=True)

    bench.rounds(BRIDGE_MIN_ROUNDS, body)
    if len(set(train_digests)) > 1:
        bench.note_problem("repeats of one training seed wrote different metrics.csv bytes")
    if any(len(d) > 1 for d in sample_digests.values()):
        bench.note_problem("repeats of one sampling seed wrote different dataset.csv bytes")
    # The paper's claim: trained to the stop rule, the sampler draws
    # terminals in proportion to reward and learns log Z.
    if log_zs:
        gap = abs(log_zs[0] - flows.log_z)
        print(f"logz_gap {gap:.6f} nats", file=sys.stderr)
        if gap > BRIDGE_LOGZ_GAP_MAX:
            bench.note_problem(f"learned logZ is {gap:.4f} nats from the exact log Z*")
    if pooled:
        l1 = checks.terminal_l1(pooled, flows.terminal_probs)
        print(f"terminal_l1 {l1:.6f} over {sum(pooled.values())} draws", file=sys.stderr)
        if l1 > BRIDGE_TERMINAL_L1_MAX:
            bench.note_problem(f"sampled terminal frequencies are {l1:.4f} (L1) from R/Z")
    return _result(setup_s, times, commands)


def traced(workload: str, bench, path: Path) -> dict:
    """Per-layer split of the workload's own commands, run in this process.

    The workload runs twice, each for half the time: first in this process
    without wrappers, then with the layer clock installed. The difference in
    command seconds per round is the tracing overhead.
    """
    import blockflow
    from layers import LayerClock

    bench.seconds /= 2
    bench.clock = clock = LayerClock(blockflow)
    per_round = []
    for traced_pass in (False, True):
        shutil.rmtree(bench.work, ignore_errors=True)
        bench.work.mkdir(parents=True)
        bench.command_s = 0.0
        if traced_pass:
            clock.install()
        try:
            globals()[workload](bench)
        finally:
            clock.uninstall()
        per_round.append(bench.command_s / max(1, bench.rounds_run))
    rounds = max(1, bench.rounds_run)
    clock.write(path, rounds)
    print(f"per-layer self time over {rounds} traced round(s), "
          f"{per_round[1]:.3f} s per round against {per_round[0]:.3f} s untraced:\n"
          f"{clock.summary(rounds)}", file=sys.stderr)
    metrics = clock.metrics(rounds)
    metrics["trace.overhead_s"] = (per_round[1] - per_round[0], "s")
    return metrics
