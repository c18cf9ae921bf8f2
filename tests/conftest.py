import hashlib
import importlib
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from blockflow import (Environment, ExactFlows, FlowModel, ModelConfig, RewardModel, RewardSpec,
                       Topology, Vocabulary)
from blockflow.errors import BlockflowError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def file_sha256(path: str | Path) -> str:
    """The sha256 of a file's bytes, as hex."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def zero_model(config: ModelConfig) -> FlowModel:
    """A model whose every parameter is zero: its policy is uniform over each slot's valid tokens."""
    shapes = FlowModel.param_shapes(config).values()
    return FlowModel(config, np.zeros(sum(math.prod(shape) for shape in shapes)))


class TerminalStateError(BlockflowError):
    """A step was asked of a prefix that is already terminal."""


class TabularPolicy:
    """Exact policy over an enumerable environment, behind the model's
    batched step interface: the state holds each row's prefix and the
    logits are the log flows of the prefix's children."""

    def __init__(self, flows: ExactFlows, env: Environment):
        self.flows = flows
        self.env = env
        self._child_rows: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def log_z_value(self) -> float:
        return self.flows.log_z

    @property
    def start_token(self) -> int:
        return len(self.env.vocabulary)

    def step(self, tokens, state=None, *, parents=None, last=False):
        """Child log flows for a batch; `state` holds the prefixes before `tokens`.

        The state is a 1-tuple: a (rows, slots filled) array of the tokens of
        each row's prefix. As in the model's step, `parents` maps each token
        to its row of `state` (None: the token's own row), and a `last` step
        returns None for the new state. At sequence start (state None) the
        tokens are start sentinels and are not part of any prefix.
        """
        tokens = np.atleast_1d(np.asarray(tokens, dtype=np.intp))
        if state is None:
            prefixes = np.empty((tokens.shape[0], 0), dtype=np.intp)
        else:
            before = state[0] if parents is None else state[0][parents]
            prefixes = np.column_stack([before, tokens])
        logits = np.stack([self._child_log_flows(tuple(p)) for p in prefixes.tolist()])
        return logits, None if last else (prefixes,)

    def _child_log_flows(self, prefix: tuple[int, ...]) -> np.ndarray:
        row = self._child_rows.get(prefix)
        if row is None:
            slot = len(prefix)
            if slot >= self.env.n_slots:
                raise TerminalStateError("episode already terminal")
            row = np.full(len(self.env.vocabulary), -np.inf)
            for action in np.flatnonzero(self.env.slot_masks[slot]):
                flow = self.flows.flows.get(prefix + (int(action),))
                if flow:
                    row[action] = math.log(flow)
            self._child_rows[prefix] = row
        return row


@pytest.fixture(scope="session")
def bridge_env() -> Environment:
    return Environment(Topology.load(FIXTURES / "topo_bridge.json"),
                       Vocabulary.load(FIXTURES / "vocab_bridge.csv"))


@pytest.fixture(scope="session")
def bridge_reward(bridge_env) -> RewardModel:
    # cutoff below every fixture GSA so all 12 terminals score positive
    return RewardModel(RewardSpec(cutoff=2500.0, surrogate_scale=1000.0), bridge_env)


@pytest.fixture(scope="session")
def single_env() -> Environment:
    return Environment(Topology.load(FIXTURES / "topo_single.json"),
                       Vocabulary.load(FIXTURES / "vocab_bridge.csv"))


@pytest.fixture()
def set_evaluation_slots(monkeypatch):
    """Fix how many external evaluations run at once, whatever the host's CPU count."""
    # imported by name: the package's `reward` function shadows the module
    module = importlib.import_module("blockflow.reward")
    return lambda slots: monkeypatch.setattr(module, "_evaluation_slots", lambda: slots)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(1234))


def flow_log_prob(flows, prefix: tuple[int, ...], action: int) -> float:
    """log P(action | prefix) of the exact-flow policy: log F(child) - log F(prefix)."""
    child = prefix + (int(action),)
    if child not in flows.flows:
        return -math.inf
    return math.log(flows.flows[child]) - math.log(flows.flows[prefix])


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def stub_adapter_command(body: str) -> tuple[str, ...]:
    """An adapter implemented as an inline interpreter one-liner."""
    return (sys.executable, "-c", body)


def surrogate_adapter_command(vocab_csv: Path, scale: float) -> tuple[str, ...]:
    """A stdlib adapter whose answer is bit-equal to `surrogate_gsa`.

    It reads one `name:TOK1,TOK2,...` record on stdin and prints
    scale * sum(surface) / sum(mass) over its tokens.
    """
    body = (
        "import csv, sys\n"
        f"with open({str(vocab_csv)!r}, newline='') as fh:\n"
        "    rows = list(csv.reader(line for line in fh if not line.startswith('#')))\n"
        "table = {r[0].strip(): (float(r[2]), float(r[3])) for r in rows[1:] if r}\n"
        "tokens = sys.stdin.readline().strip().partition(':')[2].split(',')\n"
        "mass = surface = 0.0\n"
        "for token in tokens:\n"
        "    m, s = table[token.strip()]\n"
        "    mass += m\n"
        "    surface += s\n"
        f"print(repr({float(scale)!r} * surface / mass))\n")
    return (sys.executable, "-S", "-I", "-c", body)


def process_running(pid: int) -> bool:
    """True while pid names a live process; a zombie counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True
