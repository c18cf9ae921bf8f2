import hashlib
import importlib
import itertools
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

    @property
    def log_z_value(self) -> float:
        return self.flows.log_z

    @property
    def start_token(self) -> int:
        return len(self.env.vocabulary)

    def step(self, tokens, state=None, cache=None, *, parents=None, last=False):
        """Child log flows for a batch; `state` holds the prefixes before `tokens`.

        The state is a 1-tuple: a (rows, slots filled) array of the tokens of
        each row's prefix. As in the model's step, `parents` maps each token
        to its row of `state` (None: the token's own row), and a `last` step
        returns None for the new state. At sequence start (state None) the
        tokens are start sentinels and are not part of any prefix. The
        policy has no parameters, so it keeps no `cache`: it must be None.
        """
        assert cache is None, "an exact policy has no gradient to cache for"
        tokens = np.atleast_1d(np.asarray(tokens, dtype=np.intp))
        if state is None:
            prefixes = np.empty((tokens.shape[0], 0), dtype=np.intp)
        else:
            before = state[0] if parents is None else state[0][parents]
            prefixes = np.column_stack([before, tokens])
        slot = prefixes.shape[1]
        if slot >= self.env.n_slots:
            raise TerminalStateError("episode already terminal")
        # a prefix's children are one run of the next depth's flows
        mask = self.env.slot_masks[slot]
        children = self.flows.flows[slot + 1].reshape(-1, mask.sum())[self._prefix_index(prefixes)]
        logits = np.full((len(prefixes), len(mask)), -np.inf)
        with np.errstate(divide="ignore"):
            logits[:, mask] = np.log(children)
        return logits, None if last else (prefixes,)

    def _prefix_index(self, prefixes: np.ndarray) -> np.ndarray:
        """Each row's place among the prefixes of its depth: the ranks of its
        tokens among their slots' valid tokens, read as mixed-radix digits."""
        masks = self.env.slot_masks
        ranks, widths = np.cumsum(masks, axis=1) - 1, masks.sum(axis=1)
        index = np.zeros(len(prefixes), dtype=np.intp)
        for slot, tokens in enumerate(prefixes.T):
            index = index * widths[slot] + ranks[slot, tokens]
        return index


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


def terminal_tuples(env: Environment) -> list[tuple[int, ...]]:
    """Every terminal of `env` as a tuple of Python ints, in enumeration order."""
    return list(map(tuple, env.enumerate_terminals().tolist()))


def prefix_flow(flows: ExactFlows, prefix: tuple[int, ...]) -> float:
    """F(prefix), found by searching its depth's prefixes; 0 when none matches."""
    depth = len(prefix)
    [rows] = np.nonzero((flows.prefixes(depth) == prefix).all(axis=1))
    return float(flows.flows[depth][rows[0]]) if rows.size else 0.0


def flow_log_prob(flows: ExactFlows, prefix: tuple[int, ...], action: int) -> float:
    """log P(action | prefix) of the exact-flow policy: log F(child) - log F(prefix)."""
    child = prefix_flow(flows, prefix + (int(action),))
    if not child:
        return -math.inf
    return math.log(child) - math.log(prefix_flow(flows, prefix))


def reference_flows(env: Environment, reward_model) -> dict[tuple[int, ...], float]:
    """Each prefix's flow by definition: every terminal's floored reward added,
    in `itertools.product` order over the slots' valid tokens, to each of its prefixes."""
    terminals = list(itertools.product(*(np.flatnonzero(mask).tolist() for mask in env.slot_masks)))
    floored = np.maximum(reward_model.score_batch(terminals).reward, reward_model.spec.reward_floor)
    flows: dict[tuple[int, ...], float] = {}
    for seq, value in zip(terminals, floored.tolist()):
        for cut in range(len(seq) + 1):
            prefix = seq[:cut]
            flows[prefix] = flows.get(prefix, 0.0) + value
    return flows


def reference_flow_rows(env: Environment, flows: dict[tuple[int, ...], float]) -> list[list]:
    """The `flows.csv` rows of a prefix-flow dict: by depth, then by token indices."""
    vocab = env.vocabulary
    return [[len(prefix), ",".join(vocab[i].token_id for i in prefix), flows[prefix]]
            for prefix in sorted(flows, key=lambda p: (len(p), p))]


def assert_flows_match_reference(flows: ExactFlows, env: Environment, reward_model) -> None:
    """`==` on every flow, prefix, log Z* and terminal probability against `reference_flows`."""
    reference = reference_flows(env, reward_model)
    assert len(flows.flows) == env.n_slots + 1
    for depth, level in enumerate(flows.flows):
        prefixes = sorted(p for p in reference if len(p) == depth)
        assert flows.prefixes(depth).tolist() == list(map(list, prefixes))
        assert level.tolist() == [reference[p] for p in prefixes]
    z = reference[()]
    assert flows.log_z == float(np.log(z))
    assert list(flows.terminal_probs.items()) == [(p, reference[p] / z) for p in reference
                                                  if len(p) == env.n_slots]
    assert type(flows.log_z) is float
    assert all(type(i) is int for seq in flows.terminal_probs for i in seq)


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
