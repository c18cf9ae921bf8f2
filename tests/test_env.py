import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockflow import Environment, RewardSpec, Scores, Token, Topology, Vocabulary, exact_flows
from blockflow.errors import BlockflowError, ValidationError
from conftest import FIXTURES, assert_flows_match_reference, terminal_tuples


def write_vocab(tmp_path, body, name="vocab.csv"):
    path = tmp_path / name
    path.write_text(body)
    return path


GOOD_VOCAB = """# schema=vocabulary/1
token,kind,mass_g_mol,surface_a2
N1,node,10,100
N2,node,20,250
E1,edge,5,30
"""


def test_vocab_load_happy_path(tmp_path):
    v = Vocabulary.load(write_vocab(tmp_path, GOOD_VOCAB))
    assert len(v) == 3
    assert v.index == {"N1": 0, "N2": 1, "E1": 2}
    np.testing.assert_array_equal(v.masses, [10, 20, 5])
    assert [tok.kind for tok in v.tokens] == ["node", "node", "edge"]


@pytest.mark.parametrize("body,needle", [
    ("token,kind,mass_g_mol,surface_a2\nN1,node,10,100\n", ":1"),
    ("# schema=vocabulary/2\ntoken,kind,mass_g_mol,surface_a2\n", ":1"),
    ("# schema=vocabulary/1\nid,kind,m,s\nN1,node,10,100\n", ":2"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,node,10\n", ":3"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,node,ten,100\n", ":3"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,hub,10,100\n", "hub"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nE1,node,10,100\n", "must start with"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,node,0,100\n", "positive mass"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,node,10,-1\n", "non-negative"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,node,inf,100\n", "finite positive mass"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,node,10,inf\n",
     "finite non-negative surface"),
    ("# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\nN1,node,10,1\nN1,node,9,2\n", "duplicate"),
    # a record joins its token ids with commas, so such an id could not be read back
    ('# schema=vocabulary/1\ntoken,kind,mass_g_mol,surface_a2\n"N1,x",node,10,1\n',
     "token id 'N1,x' must not hold a comma"),
])
def test_vocab_load_rejects_bad_files(tmp_path, body, needle):
    path = write_vocab(tmp_path, body)
    with pytest.raises(ValidationError) as err:
        Vocabulary.load(path)
    assert needle in str(err.value) and str(err.value).startswith(f"{path}:")


def test_vocab_requires_tokens():
    with pytest.raises(ValidationError):
        Vocabulary([])


def test_topology_load_and_slots():
    topo = Topology.load(FIXTURES / "topo_bridge.json")
    assert topo.name == "bfx"
    assert topo.slots == (("N1", "N2", "N3"), ("N4", "N5"), ("E1", "E2"))


def test_topology_edges_disabled_drops_edge_slots(tmp_path):
    doc = json.loads((FIXTURES / "topo_bridge.json").read_text())
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({**doc, "edges_enabled": False}))
    topo = Topology.load(path)
    assert topo.slots == (("N1", "N2", "N3"), ("N4", "N5"))
    env = Environment(topo, Vocabulary.load(FIXTURES / "vocab_bridge.csv"))
    assert env.n_slots == 2
    assert env.count_terminals() == 6


@pytest.mark.parametrize("doc,needle", [
    ({"schema": "topology/2"}, "schema"),
    ({"schema": "topology/1", "name": "x", "node_slots": [["N1"]]}, "edge_slots"),
    ({"schema": "topology/1", "name": "Bad Name", "node_slots": [["N1"]],
      "edge_slots": [], "edges_enabled": False}, "lowercase"),
    ({"schema": "topology/1", "name": "x", "node_slots": [],
      "edge_slots": [], "edges_enabled": False}, "no node slots"),
    ({"schema": "topology/1", "name": "x", "node_slots": [[]],
      "edge_slots": [], "edges_enabled": False}, "empty token set"),
    ({"schema": "topology/1", "name": "x", "node_slots": [["N1"]],
      "edge_slots": [], "edges_enabled": True}, "no edge slots"),
    ({"schema": "topology/1", "name": "x", "node_slots": [["N1"]],
      "edge_slots": [["E1"]], "edges_enabled": "false"}, "topo.json.edges_enabled must be"),
    ({"schema": "topology/1", "name": "x", "node_slots": 5,
      "edge_slots": []}, "topo.json.node_slots must be"),
    ({"schema": "topology/1", "name": "x", "node_slots": ["N1"],
      "edge_slots": []}, "topo.json.node_slots must be"),
    ({"schema": "topology/1", "name": "x", "node_slots": [["N1"]],
      "edge_slots": [[1]]}, "topo.json.edge_slots must be"),
    # a misspelled switch would otherwise leave the edge slots on
    ({"schema": "topology/1", "name": "x", "node_slots": [["N1"]],
      "edge_slots": [], "edge_enabled": False}, "topo.json: unknown keys ['edge_enabled']"),
])
def test_topology_load_rejects_bad_files(tmp_path, doc, needle):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        Topology.load(path)
    assert needle in str(err.value)


def test_environment_rejects_unknown_token_and_kind_mismatch(tmp_path):
    vocab = Vocabulary.load(write_vocab(tmp_path, GOOD_VOCAB))
    with pytest.raises(ValidationError, match="not in vocabulary"):
        Environment(Topology("t", (("N9",),), (), edges_enabled=False), vocab)
    with pytest.raises(ValidationError, match="kind"):
        Environment(Topology("t", (("E1",),), (), edges_enabled=False), vocab)


def test_slot_masks_match_topology(bridge_env):
    masks = bridge_env.slot_masks
    assert masks.shape == (3, 7)
    vocab = bridge_env.vocabulary
    for s, slot in enumerate(bridge_env.topology.slots):
        np.testing.assert_array_equal(
            np.flatnonzero(masks[s]), sorted(vocab.index[t] for t in slot))
    with pytest.raises(ValueError):
        masks[0, 0] = False  # read-only


def test_check_sequences_accepts_a_full_walk(bridge_env):
    bridge_env.check_sequences([(1, 3, 5)])  # N2, then N4, then E1
    assert bridge_env.format_assembly_records([(1, 3, 5)]) == ["bfx:N2,N4,E1"]
    with pytest.raises(ValidationError, match="4 tokens"):
        bridge_env.check_sequences([(1, 3, 5, 0)])  # nothing follows the last slot
    with pytest.raises(ValidationError, match="2 tokens"):
        bridge_env.check_sequences([(1, 3)])


def test_check_sequences_rejects_masked_token(bridge_env):
    with pytest.raises(ValidationError, match="slot 0: token 'E1' not in the slot's allowed set"):
        bridge_env.check_sequences([(5, 3, 5)])  # edge token at a node slot


@pytest.mark.parametrize("bad, message", [
    ((0, 3, 7), "slot 2: token index 7 out of range"),
    ((0, -1, 5), "slot 1: token index -1 out of range"),  # not read as the last token
    ((0, 4, 4), "slot 2: token 'N5' not in the slot's allowed set"),
])
def test_check_sequences_names_the_first_bad_token_among_many_rows(bridge_env, bad, message):
    rows = np.tile(bridge_env.enumerate_terminals(), (3, 1))
    assert bridge_env.check_sequences(rows).tolist() == rows.tolist()
    rows[20] = bad
    with pytest.raises(ValidationError, match=f"^{message}$"):
        bridge_env.check_sequences(rows)


def test_records_of_many_rows_are_the_records_of_each(bridge_env):
    terminals = terminal_tuples(bridge_env)
    records = bridge_env.format_assembly_records(bridge_env.enumerate_terminals())
    assert records[0] == "bfx:N1,N4,E1" and records[-1] == "bfx:N3,N5,E2"
    assert [bridge_env.parse_assembly_record(r) for r in records] == terminals


def test_enumeration_order_and_count(bridge_env):
    terms = terminal_tuples(bridge_env)
    assert len(terms) == 12
    assert bridge_env.count_terminals() == 12
    assert terms[0] == (0, 3, 5)
    assert terms[-1] == (2, 4, 6)
    assert terms == sorted(terms)  # slot-wise index order
    bridge_env.check_sequences(terms)


def test_enumeration_bound_refuses(bridge_env):
    with pytest.raises(BlockflowError, match="12 terminal states exceed the bound 5") as err:
        bridge_env.enumerate_terminals(bound=5)
    assert not isinstance(err.value, ValidationError)


def test_record_roundtrip(bridge_env):
    [rec] = bridge_env.format_assembly_records([(0, 3, 5)])
    assert rec == "bfx:N1,N4,E1"
    assert bridge_env.parse_assembly_record(rec) == (0, 3, 5)
    assert bridge_env.parse_assembly_record("bfx: N2 , N5 , E2 ") == (1, 4, 6)


@pytest.mark.parametrize("record,needle", [
    ("bfx N1,N4,E1", "separator"),
    ("other:N1,N4,E1", "topology"),
    ("bfx:N1,N4,Z9", "unknown token"),
    ("bfx:N1,N4", "needs 3"),
    ("bfx:N1,N4,N4", "allowed set"),
])
def test_record_parse_errors(bridge_env, record, needle):
    with pytest.raises(ValidationError) as err:
        bridge_env.parse_assembly_record(record)
    assert needle in str(err.value)


def test_check_sequences_is_independent_of_sampler(bridge_env):
    bridge_env.check_sequences([(2, 4, 6)])
    with pytest.raises(ValidationError):
        bridge_env.check_sequences([(2, 4)])
    with pytest.raises(ValidationError):
        bridge_env.check_sequences([(5, 4, 6)])
    with pytest.raises(ValidationError):
        bridge_env.check_sequences([(0, 3, 99)])


def test_env_hash_is_content_addressed(bridge_env):
    again = Environment(Topology.load(FIXTURES / "topo_bridge.json"),
                        Vocabulary.load(FIXTURES / "vocab_bridge.csv"))
    assert again.env_hash == bridge_env.env_hash
    tokens = [Token(t.token_id, t.kind, t.mass_g_mol, t.surface_a2)
              for t in bridge_env.vocabulary.tokens]
    tokens[0] = Token("N1", "node", 999.0, 300.0)
    other = Environment(bridge_env.topology, Vocabulary(tokens))
    assert other.env_hash != bridge_env.env_hash


@pytest.mark.parametrize("topology, vocabulary, env_hash", [
    ("topo_bridge.json", "vocab_bridge.csv",
     "4c2b78dedca8920cb927c51386bf57bc791935133acad1153305b04b259600fe"),
    ("topo_grid.json", "vocab_grid.csv",
     "fa484884ec47836335edfa43ca21898d142e0161a32fc75d825825a70565ec99"),
    ("topo_single.json", "vocab_bridge.csv",
     "7799d78fc0c7e024e8f5ba2d7278f37f421429dd364169024fe15957c6f6ff9c"),
])
def test_env_hash_pins(topology, vocabulary, env_hash):
    # a checkpoint names its environment by this hash, so a change to its
    # payload would refuse every checkpoint written before it
    env = Environment(Topology.load(FIXTURES / topology), Vocabulary.load(FIXTURES / vocabulary))
    assert env.env_hash == env_hash


class TableReward:
    """A reward model whose reward is a product of per-slot, per-token random factors."""

    def __init__(self, env: Environment, seed: int):
        self.spec = RewardSpec(cutoff=1.0)
        self.factors = np.random.Generator(np.random.PCG64(seed)).lognormal(
            0.0, 3.0, env.slot_masks.shape)

    def score_batch(self, rows) -> Scores:
        rows = np.asarray(rows, dtype=np.intp)
        reward = self.factors[np.arange(rows.shape[1]), rows].prod(axis=1)
        return Scores(reward, reward, {})


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(2, 5),
       st.integers(0, 2**32 - 1))
def test_counts_match_enumeration_on_random_layouts(sizes, vocab_n, seed):
    tokens = [Token(f"N{i}", "node", 1.0 + i, 10.0 * i) for i in range(1, vocab_n + 1)]
    vocab = Vocabulary(tokens)
    # uneven widths; a slot's valid tokens wrap round the vocabulary, so they need not start at 0
    slots = tuple(tuple(f"N{(s + j) % vocab_n + 1}" for j in range(min(size, vocab_n)))
                  for s, size in enumerate(sizes))
    env = Environment(Topology("rand", slots, (), edges_enabled=False), vocab)
    terms = terminal_tuples(env)
    assert len(terms) == env.count_terminals()
    assert len(set(terms)) == len(terms)
    assert terms == sorted(terms)  # slot-wise index order
    env.check_sequences(terms)
    reward_model = TableReward(env, seed)
    assert_flows_match_reference(exact_flows(env, reward_model), env, reward_model)
