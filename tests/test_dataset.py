import csv
import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from blockflow import (AdapterConfig, CandidateRecord, FlowModel, RewardModel, RewardSpec,
                       baseline_comparison, exact_flows, generate, load_dataset, rollout,
                       save_dataset, top_k)
from blockflow import dataset as dataset_mod
from blockflow.cli import load_run_config
from blockflow.errors import ValidationError
from conftest import CONFIGS, TabularPolicy, stub_adapter_command


@pytest.fixture(scope="module")
def tabular(bridge_env, bridge_reward):
    return TabularPolicy(exact_flows(bridge_env, bridge_reward), bridge_env)


def test_generate_counts_sum_to_n(bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=400, seed=3)
    assert sum(r.sample_count for r in records) == 400
    assert len(records) <= 12
    assert len({r.record for r in records}) == len(records)


@pytest.mark.parametrize("cutoff", [2500.0, 7000.0], ids=["product-form", "prefix-dependent"])
def test_generate_frequencies_match_exact_probs(bridge_env, cutoff):
    # drawing from the exact policy, every terminal's empirical frequency must
    # sit within 4 sigma of its flow-derived probability. At cutoff 2500 the
    # floored reward is a product over the slots, so every prefix has the same
    # conditionals; cutoff 7000 floors 4 terminals, so a slot's conditionals
    # depend on the earlier tokens, and a policy that misreads a prefix fails
    reward_model = RewardModel(RewardSpec(cutoff=cutoff, surrogate_scale=1000.0), bridge_env)
    flows = exact_flows(bridge_env, reward_model)
    n = 20000
    records = generate(TabularPolicy(flows, bridge_env), bridge_env, reward_model, n=n, seed=1)
    counts = {rec.tokens: rec.sample_count for rec in records}
    assert counts.keys() <= flows.terminal_probs.keys()
    for tokens, p in flows.terminal_probs.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts.get(tokens, 0) - n * p) < 4 * sigma, tokens


def test_generate_first_seen_is_min_over_draws(bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=300, seed=9)
    seen = [r.first_seen_episode for r in records]
    assert seen == sorted(seen)  # records come out in first-appearance order
    assert seen[0] == 1
    assert all(1 <= s <= 300 for s in seen)


def test_generate_rewards_match_reward_model(bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=50, seed=2)
    scores = bridge_reward.score_batch([rec.tokens for rec in records])
    assert [rec.reward for rec in records] == scores.reward.tolist()
    assert [rec.gsa for rec in records] == scores.gsa.tolist()


def test_generate_edge_sizes(bridge_env, bridge_reward, tabular):
    assert generate(tabular, bridge_env, bridge_reward, n=0, seed=0) == []
    one = generate(tabular, bridge_env, bridge_reward, n=1, seed=0)
    assert len(one) == 1 and one[0].sample_count == 1
    with pytest.raises(ValidationError, match="sample count must be >= 0"):
        generate(tabular, bridge_env, bridge_reward, n=-1, seed=0)


def test_generate_deterministic_per_seed(bridge_env, bridge_reward, tabular):
    a = generate(tabular, bridge_env, bridge_reward, n=200, seed=5)
    b = generate(tabular, bridge_env, bridge_reward, n=200, seed=5)
    assert a == b
    c = generate(tabular, bridge_env, bridge_reward, n=200, seed=6)
    assert [r.sample_count for r in a] != [r.sample_count for r in c]


def test_generate_draws_from_the_first_child_of_the_seed(bridge_env, bridge_reward, tabular):
    [stream] = np.random.SeedSequence(4).spawn(1)
    draws, _ = rollout(tabular, bridge_env, np.random.Generator(np.random.PCG64(stream)), 201)
    records = generate(tabular, bridge_env, bridge_reward, n=201, seed=4)
    counts = Counter(map(tuple, draws.tolist()))
    assert {rec.tokens: rec.sample_count for rec in records} == counts
    assert [rec.tokens for rec in records] == list(counts)  # first-appearance order


@pytest.fixture(scope="module")
def grid():
    """The grid environment, its reward model and a FlowModel of the grid config's dims."""
    run = load_run_config(CONFIGS / "train_grid.json")
    return run.env, RewardModel(run.reward_spec, run.env), FlowModel.init(run.model_config, seed=3)


@pytest.mark.parametrize("chunk", [1, 97, 1000])
@pytest.mark.parametrize("policy", ["bridge exact policy", "grid model"])
def test_chunked_draws_match_one_chunk(policy, chunk, bridge_env, bridge_reward, tabular, grid,
                                       monkeypatch):
    # the chunks read the one stream that a single rollout of n reads, and
    # generate folds each into the distinct terminals so far
    env, reward_model, model = (bridge_env, bridge_reward, tabular) if policy.startswith(
        "bridge") else grid
    n = 1500 if chunk > 1 else 300
    records = generate(model, env, reward_model, n, seed=4)
    summary = baseline_comparison(model, env, reward_model, n, seed=4)
    assert n <= dataset_mod._CHUNK
    monkeypatch.setattr(dataset_mod, "_CHUNK", chunk)
    assert generate(model, env, reward_model, n, seed=4) == records
    chunked = baseline_comparison(model, env, reward_model, n, seed=4)
    for field in dataclasses.fields(summary):
        want, got = getattr(summary, field.name), getattr(chunked, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


def test_generate_memory_does_not_grow_with_n(bridge_env, bridge_reward, tabular, monkeypatch):
    # past one chunk, n draws cost no more than the chunk and the distinct
    # terminals: the peaks at n and at 10 n differ by less than one chunk's
    # uniforms and actions
    chunk = 2000
    monkeypatch.setattr(dataset_mod, "_CHUNK", chunk)
    peaks = []
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            records = generate(tabular, bridge_env, bridge_reward, n, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sum(rec.sample_count for rec in records) == n
    assert abs(peaks[1] - peaks[0]) < 2 * chunk * bridge_env.n_slots * 8


def test_top_k_orders_by_reward_then_record():
    def rec(name, reward):
        return CandidateRecord(record=name, tokens=None, gsa=None, reward=reward,
                               sample_count=1, first_seen_episode=1)
    rows = [rec("x:B", 2.0), rec("x:A", 2.0), rec("x:C", 5.0), rec("x:D", 1.0)]
    best = top_k(rows, 3)
    assert [r.record for r in best] == ["x:C", "x:A", "x:B"]
    with pytest.raises(ValidationError, match="k must be >= 1"):
        top_k(rows, 0)
    with pytest.warns(UserWarning, match="returning all"):
        everything = top_k(rows, 10)
    assert len(everything) == 4


def test_save_load_roundtrip(tmp_path, bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=60, seed=8)
    path = tmp_path / "dataset.csv"
    save_dataset(path, records)
    loaded = load_dataset(path, env=bridge_env)
    assert loaded == records


def test_save_none_gsa_roundtrips_as_empty_cell(tmp_path, bridge_env):
    rec = CandidateRecord(record="bfx:N1,N4,E1", tokens=bridge_env.parse_assembly_record(
        "bfx:N1,N4,E1"), gsa=None, reward=0.0, sample_count=3, first_seen_episode=7)
    path = tmp_path / "d.csv"
    save_dataset(path, [rec])
    raw = list(csv.reader(path.open(newline="")))
    assert raw[1][1] == ""
    loaded = load_dataset(path, bridge_env)
    assert loaded[0].gsa is None
    assert loaded[0].reward == 0.0


def test_failed_external_evaluation_writes_an_empty_gsa_cell_and_reward_0(
        tmp_path, bridge_env, tabular, set_evaluation_slots):
    set_evaluation_slots(2)
    body = ("import sys\n"
            "record = sys.stdin.readline()\n"
            "sys.exit(1) if 'N1' in record else print(9000.0)\n")
    rm = RewardModel(RewardSpec(cutoff=100.0, evaluator="external"), bridge_env,
                     adapter=AdapterConfig(command=stub_adapter_command(body)))
    records = generate(tabular, bridge_env, rm, n=300, seed=2)
    assert {"N1" in rec.record for rec in records} == {True, False}
    path = tmp_path / "d.csv"
    save_dataset(path, records)
    for rec, row in zip(records, list(csv.reader(path.open(newline="")))[1:]):
        failed = "N1" in rec.record
        assert (rec.gsa is None, rec.reward == 0.0) == (failed, failed)
        assert (row[1] == "", row[2]) == (failed, "0.0" if failed else repr(rec.reward))


def test_failed_save_leaves_the_old_dataset_whole(tmp_path, monkeypatch, bridge_env,
                                                 bridge_reward, tabular):
    # a write that dies partway must leave the old file byte for byte
    path = tmp_path / "dataset.csv"
    save_dataset(path, generate(tabular, bridge_env, bridge_reward, n=60, seed=8))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_writer = csv.writer

    class DiesOnThirdRow:
        def __init__(self, fh, *args, **kwargs):
            self._writer, self._rows = real_writer(fh, *args, **kwargs), 0

        def writerow(self, row):
            self._rows += 1
            if self._rows == 3:
                raise OSError("no space left on device")
            self._writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(csv, "writer", DiesOnThirdRow)
    with pytest.raises(OSError, match="no space"):
        save_dataset(path, generate(tabular, bridge_env, bridge_reward, n=60, seed=9))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # and no .tmp


def test_load_rejects_bad_header(tmp_path, bridge_env):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError, match="header"):
        load_dataset(path, bridge_env)


def test_load_rejects_bad_row_with_line_number(tmp_path, bridge_env):
    path = tmp_path / "bad.csv"
    path.write_text("assembly_record,gsa_m2_per_g,reward,sample_count,first_seen_episode\n"
                    '"bfx:N1,N4,E1",12.5,1.0,1,1\n'
                    '"bfx:N2,N4,E1",12.5,not-a-float,1,2\n')
    with pytest.raises(ValidationError, match="bad.csv:3"):
        load_dataset(path, bridge_env)


def test_load_rejects_short_row(tmp_path, bridge_env):
    path = tmp_path / "bad.csv"
    path.write_text("assembly_record,gsa_m2_per_g,reward,sample_count,first_seen_episode\n"
                    '"bfx:N1,N4,E1",12.5\n')
    with pytest.raises(ValidationError, match="bad.csv:2"):
        load_dataset(path, bridge_env)


def test_load_validates_records_against_env(tmp_path, bridge_env):
    path = tmp_path / "bad.csv"
    path.write_text("assembly_record,gsa_m2_per_g,reward,sample_count,first_seen_episode\n"
                    '"bfx:N1,N4,ZZ",12.5,1.0,1,1\n')
    with pytest.raises(ValidationError, match="bad.csv:2: unknown token 'ZZ'"):
        load_dataset(path, env=bridge_env)
