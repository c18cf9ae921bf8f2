import json
import math

import pytest

from blockflow import (CandidateRecord, TabularPolicy, exact_flows, generate,
                       load_dataset, save_dataset, top_k)
from blockflow.errors import ConfigurationError, ValidationError


@pytest.fixture(scope="module")
def tabular(bridge_env, bridge_reward):
    return TabularPolicy(exact_flows(bridge_env, bridge_reward), bridge_env)


def test_generate_counts_sum_to_n(bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=400, seed=3)
    assert sum(r.sample_count for r in records) == 400
    assert len(records) <= 12
    assert len({r.record for r in records}) == len(records)


def test_generate_frequencies_match_exact_probs(bridge_env, bridge_reward, tabular):
    # drawing from the exact policy, empirical frequencies must sit within
    # 4 sigma of the flow-derived terminal probabilities
    n = 20000
    records = generate(tabular, bridge_env, bridge_reward, n=n, seed=1)
    probs = exact_flows(bridge_env, bridge_reward).terminal_probs
    for rec in records:
        p = probs[rec.tokens]
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(rec.sample_count - n * p) < 4 * sigma, rec.record


def test_generate_first_seen_is_min_over_draws(bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=300, seed=9)
    seen = [r.first_seen_episode for r in records]
    assert seen == sorted(seen)  # records come out in first-appearance order
    assert seen[0] == 1
    assert all(1 <= s <= 300 for s in seen)


def test_generate_rewards_match_reward_model(bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=50, seed=2)
    scores = bridge_reward.score_batch([rec.tokens for rec in records])
    for rec, (r, res) in zip(records, scores):
        assert rec.reward == r
        assert rec.gsa == res.value


def test_generate_edge_sizes(bridge_env, bridge_reward, tabular):
    assert generate(tabular, bridge_env, bridge_reward, n=0, seed=0) == []
    one = generate(tabular, bridge_env, bridge_reward, n=1, seed=0)
    assert len(one) == 1 and one[0].sample_count == 1
    with pytest.raises(ConfigurationError):
        generate(tabular, bridge_env, bridge_reward, n=-1, seed=0)
    with pytest.raises(ConfigurationError):
        generate(tabular, bridge_env, bridge_reward, n=5, seed=0, workers=0)


def test_generate_deterministic_per_seed(bridge_env, bridge_reward, tabular):
    a = generate(tabular, bridge_env, bridge_reward, n=200, seed=5)
    b = generate(tabular, bridge_env, bridge_reward, n=200, seed=5)
    assert a == b
    c = generate(tabular, bridge_env, bridge_reward, n=200, seed=6)
    assert [r.sample_count for r in a] != [r.sample_count for r in c]


def test_generate_workers_preserve_determinism(bridge_env, bridge_reward, tabular):
    # worker count changes the stream split, but a fixed (seed, n, workers)
    # triple is reproducible and total mass is conserved
    a = generate(tabular, bridge_env, bridge_reward, n=201, seed=4, workers=3)
    b = generate(tabular, bridge_env, bridge_reward, n=201, seed=4, workers=3)
    assert a == b
    assert sum(r.sample_count for r in a) == 201
    assert all(1 <= r.first_seen_episode <= 201 for r in a)


def test_generate_more_workers_than_draws(bridge_env, bridge_reward, tabular):
    records = generate(tabular, bridge_env, bridge_reward, n=2, seed=0, workers=16)
    assert sum(r.sample_count for r in records) == 2


def test_top_k_orders_by_reward_then_record():
    def rec(name, reward):
        return CandidateRecord(record=name, tokens=None, gsa=None, reward=reward,
                               sample_count=1, first_seen_episode=1)
    rows = [rec("x:B", 2.0), rec("x:A", 2.0), rec("x:C", 5.0), rec("x:D", 1.0)]
    best = top_k(rows, 3)
    assert [r.record for r in best] == ["x:C", "x:A", "x:B"]
    with pytest.raises(ConfigurationError):
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


def test_save_none_gsa_roundtrips_as_empty_cell(tmp_path):
    rec = CandidateRecord(record="x:N1", tokens=None, gsa=None, reward=0.0,
                          sample_count=3, first_seen_episode=7)
    path = tmp_path / "d.csv"
    save_dataset(path, [rec])
    raw = path.read_text().splitlines()
    assert raw[1].split(",")[1] == ""
    loaded = load_dataset(path)
    assert loaded[0].gsa is None
    assert loaded[0].reward == 0.0


def test_save_writes_manifest_sidecar(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(path, [], manifest={"seed": 1, "n": 0})
    sidecar = tmp_path / "d.csv.manifest.json"
    assert json.loads(sidecar.read_text()) == {"seed": 1, "n": 0}
    save_dataset(tmp_path / "bare.csv", [])
    assert not (tmp_path / "bare.csv.manifest.json").exists()


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError, match="header"):
        load_dataset(path)


def test_load_rejects_bad_row_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("assembly_record,gsa_m2_per_g,reward,sample_count,first_seen_episode\n"
                    "x:N1,12.5,1.0,1,1\n"
                    "x:N2,12.5,not-a-float,1,2\n")
    with pytest.raises(ValidationError, match="bad.csv:3"):
        load_dataset(path)


def test_load_rejects_short_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("assembly_record,gsa_m2_per_g,reward,sample_count,first_seen_episode\n"
                    "x:N1,12.5\n")
    with pytest.raises(ValidationError, match="bad.csv:2"):
        load_dataset(path)


def test_load_validates_records_against_env(tmp_path, bridge_env):
    path = tmp_path / "bad.csv"
    path.write_text("assembly_record,gsa_m2_per_g,reward,sample_count,first_seen_episode\n"
                    "bfx:N1,N4,ZZ,12.5,1.0,1,1\n")
    with pytest.raises(ValidationError):
        load_dataset(path, env=bridge_env)
