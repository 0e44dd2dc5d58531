"""Multicast ACK session simulation."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collisioncode as cc
from collisioncode import protocol
from conftest import cached_codebook, load_golden


def config(n=3, loss=0.0, rounds=5, seed=1, sigma=0.0):
    return protocol.SessionConfig(n_stations=n, loss_prob=loss,
                                  max_rounds=rounds, seed=seed,
                                  noise_sigma=sigma)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"loss": -0.1}, {"loss": 1.1}, {"rounds": 0},
        {"seed": -1}, {"sigma": -0.5}, {"sigma": float("nan")},
        {"sigma": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            config(**kwargs)

    @pytest.mark.parametrize("field,kwarg", [
        ("n_stations", "n"), ("max_rounds", "rounds"), ("seed", "seed")])
    @pytest.mark.parametrize("bad", [2.0, 2.5, True, np.bool_(True), "3"])
    def test_refuses_counts_that_are_not_integers(self, field, kwarg, bad):
        """Refused at construction: not carried into the build, the seed
        sequence or the JSON, and not rounded (2.5 rounds would run 3)."""
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, "
                                             rf"got {re.escape(repr(bad))}$"):
            config(**{kwarg: bad})

    @pytest.mark.parametrize("kind", [np.int16, np.int64, np.uint32])
    def test_accepts_numpy_integers(self, kind):
        """They are held as ints, so the session runs and prints as the
        plain config's does."""
        cfg = config(n=kind(5), loss=0.3, rounds=kind(6), seed=kind(4))
        plain = config(n=5, loss=0.3, rounds=6, seed=4)
        assert cfg == plain
        assert all(type(v) is int
                   for v in (cfg.n_stations, cfg.max_rounds, cfg.seed))
        assert (json.dumps(protocol.run_session(cfg).to_json_dict())
                == json.dumps(protocol.run_session(plain).to_json_dict()))

    def test_round_budget(self):
        stats = protocol.run_session(config(n=3, loss=1.0, rounds=1000))
        assert stats.rounds_used == 1000 and not stats.completed
        with pytest.raises(cc.SizeLimitError, match=r"^max_rounds=1001 "
                           r"exceeds the round budget of 1000$"):
            config(n=25, rounds=1001)


class TestRunRound:
    def test_lossless_round_identifies_everyone(self):
        cb = cached_codebook(3)
        result = protocol.run_round(cb, {1, 2, 3}, config(loss=0.0), 99)
        assert result.actually_received == frozenset({1, 2, 3})
        assert result.decoded_ack.kind == cc.IDENTIFIED
        assert result.decoded_ack.stations == frozenset({1, 2, 3})
        assert result.newly_confirmed == frozenset({1, 2, 3})

    def test_total_loss_is_silence(self):
        cb = cached_codebook(3)
        result = protocol.run_round(cb, {1, 2, 3}, config(loss=1.0), 99)
        assert result.actually_received == frozenset()
        assert result.decoded_ack.kind == cc.SILENCE
        assert result.newly_confirmed == frozenset()

    def test_golden_seeded_round(self):
        golden = load_golden("round_n3_loss05_seed42.json")
        cb = cached_codebook(golden["n"])
        result = protocol.run_round(
            cb, {1, 2, 3}, config(n=golden["n"], loss=golden["loss_prob"]),
            golden["round_seed"])
        assert sorted(result.actually_received) == golden["received"]
        assert result.decoded_ack.kind == golden["decoded"]
        assert sorted(result.newly_confirmed) == golden["confirmed"]

    def test_same_seed_same_round(self):
        cb = cached_codebook(5)
        a = protocol.run_round(cb, {1, 2, 3, 4, 5}, config(n=5, loss=0.5), 7)
        b = protocol.run_round(cb, {1, 2, 3, 4, 5}, config(n=5, loss=0.5), 7)
        assert a == b

    def test_rejects_empty_intended(self):
        with pytest.raises(ValueError):
            protocol.run_round(cached_codebook(3), set(), config(), 1)

    @pytest.mark.parametrize("loss", [0.0, 1.0])
    @pytest.mark.parametrize("intended,listed", [
        ({99}, "[99]"), ({0, -4}, "[-4, 0]"), ({2, 6}, "[2, 6]")])
    def test_rejects_ids_outside_the_code_at_any_loss(self, loss, intended,
                                                      listed):
        """The ids are checked before the losses are drawn, so a round
        that would lose every station refuses them as one that keeps
        them does, with superpose's message."""
        cb = cached_codebook(5)
        message = f"^{re.escape(f'station ids must lie in 1..5, got {listed}')}$"
        with pytest.raises(ValueError, match=message):
            protocol.run_round(cb, intended, config(n=5, loss=loss, rounds=4), 3)
        with pytest.raises(ValueError, match=message):
            cc.superpose(cb, intended)


class TestRunSession:
    def test_lossless_completes_in_one_round(self):
        stats = protocol.run_session(config(n=5, loss=0.0, rounds=10))
        assert stats.completed and stats.rounds_used == 1
        assert stats.per_round[0].newly_confirmed == frozenset(range(1, 6))

    def test_total_loss_exhausts_rounds_in_silence(self):
        stats = protocol.run_session(config(n=3, loss=1.0, rounds=5))
        assert not stats.completed
        assert stats.rounds_used == 5
        assert all(r.decoded_ack.kind == cc.SILENCE for r in stats.per_round)
        assert stats.undecodable_rounds == 0

    def test_golden_session(self):
        golden = load_golden("session_n7_loss03_seed7.json")
        stats = protocol.run_session(config(
            n=golden["n"], loss=golden["loss_prob"], rounds=20,
            seed=golden["seed"], sigma=golden["noise_sigma"]))
        assert stats.to_json_dict() == golden

    def test_json_is_byte_identical_across_runs(self):
        cfg = config(n=7, loss=0.3, rounds=20, seed=7)
        a = json.dumps(protocol.run_session(cfg).to_json_dict())
        b = json.dumps(protocol.run_session(cfg).to_json_dict())
        assert a == b

    def test_confirmed_sets_partition_stations(self):
        stats = protocol.run_session(config(n=7, loss=0.5, rounds=50, seed=3))
        confirmed = [r.newly_confirmed for r in stats.per_round]
        union = frozenset().union(*confirmed)
        assert sum(len(s) for s in confirmed) == len(union)
        assert stats.completed
        assert union == frozenset(range(1, 8))

    def test_intended_never_grows(self):
        stats = protocol.run_session(config(n=6, loss=0.6, rounds=30, seed=9))
        for prev, cur in zip(stats.per_round, stats.per_round[1:]):
            assert cur.intended == prev.intended - prev.newly_confirmed

    @given(loss=st.floats(0.0, 1.0, allow_nan=False),
           n=st.integers(1, 7), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_ideal_channel_confirms_exactly_the_receivers(self, loss, n, seed):
        stats = protocol.run_session(config(n=n, loss=loss, rounds=8, seed=seed))
        for r in stats.per_round:
            assert r.newly_confirmed == r.actually_received
            assert r.decoded_ack.kind in (cc.IDENTIFIED, cc.SILENCE)

    def test_noisy_session_is_deterministic(self):
        cfg = config(n=5, loss=0.2, rounds=15, seed=11, sigma=0.4)
        a = json.dumps(protocol.run_session(cfg).to_json_dict())
        b = json.dumps(protocol.run_session(cfg).to_json_dict())
        assert a == b

    def test_json_schema(self):
        d = protocol.run_session(config(n=3, loss=0.5, seed=2)).to_json_dict()
        assert set(d) == {"n", "loss_prob", "noise_sigma", "seed",
                          "rounds_used", "completed", "undecodable_rounds",
                          "per_round"}
        assert set(d["per_round"][0]) == {"round", "received", "decoded",
                                          "confirmed"}


class TestSessionCodebook:
    """Sessions share the codebook of the last station count they ran."""

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    @pytest.mark.parametrize("n", [1, 2, 7, 15])
    def test_cold_and_warm_sessions_are_byte_identical(self, n, sigma):
        cfg = config(n=n, loss=0.3, rounds=12, seed=5, sigma=sigma)
        protocol._session_codebook.cache_clear()
        cold = json.dumps(protocol.run_session(cfg).to_json_dict())
        misses = protocol._session_codebook.cache_info().misses
        warm = json.dumps(protocol.run_session(cfg).to_json_dict())
        info = protocol._session_codebook.cache_info()
        assert info.misses == misses and info.hits >= 1
        assert warm == cold

    def test_interleaved_sizes_get_their_own_codebook(self):
        protocol._session_codebook.cache_clear()
        cold = {n: json.dumps(protocol.run_session(
                    config(n=n, loss=0.3, rounds=10, seed=n)).to_json_dict())
                for n in (7, 15)}
        for n in (7, 15, 7, 7, 15):
            stats = protocol.run_session(config(n=n, loss=0.3, rounds=10, seed=n))
            assert json.dumps(stats.to_json_dict()) == cold[n]
            assert protocol._session_codebook(n) == cached_codebook(n)
        # one entry at most: the change of size 7 -> 15 -> 7 rebuilds
        assert protocol._session_codebook.cache_info().currsize == 1

    def test_over_the_cap_is_refused_before_any_round(self, monkeypatch):
        protocol.run_session(config(n=7, loss=0.3, rounds=4))
        before = protocol._session_codebook.cache_info()

        def no_round(*args, **kwargs):
            raise AssertionError("a round ran")

        monkeypatch.setattr(protocol, "run_round", no_round)
        for _ in range(2):
            with pytest.raises(cc.SizeLimitError, match=r"^n_stations=26 "):
                protocol.run_session(config(n=26, loss=0.3, rounds=4))
        after = protocol._session_codebook.cache_info()
        # each refusal is a fresh miss: the failed build was not stored,
        # and the 7-station codebook is still the one held
        assert after.misses == before.misses + 2
        assert after.currsize == 1
        protocol._session_codebook(7)
        assert protocol._session_codebook.cache_info().hits == after.hits + 1
