"""Multicast ACK aggregation over the collision-code channel.

A basestation broadcasts to its stations each round. Every station that
detects the broadcast (an independent Bernoulli event per station per
round) replies simultaneously with its codeword; the basestation decodes
the superimposed ACK to learn exactly which stations received, and
re-addresses only the unconfirmed ones next round. Every round takes the
one noisy-channel path; the ideal channel is its noise_sigma=0 case,
whose samples are the exact integer sums, and there the decoded set
always equals the set that actually ACKed. With noise a round can decode
to nothing (no-match), which confirms nobody.

Sessions are fully deterministic given the config seed: round seeds are
drawn from a master PCG64 stream, and each round draws its per-station
losses, then its noise seed, from its own generator.

A basestation runs one session after another for the same stations, and
the codebook is a function of the station count alone. So sessions
share the codebook of the last station count they ran, with its packed
rows derived, and build another only when the count changes: at most
one is held, 37 MB at the 25-station cap. No session result holds it,
and its arrays are read-only, so sharing it changes no output.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import channel, decoder
from .codebook import Codebook, SizeLimitError, _integer, _real, build_codebook

# rounds of one session: bounds the per_round record and, since a round
# superposes V chips, keeps a session's chips within the verifier's claims
# budget (1000 trials of V chips at the 25-station cap) at every n
_MAX_ROUNDS = 1000


@dataclass(frozen=True)
class SessionConfig:
    n_stations: int
    loss_prob: float
    max_rounds: int
    seed: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        for name, kind in (("n_stations", _integer), ("loss_prob", _real),
                           ("max_rounds", _integer), ("seed", _integer),
                           ("noise_sigma", _real)):
            # held as an int or a float, so a numpy number prints as JSON
            object.__setattr__(self, name, kind(name, getattr(self, name)))
        if self.n_stations < 1:
            raise ValueError("n_stations must be >= 1")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must lie in [0, 1]")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.max_rounds > _MAX_ROUNDS:
            raise SizeLimitError(f"max_rounds={self.max_rounds} exceeds the "
                                 f"round budget of {_MAX_ROUNDS}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class RoundResult:
    round_index: int
    intended: frozenset[int]
    actually_received: frozenset[int]
    decoded_ack: decoder.DecodeOutcome
    newly_confirmed: frozenset[int]


@dataclass
class SessionStats:
    config: SessionConfig
    rounds_used: int
    completed: bool
    undecodable_rounds: int
    per_round: list[RoundResult]

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "n": cfg.n_stations,
            "loss_prob": cfg.loss_prob,
            "noise_sigma": cfg.noise_sigma,
            "seed": cfg.seed,
            "rounds_used": self.rounds_used,
            "completed": self.completed,
            "undecodable_rounds": self.undecodable_rounds,
            "per_round": [
                {
                    "round": r.round_index,
                    "received": sorted(r.actually_received),
                    "decoded": r.decoded_ack.kind,
                    "confirmed": sorted(r.newly_confirmed),
                }
                for r in self.per_round
            ],
        }


def run_round(cb: Codebook, intended, cfg: SessionConfig, round_seed: int,
              round_index: int = 1) -> RoundResult:
    """One broadcast round: losses, ACK superposition, collision decode.

    Each intended station receives the broadcast independently with
    probability 1 - loss_prob (stations are drawn in ascending id order,
    so the round is reproducible from round_seed alone). newly_confirmed
    is the decoded set restricted to the intended one; on the ideal
    channel that is exactly the set that ACKed. Every intended id must
    lie in 1..n_stations of the codebook, whatever the losses would keep.
    """
    order = channel._station_ids(cb, intended)
    if not order:
        raise ValueError("intended must be non-empty")
    targets = frozenset(order)
    rng = np.random.default_rng(round_seed)
    draws = rng.random(len(order))
    received = frozenset(s for s, u in zip(order, draws) if u >= cfg.loss_prob)
    noise_seed = int(rng.integers(0, 2 ** 63))
    bits = channel.threshold_noisy(channel.superpose_noisy(
        cb, received, cfg.noise_sigma, noise_seed))
    outcome = decoder.decode_exact(cb, bits)
    if outcome.kind == decoder.IDENTIFIED:
        newly = outcome.stations & targets
    else:
        newly = frozenset()
    return RoundResult(round_index, targets, received, outcome, newly)


@functools.lru_cache(maxsize=1)
def _session_codebook(n_stations: int) -> Codebook:
    """The codebook that sessions at n_stations share, packed rows derived."""
    cb = build_codebook(n_stations)
    cb.packed  # derived once here, not in each session's first decode
    return cb


def run_session(cfg: SessionConfig) -> SessionStats:
    """Retransmit to the unconfirmed set until everyone ACKed or rounds run out."""
    cb = _session_codebook(cfg.n_stations)
    master = np.random.default_rng(cfg.seed)
    pending = set(range(1, cfg.n_stations + 1))
    rounds: list[RoundResult] = []
    while pending and len(rounds) < cfg.max_rounds:
        round_seed = int(master.integers(0, 2 ** 63))
        result = run_round(cb, pending, cfg, round_seed, len(rounds) + 1)
        pending -= result.newly_confirmed
        rounds.append(result)
    undecodable = sum(1 for r in rounds if r.decoded_ack.kind == decoder.NOMATCH)
    return SessionStats(cfg, len(rounds), not pending, undecodable, rounds)
