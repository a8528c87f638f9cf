"""Behavioral strategies, exact play laws, the strategy metric, and coupling.

A behavioral strategy maps each owned-stage atom to a distribution over
actions.  Probabilities are plain numbers: exact rationals by default (the
whole verification suite runs on ``Fraction``), floats in the fallback mode.
The metric between two strategies of one owner is the sum over owned stages
of the worst-atom l1 distance between the prescribed distributions.

Simplex grids discretize the distribution space with per-stage density
radius eps/2**n; snapping a strategy to the grids moves it by at most that
radius per stage.  The coupled sampler draws two plays under two profiles
from a maximal coupling, so the plays disagree at a stage with probability
exactly half the l1 distance of the two conditional action distributions.
It is the package's only Monte Carlo code: one vectorized numpy walker that
draws one uniform per sample and stage, walking the samples in fixed blocks;
the single-draw sampler is the same walker run for one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import FiniteHistory, MonitoringStructure, TruncatedGame, index_to_actions
from .errors import SizeCapError

Number = Fraction | float | int

FLOAT_SUM_TOL = 1e-12


def owned_stages(owner: int, horizon: int) -> range:
    if owner not in (1, 2):
        raise ValueError("owner must be player 1 or 2")
    return range(0 if owner == 1 else 1, horizon, 2)


def _check_dist(dist: Sequence[Number], k: int) -> tuple[Number, ...]:
    if len(dist) != k:
        raise ValueError(f"distribution has {len(dist)} entries, expected {k}")
    if any(p < 0 for p in dist):
        raise ValueError("distribution has a negative entry")
    total = sum(dist)
    if isinstance(total, Fraction) or isinstance(total, int):
        if total != 1:
            raise ValueError(f"distribution sums to {total}, not 1")
    elif abs(total - 1.0) > FLOAT_SUM_TOL:
        raise ValueError(f"distribution sums to {total!r}, not 1")
    return tuple(dist)


@dataclass(frozen=True)
class BehavioralStrategy:
    """Per-stage maps from atom ids to action distributions for one player."""

    owner: int
    horizon: int
    num_actions: int
    tables: dict[int, tuple[tuple[Number, ...], ...]]

    def __post_init__(self):
        expected = set(owned_stages(self.owner, self.horizon))
        if set(self.tables) != expected:
            raise ValueError(
                f"player {self.owner} strategy must cover stages {sorted(expected)}, "
                f"got {sorted(self.tables)}"
            )
        frozen = {
            n: tuple(_check_dist(dist, self.num_actions) for dist in rows)
            for n, rows in self.tables.items()
        }
        object.__setattr__(self, "tables", frozen)

    def dist(self, stage: int, atom_id: int) -> tuple[Number, ...]:
        return self.tables[stage][atom_id]

    def stages(self) -> range:
        return owned_stages(self.owner, self.horizon)

    def to_doc(self) -> dict:
        """Per-stage atom -> distribution tables, ready for report serialization."""
        return {str(n): [list(dist) for dist in rows]
                for n, rows in sorted(self.tables.items())}

    def validate_for(self, monitoring: MonitoringStructure) -> None:
        if self.horizon != monitoring.horizon or self.num_actions != monitoring.num_actions:
            raise ValueError("strategy shape does not match the monitoring structure")
        for n in self.stages():
            if len(self.tables[n]) != monitoring.partitions[n].num_atoms:
                raise ValueError(f"stage {n}: expected {monitoring.partitions[n].num_atoms} atoms")

    @classmethod
    def from_rows(cls, owner: int, monitoring: MonitoringStructure,
                  rows: Mapping[int, Sequence[Sequence[Number]]]) -> BehavioralStrategy:
        tables = {n: tuple(tuple(d) for d in rows[n]) for n in rows}
        s = cls(owner, monitoring.horizon, monitoring.num_actions, tables)
        s.validate_for(monitoring)
        return s

    @classmethod
    def uniform(cls, owner: int, monitoring: MonitoringStructure) -> BehavioralStrategy:
        k = monitoring.num_actions
        u = tuple(Fraction(1, k) for _ in range(k))
        return cls.from_rows(owner, monitoring, {
            n: [u] * monitoring.partitions[n].num_atoms
            for n in owned_stages(owner, monitoring.horizon)
        })

    @classmethod
    def pure(cls, owner: int, monitoring: MonitoringStructure,
             choice: Callable[[int, int], int]) -> BehavioralStrategy:
        """Point-mass strategy; ``choice(stage, atom_id)`` picks the action."""
        k = monitoring.num_actions

        def point(a: int) -> tuple[Fraction, ...]:
            return tuple(Fraction(1) if j == a else Fraction(0) for j in range(k))

        return cls.from_rows(owner, monitoring, {
            n: [point(choice(n, p)) for p in range(monitoring.partitions[n].num_atoms)]
            for n in owned_stages(owner, monitoring.horizon)
        })

    @classmethod
    def random_rational(cls, owner: int, monitoring: MonitoringStructure,
                        rng: np.random.Generator, denominator: int = 12) -> BehavioralStrategy:
        """Random strategy with exact rational probabilities (integer weights)."""
        k = monitoring.num_actions

        def draw() -> tuple[Fraction, ...]:
            w = [int(v) for v in rng.integers(1, denominator + 1, size=k)]
            total = sum(w)
            return tuple(Fraction(v, total) for v in w)

        return cls.from_rows(owner, monitoring, {
            n: [draw() for _ in range(monitoring.partitions[n].num_atoms)]
            for n in owned_stages(owner, monitoring.horizon)
        })


@dataclass(frozen=True)
class PlayDistribution:
    """Probability of every full-length history under a strategy profile."""

    horizon: int
    num_actions: int
    probs: tuple[Number, ...]

    def prob(self, h: FiniteHistory) -> Number:
        return self.probs[h.index(self.num_actions)]

    def total(self) -> Number:
        return sum(self.probs)


def _profile_strategy(x: BehavioralStrategy, y: BehavioralStrategy, stage: int) -> BehavioralStrategy:
    return x if stage % 2 == 0 else y


def _check_profile(x: BehavioralStrategy, y: BehavioralStrategy, game: TruncatedGame) -> None:
    if x.owner != 1 or y.owner != 2:
        raise ValueError("profile must be (player 1 strategy, player 2 strategy)")
    x.validate_for(game.monitoring)
    y.validate_for(game.monitoring)


def play_distribution(x: BehavioralStrategy, y: BehavioralStrategy,
                      game: TruncatedGame) -> PlayDistribution:
    """Exact law of the play: per-history products of the movers' probabilities."""
    _check_profile(x, y, game)
    k = game.num_actions
    probs: list[Number] = [Fraction(1)]
    for n in range(game.horizon):
        atom_index = game.monitoring.partitions[n].atom_index
        table = _profile_strategy(x, y, n).tables[n]
        nxt: list[Number] = [0] * (k ** (n + 1))
        for idx, p in enumerate(probs):
            if p == 0:
                continue
            dist = table[atom_index[idx]]
            base = idx * k
            for a in range(k):
                nxt[base + a] = p * dist[a]
        probs = nxt
    return PlayDistribution(game.horizon, k, tuple(probs))


def payoff(x: BehavioralStrategy, y: BehavioralStrategy, game: TruncatedGame) -> Number:
    """Probability that the realized play lands in the winning set."""
    law = play_distribution(x, y, game)
    return sum((p for p, w in zip(law.probs, game.winning_mask) if w), Fraction(0))


def _l1(p: Sequence[Number], q: Sequence[Number]) -> Number:
    return sum(abs(a - b) for a, b in zip(p, q))


def strategy_distance(s: BehavioralStrategy, t: BehavioralStrategy) -> Number:
    """Sum over owned stages of the worst-atom l1 gap between prescriptions."""
    if s.owner != t.owner or s.horizon != t.horizon:
        raise ValueError("strategies must share owner and horizon")
    total: Number = Fraction(0)
    for n in s.stages():
        rows_s, rows_t = s.tables[n], t.tables[n]
        if len(rows_s) != len(rows_t):
            raise ValueError(f"stage {n}: atom counts differ")
        total += max(_l1(a, b) for a, b in zip(rows_s, rows_t))
    return total


@dataclass(frozen=True)
class SimplexGrid:
    """All distributions with coordinates in multiples of 1/resolution.

    The grid is eps/2**stage dense in l1: every distribution over the
    alphabet lies within that radius of some grid point.
    """

    stage: int
    epsilon: Fraction
    num_actions: int
    resolution: int
    points: tuple[tuple[Fraction, ...], ...]

    @property
    def radius(self) -> Fraction:
        return self.epsilon / 2**self.stage

    def index(self, dist: Sequence[Number]) -> int | None:
        target = tuple(Fraction(p) for p in dist)
        for i, pt in enumerate(self.points):
            if pt == target:
                return i
        return None


def _compositions(total: int, parts: int):
    """All ways of writing ``total`` as ``parts`` ordered nonnegative integers,
    ascending lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def build_simplex_grid(num_actions: int, epsilon: Number, stage: int,
                       cap: int = 200_000) -> SimplexGrid:
    """Grid of step 1/K with K minimal such that 2(k-1)/K <= eps/2**stage."""
    if num_actions < 2:
        raise ValueError("need at least 2 actions")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    need = Fraction(2 * (num_actions - 1) * 2**stage) / eps
    resolution = max(1, math.ceil(need))
    size = math.comb(resolution + num_actions - 1, num_actions - 1)
    if size > cap:
        raise SizeCapError(
            f"simplex grid would have {size} points (cap {cap}); use a larger epsilon"
        )
    points = tuple(
        tuple(Fraction(c, resolution) for c in comp)
        for comp in _compositions(resolution, num_actions)
    )
    return SimplexGrid(stage, eps, num_actions, resolution, points)


def nearest_grid_point(grid: SimplexGrid, dist: Sequence[Number]) -> tuple[int, tuple[Fraction, ...], Number]:
    """Closest grid point in l1; ties go to the lowest lexicographic index."""
    best_idx = 0
    best_d: Number | None = None
    for i, pt in enumerate(grid.points):
        d = _l1(pt, dist)
        if best_d is None or d < best_d:
            best_idx, best_d = i, d
    return best_idx, grid.points[best_idx], best_d


def snap_strategy(s: BehavioralStrategy, grids: Mapping[int, SimplexGrid]) -> BehavioralStrategy:
    """Replace every prescribed distribution by its nearest grid point."""
    tables = {}
    for n in s.stages():
        if n not in grids:
            raise ValueError(f"no grid supplied for owned stage {n}")
        grid = grids[n]
        tables[n] = tuple(nearest_grid_point(grid, dist)[1] for dist in s.tables[n])
    return BehavioralStrategy(s.owner, s.horizon, s.num_actions, tables)


def grids_for(game: TruncatedGame, epsilon: Number, owner: int | None = None,
              cap: int = 200_000) -> dict[int, SimplexGrid]:
    """Per-stage grids for a game; all stages by default, one owner's if given."""
    stages = range(game.horizon) if owner is None else owned_stages(owner, game.horizon)
    return {n: build_simplex_grid(game.num_actions, epsilon, n, cap=cap) for n in stages}


@dataclass(frozen=True)
class CoupledPlayPair:
    """Two full-length plays sampled from a maximal stage-wise coupling."""

    alpha: FiniteHistory
    alpha_prime: FiniteHistory
    first_divergence: int | None


@dataclass(frozen=True)
class CoupledBatch:
    """Vectorized coupled draws; histories as lexicographic indices."""

    n_samples: int
    horizon: int
    num_actions: int
    alpha_indices: np.ndarray = field(repr=False)
    alpha_prime_indices: np.ndarray = field(repr=False)
    divergence_stages: np.ndarray = field(repr=False)

    def divergence_rate(self) -> float:
        return float((self.divergence_stages >= 0).mean())

    def history(self, i: int) -> FiniteHistory:
        return FiniteHistory(index_to_actions(int(self.alpha_indices[i]), self.horizon,
                                              self.num_actions))

    def pair(self, i: int) -> CoupledPlayPair:
        alpha_prime = index_to_actions(int(self.alpha_prime_indices[i]), self.horizon,
                                       self.num_actions)
        div = int(self.divergence_stages[i])
        return CoupledPlayPair(self.history(i), FiniteHistory(alpha_prime),
                               div if div >= 0 else None)


def _stacked_rows(game: TruncatedGame) -> tuple[np.ndarray, list[int]]:
    """Row of every history's atom in the stage-stacked atom tables.

    Entry ``offsets[n] + h`` is the row of the stage-n atom containing the
    length-n history with index h.
    """
    chunks, offsets, first_row = [], [], 0
    for n, part in enumerate(game.monitoring.partitions):
        offsets.append(sum(game.num_actions**j for j in range(n)))
        chunks.append(first_row + np.asarray(part.atom_index, dtype=np.int64))
        first_row += part.num_atoms
    return np.concatenate(chunks), offsets


def _stacked_dists(game: TruncatedGame, x: BehavioralStrategy, y: BehavioralStrategy) -> np.ndarray:
    """(k, stacked atoms) floats: column r is the profile's distribution at row r.

    numerator / denominator is the correctly rounded float() of a rational.
    """
    rows = [[p if isinstance(p, float) else p.numerator / p.denominator for p in dist]
            for n in range(game.horizon) for dist in _profile_strategy(x, y, n).tables[n]]
    return np.array(rows, dtype=np.float64).T.copy()


# Samples walked together; bounds the walker's temporaries to k x WALK_BLOCK.
WALK_BLOCK = 1 << 16


def _inverse_cdf(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per column, the index of the CDF interval of ``weights`` (k x m) holding ``u``.

    The last interval absorbs rounding past the total weight.
    """
    return (u >= np.cumsum(weights[:-1], axis=0)).sum(axis=0)


def coupled_sample_batch(game: TruncatedGame,
                         x: BehavioralStrategy, y: BehavioralStrategy,
                         x2: BehavioralStrategy, y2: BehavioralStrategy,
                         n_samples: int, seed: int) -> CoupledBatch:
    """Coupled draws of (x,y)-plays and (x',y')-plays from one uniform per stage.

    With p and q the two prescribed distributions and overlap = sum min(p, q),
    a draw u < overlap gives both plays the action at u in the CDF of
    min(p, q); otherwise each play takes the action at u - overlap in its own
    residual CDF (p - min, q - min).  The residuals have disjoint supports, so
    both marginals are exact and the plays split with probability exactly
    1 - overlap.  Samples are walked in blocks of WALK_BLOCK, all drawn from
    one generator seeded with ``seed``.
    """
    _check_profile(x, y, game)
    _check_profile(x2, y2, game)
    row_of, offsets = _stacked_rows(game)
    dists_a = _stacked_dists(game, x, y)
    dists_b = _stacked_dists(game, x2, y2)
    k = game.num_actions
    rng = np.random.default_rng(seed)
    idx = np.zeros(n_samples, dtype=np.int64)
    idx2 = np.zeros(n_samples, dtype=np.int64)
    div = np.full(n_samples, -1, dtype=np.int64)
    for lo in range(0, n_samples, WALK_BLOCK):
        block = slice(lo, min(lo + WALK_BLOCK, n_samples))
        ia, ib, db = idx[block], idx2[block], div[block]
        for n, offset in enumerate(offsets):
            pa = dists_a[:, row_of[offset + ia]]
            pb = dists_b[:, row_of[offset + ib]]
            low = np.minimum(pa, pb)
            overlap = low.sum(axis=0)
            u = rng.random(len(ia))
            same = u < overlap
            w = u - overlap
            a_same = _inverse_cdf(u, low)
            a = np.where(same, a_same, _inverse_cdf(w, pa - low))
            b = np.where(same, a_same, _inverse_cdf(w, pb - low))
            db[(db < 0) & (a != b)] = n
            ia *= k
            ia += a
            ib *= k
            ib += b
    return CoupledBatch(n_samples, game.horizon, k, idx, idx2, div)


def coupled_sample(game: TruncatedGame,
                   x: BehavioralStrategy, y: BehavioralStrategy,
                   x2: BehavioralStrategy, y2: BehavioralStrategy,
                   seed: int) -> CoupledPlayPair:
    """One coupled draw of an (x,y)-play and an (x',y')-play.

    Sample 0 of :func:`coupled_sample_batch` with one sample: the plays
    split at a stage with probability half the l1 distance of the two
    prescribed distributions.  Deterministic given the seed.
    """
    return coupled_sample_batch(game, x, y, x2, y2, 1, seed).pair(0)
