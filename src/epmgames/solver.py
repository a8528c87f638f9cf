"""Exact value computation for truncated games.

Four routes to the value, used to certify each other:

* ``normal_form`` + ``brute_force_value``: enumerate pure strategies (one
  action per atom), solve the 0/1 payoff matrix game exactly by LP over
  mixed strategies, and convert the optimal mixtures back to behavioral
  strategies via realization equivalence.
* ``sequence_form_value``: one realization-plan LP over the players'
  information-set forests; player 2's plan is its primal solution and
  player 1's its exact duals.  Scales past the normal form and yields
  behavioral strategies directly.  Sound only under perfect recall, which
  is checked.
* ``best_response``: exact dynamic program over the responder's forest with
  the opponent's strategy folded into terminal weights; certifies reported
  values through zero best-response gaps.
* ``fictitious_play``: float-precision iterative approximation, kept as an
  independent sanity route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import (
    FiniteHistory,
    MonitoringStructure,
    TruncatedGame,
    check_perfect_recall,
    digit_column,
)
from .errors import SizeCapError
from .lp import solve_matrix_game, solve_standard_lp
from .strategy import BehavioralStrategy, Number, owned_stages

DEFAULT_MATRIX_CAP = 10**6


@dataclass(frozen=True)
class InfosetForest:
    """One player's information sets chained by own-past (atom, action) pairs.

    Sequence ids: 0 is the empty sequence; (infoset, action) pairs follow
    densely.  Construction fails loudly when the partitions break perfect
    recall (a stage-n atom with ambiguous parent atom or own past action).
    """

    owner: int
    num_actions: int
    stages: tuple[int, ...]
    infoset_offset: dict[int, int]
    num_infosets: int
    parent_seq: tuple[int, ...]

    @property
    def num_seqs(self) -> int:
        return 1 + self.num_infosets * self.num_actions

    def infoset_id(self, stage: int, atom: int) -> int:
        return self.infoset_offset[stage] + atom

    def stage_of(self, iid: int) -> int:
        for n in reversed(self.stages):
            if iid >= self.infoset_offset[n]:
                return n
        raise ValueError(f"bad infoset id {iid}")

    def seq_id(self, iid: int, action: int) -> int:
        return 1 + iid * self.num_actions + action

    def seq_parts(self, seq: int) -> tuple[int, int] | None:
        if seq == 0:
            return None
        return divmod(seq - 1, self.num_actions)


def build_forest(monitoring: MonitoringStructure, owner: int) -> InfosetForest:
    k = monitoring.num_actions
    stages = tuple(owned_stages(owner, monitoring.horizon))
    offset = {}
    total = 0
    for n in stages:
        offset[n] = total
        total += monitoring.partitions[n].num_atoms
    parent_seq = np.zeros(total, dtype=np.int64)
    for n in stages:
        if n < 2:
            continue
        part = monitoring.partitions[n]
        # Under perfect recall the own (parent atom, stage n-2 action) sequence
        # is constant on each stage-n atom.
        parents = monitoring.partitions[n - 2].atom_index[np.arange(k**n) // (k * k)]
        seq = 1 + (offset[n - 2] + parents) * k + digit_column(n, k, n - 2)
        if part.split_witness(seq) is not None:
            raise ValueError(f"player {owner} partitions violate perfect recall at stage {n}")
        parent_seq[offset[n]:offset[n] + part.num_atoms] = seq[part.first_members]
    return InfosetForest(owner, k, stages, offset, total, tuple(parent_seq.tolist()))


def _terminal_seq_array(game: TruncatedGame, forest: InfosetForest) -> np.ndarray:
    """Sequence id of the player's last (atom, action) along each terminal history."""
    k = game.num_actions
    count = k**game.horizon
    if not forest.stages:
        return np.zeros(count, dtype=np.int64)
    n = forest.stages[-1]
    prefix = np.arange(count) // k ** (game.horizon - n)
    atoms = game.monitoring.partitions[n].atom_index[prefix]
    actions = (np.arange(count) // k ** (game.horizon - n - 1)) % k
    return 1 + (forest.infoset_offset[n] + atoms) * k + actions


@dataclass(frozen=True)
class NormalForm:
    """Pure-strategy enumeration and the induced 0/1 payoff matrix.

    Pure strategies are tuples of actions indexed lexicographically by
    (stage, atom id, action id); strategy index 0 always plays action 0.
    """

    game: TruncatedGame
    row_slots: tuple[tuple[int, int], ...]  # (stage, atom) per choice slot
    col_slots: tuple[tuple[int, int], ...]
    payoff_matrix: np.ndarray = field(repr=False)

    @property
    def num_rows(self) -> int:
        return self.payoff_matrix.shape[0]

    @property
    def num_cols(self) -> int:
        return self.payoff_matrix.shape[1]

    def decode(self, player: int, index: int) -> dict[tuple[int, int], int]:
        slots = self.row_slots if player == 1 else self.col_slots
        k = self.game.num_actions
        choices = {}
        for slot in reversed(slots):
            index, a = divmod(index, k)
            choices[slot] = a
        return choices

    def induced_play(self, row: int, col: int) -> FiniteHistory:
        c1 = self.decode(1, row)
        c2 = self.decode(2, col)
        k = self.game.num_actions
        monitoring = self.game.monitoring
        h: list[int] = []
        idx = 0
        for n in range(self.game.horizon):
            atom = int(monitoring.partitions[n].atom_index[idx])
            a = c1[(n, atom)] if n % 2 == 0 else c2[(n, atom)]
            h.append(a)
            idx = idx * k + a
        return FiniteHistory(tuple(h))


def _choice_slots(monitoring: MonitoringStructure, owner: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (n, p)
        for n in owned_stages(owner, monitoring.horizon)
        for p in range(monitoring.partitions[n].num_atoms)
    )


def normal_form(game: TruncatedGame, cap: int = DEFAULT_MATRIX_CAP) -> NormalForm:
    """Enumerate pure strategies and fill the winning-indicator matrix."""
    k = game.num_actions
    monitoring = game.monitoring
    row_slots = _choice_slots(monitoring, 1)
    col_slots = _choice_slots(monitoring, 2)
    num_rows = k ** len(row_slots)
    num_cols = k ** len(col_slots)
    if num_rows * num_cols > cap:
        raise SizeCapError(
            f"normal form needs {num_rows} x {num_cols} entries (cap {cap}); "
            "use sequence_form_value instead"
        )
    # Per-slot decoded choices for every pure strategy, columns-as-arrays.
    def decode_all(count: int, slots) -> dict[tuple[int, int], np.ndarray]:
        out = {}
        idx = np.arange(count)
        for pos, slot in enumerate(slots):
            out[slot] = (idx // k ** (len(slots) - 1 - pos)) % k
        return out

    rows_dec = decode_all(num_rows, row_slots)
    cols_dec = decode_all(num_cols, col_slots)
    sigma = np.arange(num_rows).repeat(num_cols)
    theta = np.tile(np.arange(num_cols), num_rows)
    play = np.zeros(num_rows * num_cols, dtype=np.int64)
    for n in range(game.horizon):
        atoms = monitoring.partitions[n].atom_index[play]
        a = np.zeros(len(play), dtype=np.int64)
        dec = rows_dec if n % 2 == 0 else cols_dec
        who = sigma if n % 2 == 0 else theta
        for p in range(monitoring.partitions[n].num_atoms):
            here = atoms == p
            if here.any():
                a[here] = dec[(n, p)][who[here]]
        play = play * k + a
    R = game.winning_mask[play].astype(np.int8).reshape(num_rows, num_cols)
    return NormalForm(game, row_slots, col_slots, R)


@dataclass(frozen=True)
class ValueReport:
    """Solved value with the optimal profile and its best-response certificate."""

    value: Number
    x: BehavioralStrategy
    y: BehavioralStrategy
    method: str
    gap1: Number  # best response of player 1 against y, minus value
    gap2: Number  # value minus best response of player 2 against x
    extras: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.gap1 == 0 and self.gap2 == 0


def _with_certificate(game: TruncatedGame, value: Number, x: BehavioralStrategy,
                      y: BehavioralStrategy, method: str, **extras) -> ValueReport:
    br1, _ = best_response(game, y)
    br2, _ = best_response(game, x)
    return ValueReport(value, x, y, method, br1 - value, value - br2, dict(extras))


def mixed_to_behavioral(weights: Mapping[int, Number], nf: NormalForm,
                        owner: int) -> BehavioralStrategy:
    """Realization-equivalent behavioral strategy of a mixture over pure strategies.

    At each information set, condition the mixture on the pure strategies
    whose own-past choices allow the set to be reached; information sets the
    mixture never enters get a uniform prescription.
    """
    game = nf.game
    monitoring = game.monitoring
    k = game.num_actions
    forest = build_forest(monitoring, owner)
    decoded = {i: nf.decode(owner, i) for i, w in weights.items() if w != 0}
    tables = {}
    for n in owned_stages(owner, game.horizon):
        rows = []
        for p in range(monitoring.partitions[n].num_atoms):
            # Own (stage, atom, action) requirements along the ancestor chain.
            chain = []
            seq = forest.parent_seq[forest.infoset_id(n, p)]
            while seq != 0:
                iid, action = forest.seq_parts(seq)
                stage = forest.stage_of(iid)
                chain.append(((stage, iid - forest.infoset_offset[stage]), action))
                seq = forest.parent_seq[iid]
            numer = [Fraction(0)] * k
            denom = Fraction(0)
            for i, choices in decoded.items():
                if all(choices[slot] == a for slot, a in chain):
                    denom += weights[i]
                    numer[choices[(n, p)]] += weights[i]
            if denom == 0:
                rows.append(tuple(Fraction(1, k) for _ in range(k)))
            else:
                rows.append(tuple(v / denom for v in numer))
        tables[n] = tuple(rows)
    return BehavioralStrategy.from_rows(owner, monitoring, tables)


def brute_force_value(game: TruncatedGame, cap: int = DEFAULT_MATRIX_CAP) -> ValueReport:
    """Exact minimax of the mixed extension of the normal form."""
    nf = normal_form(game, cap)
    R = nf.payoff_matrix
    # Duplicate pure strategies are interchangeable in a mixture; solve the
    # deduplicated game and put all weight on representatives.
    urows, row_rep = np.unique(R, axis=0, return_index=True)
    ucols, col_rep = np.unique(urows, axis=1, return_index=True)
    sol = solve_matrix_game([[int(v) for v in row] for row in ucols])
    x_weights = {int(row_rep[i]): w for i, w in enumerate(sol.row_mixture) if w != 0}
    y_weights = {int(col_rep[j]): w for j, w in enumerate(sol.col_mixture) if w != 0}
    x = mixed_to_behavioral(x_weights, nf, 1)
    y = mixed_to_behavioral(y_weights, nf, 2)
    return _with_certificate(game, sol.value, x, y, "normal-form-lp",
                             matrix_shape=(nf.num_rows, nf.num_cols))


def best_response(game: TruncatedGame,
                  fixed: BehavioralStrategy) -> tuple[Number, BehavioralStrategy]:
    """Exact optimum of the free player against a fixed opponent strategy.

    Dynamic program over the responder's information-set forest with the
    fixed strategy's probabilities folded into per-history weights.  The
    responder maximizes when player 1, minimizes when player 2; ties break
    to the lowest action id.
    """
    fixed.validate_for(game.monitoring)
    responder = 3 - fixed.owner
    monitoring = game.monitoring
    k = game.num_actions
    forest = build_forest(monitoring, responder)

    weights: list[Number] = [Fraction(1)]
    for n in range(game.horizon):
        nxt = [Fraction(0)] * (k ** (n + 1))
        if n in fixed.tables:
            atom_index = monitoring.partitions[n].atom_index
            table = fixed.tables[n]
            for idx, w in enumerate(weights):
                if w == 0:
                    continue
                dist = table[atom_index[idx]]
                for a in range(k):
                    nxt[idx * k + a] = w * dist[a]
        else:
            for idx, w in enumerate(weights):
                if w == 0:
                    continue
                for a in range(k):
                    nxt[idx * k + a] = w
        weights = nxt

    contrib = [Fraction(0)] * forest.num_seqs
    seq_of = _terminal_seq_array(game, forest)
    for idx in np.flatnonzero(game.winning_mask):
        w = weights[int(idx)]
        if w != 0:
            contrib[int(seq_of[idx])] += w

    children: dict[int, list[int]] = {}
    for iid in range(forest.num_infosets):
        children.setdefault(forest.parent_seq[iid], []).append(iid)

    better = (lambda a, b: a > b) if responder == 1 else (lambda a, b: a < b)
    value_of = [Fraction(0)] * forest.num_infosets
    best_act = [0] * forest.num_infosets
    # Infoset ids grow with stage, so descending order visits children first.
    for iid in range(forest.num_infosets - 1, -1, -1):
        best_v = None
        for a in range(k):
            seq = forest.seq_id(iid, a)
            v = contrib[seq] + sum(value_of[j] for j in children.get(seq, ()))
            if best_v is None or better(v, best_v):
                best_v = v
                best_act[iid] = a
        value_of[iid] = best_v
    total = contrib[0] + sum(value_of[j] for j in children.get(0, ()))

    response = BehavioralStrategy.pure(
        responder, monitoring,
        lambda n, p: best_act[forest.infoset_id(n, p)],
    )
    return total, response


def realization_to_behavioral(plan: Sequence[Number], forest: InfosetForest,
                              monitoring: MonitoringStructure) -> BehavioralStrategy:
    """Behavioral strategy from a realization plan (uniform off the support).

    Each information set's row is normalized by the sum of its own action
    entries.  For a plan that sum equals the parent entry; a sub-plan (each
    sum at most the parent entry, as the duals of the sequence-form LP give)
    becomes a plan that dominates it entry by entry, so against nonnegative
    payoffs it does at least as well.
    """
    k = monitoring.num_actions
    tables = {}
    for n in forest.stages:
        rows = []
        for p in range(monitoring.partitions[n].num_atoms):
            iid = forest.infoset_id(n, p)
            weights = [Fraction(plan[forest.seq_id(iid, a)]) for a in range(k)]
            denom = sum(weights)
            if denom == 0:
                rows.append(tuple(Fraction(1, k) for _ in range(k)))
            else:
                rows.append(tuple(w / denom for w in weights))
        tables[n] = tuple(rows)
    return BehavioralStrategy.from_rows(forest.owner, monitoring, tables)


@dataclass(frozen=True)
class SequenceFormProgram:
    """Realization-plan LP of a truncated game.

    ``payoff_counts[(s1, s2)]`` counts winning terminal histories whose last
    player sequences are (s1, s2); the bilinear payoff is
    sum counts * r1[s1] * r2[s2].
    """

    game: TruncatedGame
    forest1: InfosetForest
    forest2: InfosetForest
    payoff_counts: dict[tuple[int, int], int]

    @classmethod
    def build(cls, game: TruncatedGame) -> SequenceFormProgram:
        recall = check_perfect_recall(game.monitoring)
        if not recall.ok:
            raise ValueError(
                f"sequence form requires perfect recall; witness {recall.witness}"
            )
        forest1 = build_forest(game.monitoring, 1)
        forest2 = build_forest(game.monitoring, 2)
        seq1 = _terminal_seq_array(game, forest1)
        seq2 = _terminal_seq_array(game, forest2)
        counts: dict[tuple[int, int], int] = {}
        for idx in np.flatnonzero(game.winning_mask):
            key = (int(seq1[idx]), int(seq2[idx]))
            counts[key] = counts.get(key, 0) + 1
        return cls(game, forest1, forest2, counts)

    def solve(self) -> ValueReport:
        """One LP: player 2's plan is its primal solution, player 1's its duals.

        Variables: player 2's realization plan, one payoff bound per player-1
        infoset plus the root bound, then one slack per player-1 sequence.
        The core row of a player-1 sequence says that its infoset's bound
        dominates the sequence's payoff term plus the bounds of the infosets
        it leads to; the root bound is minimized.  Payoffs lie in [0, 1], so
        the bounds are nonnegative and fit standard form without variable
        splitting.  The duals of the core rows form a player-1 realization
        plan, possibly a sub-plan (Koller, Megiddo & von Stengel 1996), that
        guarantees the value against every player-2 plan.
        """
        forest1, forest2 = self.forest1, self.forest2
        k = self.game.num_actions
        n_plan = forest2.num_seqs
        n_bound = forest1.num_infosets + 1  # root bound first
        width = n_plan + n_bound + forest1.num_seqs

        by_seq1: dict[int, list[tuple[int, int]]] = {}
        for (s1, s2), cnt in self.payoff_counts.items():
            by_seq1.setdefault(s1, []).append((s2, cnt))

        children: dict[int, list[int]] = {}
        for iid in range(forest1.num_infosets):
            children.setdefault(forest1.parent_seq[iid], []).append(iid)

        A = []
        b = []
        # Core row per player-1 sequence: bound(head) - sum child bounds
        # - payoff term - slack = 0.
        for seq in range(forest1.num_seqs):
            row = [Fraction(0)] * width
            if seq == 0:
                row[n_plan] = Fraction(1)
            else:
                iid, _ = forest1.seq_parts(seq)
                row[n_plan + 1 + iid] = Fraction(1)
            for child in children.get(seq, ()):
                row[n_plan + 1 + child] -= 1
            for s2, cnt in by_seq1.get(seq, ()):
                row[s2] -= cnt
            row[n_plan + n_bound + seq] = Fraction(-1)
            A.append(row)
            b.append(Fraction(0))
        # plan flow rows
        row = [Fraction(0)] * width
        row[0] = Fraction(1)
        A.append(row)
        b.append(Fraction(1))
        for iid in range(forest2.num_infosets):
            row = [Fraction(0)] * width
            for a in range(k):
                row[forest2.seq_id(iid, a)] = Fraction(1)
            row[forest2.parent_seq[iid]] -= Fraction(1)
            A.append(row)
            b.append(Fraction(0))

        c = [Fraction(0)] * width
        c[n_plan] = Fraction(1)
        res = solve_standard_lp(c, A, b)
        if res.status != "optimal":
            raise RuntimeError(f"sequence-form LP ended {res.status}")
        monitoring = self.game.monitoring
        x = realization_to_behavioral(res.duals[:forest1.num_seqs], forest1, monitoring)
        y = realization_to_behavioral(res.x[:n_plan], forest2, monitoring)
        return _with_certificate(self.game, res.objective, x, y, "sequence-form-lp",
                                 seqs=(forest1.num_seqs, forest2.num_seqs),
                                 lp_pivots=res.pivots)


def sequence_form_value(game: TruncatedGame) -> ValueReport:
    """Exact game value from one realization-plan LP.

    Player 2's optimal plan is the LP's primal solution and player 1's comes
    from its exact duals; the report is certified by two exact best
    responses.
    """
    return SequenceFormProgram.build(game).solve()


def fictitious_play(game: TruncatedGame, iterations: int, cap: int = DEFAULT_MATRIX_CAP,
                    seed: int | None = None) -> ValueReport:
    """Approximate value by classical fictitious play on the normal form.

    Ties in the per-iteration best responses break to the lowest strategy
    index, so runs are reproducible without a seed.  The reported gap is the
    difference of the empirical upper and lower value bounds; the extras
    carry the full gap trajectory and its running minimum.
    """
    nf = normal_form(game, cap)
    R = nf.payoff_matrix.astype(np.float64)
    m, n = R.shape
    row_counts = np.zeros(m)
    col_counts = np.zeros(n)
    row_cum = np.zeros(m)  # payoff of each row vs column history
    col_cum = np.zeros(n)
    gaps = []
    running_min = []
    best_gap = np.inf
    for t in range(1, iterations + 1):
        i = int(np.argmax(row_cum)) if t > 1 else 0
        j = int(np.argmin(col_cum)) if t > 1 else 0
        row_counts[i] += 1
        col_counts[j] += 1
        row_cum += R[:, j]
        col_cum += R[i, :]
        upper = row_cum.max() / t
        lower = col_cum.min() / t
        gaps.append(upper - lower)
        best_gap = min(best_gap, upper - lower)
        running_min.append(best_gap)
    x_mix = row_counts / iterations
    y_mix = col_counts / iterations
    estimate = float(x_mix @ R @ y_mix)
    x = mixed_to_behavioral({i: Fraction(int(c), iterations)
                             for i, c in enumerate(row_counts) if c}, nf, 1)
    y = mixed_to_behavioral({j: Fraction(int(c), iterations)
                             for j, c in enumerate(col_counts) if c}, nf, 2)
    br1, _ = best_response(game, y)
    br2, _ = best_response(game, x)
    return ValueReport(estimate, x, y, "fictitious-play",
                       float(br1) - estimate, estimate - float(br2),
                       {"iterations": iterations, "gap_trajectory": gaps,
                        "running_min_gap": running_min})
