"""Stay/Leave scenarios with exact infinite-outcome evaluation.

Both players repeatedly choose Stay or Leave.  Player 1 wins when he leaves
after player 2 has left, or when he leaves and player 2 never does.  The
winner of an infinite play depends only on the first Leave stage of each
player, so a finite prefix plus a deterministic tail policy per player
decides every outcome exactly; payoffs against behavioral strategies follow
by enumeration over prefixes.

Each scenario makes claims of one form: a fixed strategy earns an exact
value against every opponent strategy.  ``prove_claim`` proves or refutes a
claim with two exact best responses of the opponent, one on the claim's
game and one on its complemented mask.  Claim games restrict a player's
commitment window through the winning mask (leave by stage M or forfeit)
instead of truncating the winner rule naively: a last-moment leave would
otherwise defeat any delayed responder and distort the target values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    ActionSet,
    FiniteHistory,
    MonitoringStructure,
    StagePartition,
    TruncatedGame,
    build_monitoring,
    index_to_actions,
)
from .errors import ModelingError
from .solver import best_response
from .strategy import BehavioralStrategy, Number, owned_stages, payoff

STAY, LEAVE = 0, 1

LEAVE_STAY_ACTIONS = ActionSet(("S", "L"))


@dataclass(frozen=True)
class TailPolicy:
    """Deterministic continuation beyond the evaluated prefix.

    ``stay`` never leaves; ``leave_next`` leaves at the first own stage past
    the prefix; ``respond`` leaves at the first own stage n whose visibility
    window (opponent stages <= n - 1 - delay) contains an opponent Leave.
    """

    kind: str
    delay: int = 0

    def __post_init__(self):
        if self.kind not in ("stay", "leave_next", "respond"):
            raise ValueError(f"unknown tail policy {self.kind!r}")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")


@dataclass(frozen=True)
class LeaveStayOutcome:
    """First leave stages (None = never) and the induced winner."""

    n1: int | None
    n2: int | None
    winner: int

    @staticmethod
    def winner_of(n1: int | None, n2: int | None) -> int:
        if n1 is not None and (n2 is None or n2 < n1):
            return 1
        return 2


def _first_leave(actions: Sequence[int], parity: int) -> int | None:
    for n in range(parity, len(actions), 2):
        if actions[n] == LEAVE:
            return n
    return None


def classify_outcome(prefix: FiniteHistory, tail1: TailPolicy,
                     tail2: TailPolicy) -> LeaveStayOutcome:
    """Winner of the unique infinite extension of a prefix under two tails."""
    tails = {1: tail1, 2: tail2}
    actions = list(prefix.actions)
    cap = len(actions) + 2 * (max(tail1.delay, tail2.delay) + 4)
    while len(actions) < cap:
        n = len(actions)
        tail = tails[1 if n % 2 == 0 else 2]
        if tail.kind == "stay":
            actions.append(STAY)
        elif tail.kind == "leave_next":
            own = actions[n % 2 :: 2]
            actions.append(STAY if LEAVE in own else LEAVE)
        else:  # respond
            opp = _first_leave(actions, 1 - n % 2)
            actions.append(LEAVE if opp is not None and opp <= n - 1 - tail.delay else STAY)

    n_of = {1: _first_leave(actions, 0), 2: _first_leave(actions, 1)}
    # Resolve leaves that the simulation window could not reach.
    for player in (1, 2):
        if n_of[player] is not None:
            continue
        tail = tails[player]
        if tail.kind in ("stay", "leave_next"):
            continue  # stay never leaves; leave_next acted inside the window
        opp = n_of[2 if player == 1 else 1]
        if opp is None:
            continue  # trigger never fires
        parity = 0 if player == 1 else 1
        start = max(len(prefix.actions), opp + tail.delay + 1)
        n = start if start % 2 == parity else start + 1
        if n < cap:
            raise ModelingError(
                f"tail resolution inconsistent with simulation on prefix {prefix.actions}"
            )
        n_of[player] = n
    return LeaveStayOutcome(n_of[1], n_of[2], LeaveStayOutcome.winner_of(n_of[1], n_of[2]))


def outcome_mask(horizon: int, tail1: TailPolicy, tail2: TailPolicy) -> np.ndarray:
    """Player-1 winning mask over all length-``horizon`` prefixes."""
    mask = np.zeros(2**horizon, dtype=bool)
    for idx in range(2**horizon):
        prefix = FiniteHistory(index_to_actions(idx, horizon, 2))
        mask[idx] = classify_outcome(prefix, tail1, tail2).winner == 1
    return mask


def exact_payoff_with_tails(x: BehavioralStrategy, y: BehavioralStrategy,
                            monitoring: MonitoringStructure,
                            tail1: TailPolicy, tail2: TailPolicy) -> Number:
    """Exact winning probability under strategies on the prefix and tails beyond."""
    game = TruncatedGame(monitoring, outcome_mask(monitoring.horizon, tail1, tail2))
    return payoff(x, y, game)


def _member_actions(part: StagePartition, atom_id: int) -> tuple[int, ...]:
    return index_to_actions(int(part.first_members[atom_id]), part.stage, 2)


def _certain_opponent_leave(part: StagePartition, atom_id: int) -> bool:
    """Does the atom certify an opponent Leave (all members agree on one)?"""
    members = [index_to_actions(h, part.stage, 2) for h in part.atoms[atom_id]]
    for m in range(1 - part.stage % 2, part.stage, 2):
        if all(rep[m] == LEAVE for rep in members):
            return True
    return False


def _own_left(monitoring: MonitoringStructure, stage: int, atom_id: int) -> bool:
    rep = _member_actions(monitoring.partitions[stage], atom_id)
    return LEAVE in rep[stage % 2 :: 2]


def responder_strategy(monitoring: MonitoringStructure) -> BehavioralStrategy:
    """Stay until an opponent Leave is certain from the information, then leave.

    Works for any monitoring pattern: the trigger reads what the atom
    certifies, not a fixed delay window.
    """

    def choice(n: int, p: int) -> int:
        if _own_left(monitoring, n, p):
            return LEAVE
        return LEAVE if _certain_opponent_leave(monitoring.partitions[n], p) else STAY

    return BehavioralStrategy.pure(2, monitoring, choice)


def copy_or_leave_strategy(monitoring: MonitoringStructure,
                           first_leave_prob: Number) -> BehavioralStrategy:
    """Leave immediately with the given probability, else mirror the opponent.

    At stage 0 the strategy randomizes between Leave and Stay; afterwards it
    plays the opponent's previous action (which it observes without delay).
    Once it has left, later actions are irrelevant and it stays.
    """
    k = 2

    def rows(n: int):
        if n == 0:
            q = Fraction(first_leave_prob)
            return [(1 - q, q)]
        out = []
        part = monitoring.partitions[n]
        for p in range(part.num_atoms):
            rep = _member_actions(part, p)
            if LEAVE in rep[0::2]:
                a = STAY
            else:
                a = rep[n - 1]
            out.append(tuple(Fraction(1) if j == a else Fraction(0) for j in range(k)))
        return out

    return BehavioralStrategy.from_rows(1, monitoring, {
        n: rows(n) for n in owned_stages(1, monitoring.horizon)
    })


def leave_at_stage_strategy(owner: int, monitoring: MonitoringStructure,
                            stage: int | None) -> BehavioralStrategy:
    """Leave surely at one own stage (None: never), stay otherwise."""
    if stage is not None and (stage % 2 != owner - 1 or stage >= monitoring.horizon):
        raise ValueError(f"stage {stage} is not an own move stage")
    return BehavioralStrategy.pure(
        owner, monitoring, lambda n, p: LEAVE if n == stage else STAY
    )


def variable_delay_monitoring(horizon: int, delays1: Sequence[int],
                              delays2: Sequence[int]) -> MonitoringStructure:
    """Per-stage observation delays (the delay may vary with the stage).

    ``delays1[n]`` is the delay with which the stage-n mover sees player 1's
    actions, ``delays2[n]`` the same for player 2's actions; own actions are
    always visible.
    """
    if len(delays1) < horizon or len(delays2) < horizon:
        raise ValueError("need a delay per stage")
    partitions = []
    for n in range(horizon):
        own = set(range(n % 2, n, 2))
        d_opp = delays2[n] if n % 2 == 0 else delays1[n]
        opp = {m for m in range(1 - n % 2, n, 2) if m <= n - 1 - d_opp}
        partitions.append(StagePartition.from_visible_coords(n, 2, sorted(own | opp)))
    return MonitoringStructure(LEAVE_STAY_ACTIONS, horizon, tuple(partitions),
                               "custom", None, None)


def leave_stay_mask(horizon: int, *, player1_leave_by: int | None = None,
                    player2_window: int | None = None) -> np.ndarray:
    """Winning mask of the Stay/Leave game with optional commitment windows.

    ``player1_leave_by=M``: player 1 forfeits unless his first Leave comes by
    stage M.  ``player2_window=M``: player 2 forfeits if her first Leave
    comes after stage M (leaving by M or never is fine).
    """
    mask = np.zeros(2**horizon, dtype=bool)
    for idx in range(2**horizon):
        actions = index_to_actions(idx, horizon, 2)
        n1 = _first_leave(actions, 0)
        n2 = _first_leave(actions, 1)
        wins = LeaveStayOutcome.winner_of(n1, n2) == 1
        if player1_leave_by is not None:
            wins = wins and n1 is not None and n1 <= player1_leave_by
        if player2_window is not None and n2 is not None and n2 > player2_window:
            wins = True
        mask[idx] = wins
    return mask


@dataclass(frozen=True)
class ScenarioFixture:
    """One claim: ``strategy`` earns exactly ``expected`` on ``game`` against
    every opponent strategy."""

    name: str
    game: TruncatedGame
    strategy: BehavioralStrategy
    expected: Fraction
    notes: str = ""


@dataclass(frozen=True)
class ClaimProof:
    """The opponent's exact worst and best payoffs against a claim's strategy,
    each with a pure best response attaining it."""

    claim: ScenarioFixture
    opponent_min: Number
    opponent_max: Number
    min_witness: BehavioralStrategy
    max_witness: BehavioralStrategy

    @property
    def holds(self) -> bool:
        return self.opponent_min == self.claim.expected == self.opponent_max


def prove_claim(claim: ScenarioFixture) -> ClaimProof:
    """Prove or refute a claim with two exact best responses of the opponent.

    Player 1 maximizes the winning probability and player 2 minimizes it, so
    the opponent's best response on the claim's game reaches one end of its
    payoff range, and its best response on the complemented mask reaches the
    other (payoffs there are 1 minus those on the game).  Every opponent
    strategy earns a payoff between the two ends, so the claim holds iff
    both equal ``expected``.
    """
    game, strategy = claim.game, claim.strategy
    direct, direct_br = best_response(game, strategy)
    flipped, flipped_br = best_response(
        TruncatedGame(game.monitoring, ~game.winning_mask), strategy)
    if strategy.owner == 2:  # the opponent is player 1
        return ClaimProof(claim, 1 - flipped, direct, flipped_br, direct_br)
    return ClaimProof(claim, direct, 1 - flipped, direct_br, flipped_br)


def _responder_claim(monitoring: MonitoringStructure, leave_by: int) -> ScenarioFixture:
    """example1: the responder holds every player 1 who leaves by M to 0.

    Strategies acting after H: player 1 forfeits unless his first Leave
    comes by M < H, so his actions after H decide nothing.  The mask scores
    a play on which player 2 has not left by H as a player-1 win, so a
    truncated maximum of 0 means the responder leaves inside the prefix,
    after player 1, on every play; whatever she does after H, player 1 has
    already lost.
    """
    mask = leave_stay_mask(monitoring.horizon, player1_leave_by=leave_by)
    return ScenarioFixture("example1/responder", TruncatedGame(monitoring, mask),
                           responder_strategy(monitoring), Fraction(0),
                           f"responder vs any leave-by-{leave_by} strategy")


def _punctual_leaver_claim(monitoring: MonitoringStructure, leave_by: int) -> ScenarioFixture:
    """example2: player 2 leaving at M + 1 holds every player 1 who leaves
    by M to 0, without seeing anything.

    Strategies acting after H: player 2's Leave at M + 1 < H and player 1's
    first Leave (by M, or he forfeits) both fall inside the prefix, so play
    after H decides nothing.
    """
    mask = leave_stay_mask(monitoring.horizon, player1_leave_by=leave_by)
    return ScenarioFixture("example2/lower", TruncatedGame(monitoring, mask),
                           leave_at_stage_strategy(2, monitoring, leave_by + 1), Fraction(0),
                           "punctual leaver beats any bounded opponent")


def _wait_out_claim(name: str, monitoring: MonitoringStructure, window: int) -> ScenarioFixture:
    """Player 1 leaving at his first stage past M wins surely against every
    player 2 whose first Leave past M forfeits.

    Strategies acting after H: player 1's Leave falls inside the prefix.  A
    player 2 who first leaves after H leaves after M, which the window mask
    already scores as a player-1 win; one who never leaves loses to player
    1's Leave.
    """
    first_even = window + 1 if (window + 1) % 2 == 0 else window + 2
    mask = leave_stay_mask(monitoring.horizon, player2_window=window)
    return ScenarioFixture(name, TruncatedGame(monitoring, mask),
                           leave_at_stage_strategy(1, monitoring, first_even), Fraction(1),
                           f"vs any window-{window} opponent: leave at {first_even}, win surely")


def _mirror_claim(monitoring: MonitoringStructure) -> ScenarioFixture:
    """example3: leaving at stage 0 with probability 1/2, else mirroring
    player 2, earns exactly 1/2.

    Strategies acting after H: the mask completes each prefix with the
    mirror's own rule for player 1 (leave right after player 2's first
    Leave) and with Stay for player 2.  Player 2 never sees player 1, so her
    choices after H are independent of the stage-0 coin.  A play on which
    she first leaves after H is won on the mirror side of the coin and lost
    on the other; scored as "never leaves" it is won on the other side and
    lost on the mirror side.  Both sides have probability 1/2, so the payoff
    is the same.
    """
    mask = outcome_mask(monitoring.horizon, TailPolicy("respond", 0), TailPolicy("stay"))
    return ScenarioFixture("example3/mirror", TruncatedGame(monitoring, mask),
                           copy_or_leave_strategy(monitoring, Fraction(1, 2)), Fraction(1, 2),
                           "mix at stage 0, then mirror: exactly 1/2 against anyone")


def scenario_suite(name: str, *, horizon: int | None = None, delay: int = 1,
                   leave_by: int | None = None, delays1: Sequence[int] | None = None,
                   delays2: Sequence[int] | None = None) -> list[ScenarioFixture]:
    """The claims of the three Stay/Leave scenarios; ``prove_claim`` proves each.

    ``example1``: both players see the opponent after a delay (optionally a
    per-stage variable delay); the responder holds any bounded leaver to 0.
    ``example2``: neither player observes the other; commitment-window games
    pin the two bounds 0 and 1.  ``example3``: player 1 observes player 2
    but not conversely; mixing then mirroring guarantees exactly 1/2, and 1
    is achievable against any window-bounded opponent.
    """
    if name == "example1":
        H = horizon if horizon is not None else 2 * delay + 8
        M = leave_by if leave_by is not None else 2
        if H < M + delay + 3:
            raise ValueError("horizon too short: need H >= leave_by + delay + 3")
        if delays1 is not None or delays2 is not None:
            monitoring = variable_delay_monitoring(
                H, delays1 if delays1 is not None else [delay] * H,
                delays2 if delays2 is not None else [delay] * H)
        else:
            monitoring = build_monitoring("delayed", LEAVE_STAY_ACTIONS, H, d1=delay, d2=delay)
        return [_responder_claim(monitoring, M)]
    if name == "example2":
        H = horizon if horizon is not None else 8
        M = leave_by if leave_by is not None else 2
        monitoring = build_monitoring("none", LEAVE_STAY_ACTIONS, H)
        return [_punctual_leaver_claim(monitoring, M),
                _wait_out_claim("example2/upper", monitoring, M)]
    if name == "example3":
        H = horizon if horizon is not None else 8
        M = leave_by if leave_by is not None else H - 3
        monitoring = variable_delay_monitoring(H, [H] * H, [0] * H)
        return [_mirror_claim(monitoring), _wait_out_claim("example3/wait-out", monitoring, M)]
    raise ValueError(f"unknown scenario {name!r}")
