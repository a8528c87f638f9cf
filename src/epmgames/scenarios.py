"""Stay/Leave scenarios with exact infinite-outcome evaluation.

Both players repeatedly choose Stay or Leave.  Player 1 wins when he leaves
after player 2 has left, or when he leaves and player 2 never does.  The
winner of an infinite play depends only on the first Leave stage of each
player, so a finite prefix plus a deterministic tail policy per player
decides every outcome exactly; payoffs against behavioral strategies follow
by enumeration over prefixes.

Finite fixtures restrict a player's commitment window through the winning
mask (leave by stage M or forfeit) instead of truncating the winner rule
naively: a last-moment leave would otherwise defeat any delayed responder
and distort the target values.
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


def bounded_random_strategy(owner: int, monitoring: MonitoringStructure,
                            bound: int, rng: np.random.Generator,
                            denominator: int = 8) -> BehavioralStrategy:
    """Random behavior until stage ``bound``, a sure Leave there if still in,
    sure Stay afterwards; the first Leave lands at an own stage <= bound."""
    if bound % 2 != owner - 1 or bound >= monitoring.horizon:
        raise ValueError(f"bound {bound} must be an own move stage")

    def rows(n: int):
        part = monitoring.partitions[n]
        out = []
        for p in range(part.num_atoms):
            if _own_left(monitoring, n, p) or n > bound:
                out.append((Fraction(1), Fraction(0)))
            elif n == bound:
                out.append((Fraction(0), Fraction(1)))
            else:
                w = int(rng.integers(0, denominator + 1))
                out.append((Fraction(denominator - w, denominator), Fraction(w, denominator)))
        return out

    return BehavioralStrategy.from_rows(owner, monitoring, {
        n: rows(n) for n in owned_stages(owner, monitoring.horizon)
    })


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
    """A ready-to-run piece of one scenario: a game and/or strategy pairing
    with its exact expected payoff."""

    name: str
    monitoring: MonitoringStructure
    game: TruncatedGame | None
    x: BehavioralStrategy | None
    y: BehavioralStrategy | None
    tails: tuple[TailPolicy, TailPolicy] | None
    expected: Fraction | None
    notes: str = ""


def scenario_suite(name: str, *, horizon: int | None = None, delay: int = 1,
                   leave_by: int | None = None, delays1: Sequence[int] | None = None,
                   delays2: Sequence[int] | None = None,
                   battery: int = 0, seed: int = 0) -> list[ScenarioFixture]:
    """Fixtures for the three Stay/Leave scenarios.

    ``example1``: both players see the opponent after a delay (optionally a
    per-stage variable delay); the responder holds any bounded leaver to 0.
    ``example2``: neither player observes the other; commitment-window games
    pin the two bounds 0 and 1.  ``example3``: player 1 observes player 2
    but not conversely; mixing then mirroring guarantees exactly 1/2, and 1
    is achievable against any window-bounded opponent.
    """
    rng = np.random.default_rng(seed)
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
        game = TruncatedGame(monitoring, leave_stay_mask(H, player1_leave_by=M))
        y = responder_strategy(monitoring)
        fixtures = [ScenarioFixture(
            "example1/responder", monitoring, game, None, y,
            (TailPolicy("stay"), TailPolicy("respond", delay)), Fraction(0),
            f"responder vs any leave-by-{M} strategy",
        )]
        for i in range(battery):
            x = bounded_random_strategy(1, monitoring, M, rng)
            fixtures.append(ScenarioFixture(
                f"example1/bounded-{i}", monitoring, game, x, y,
                (TailPolicy("stay"), TailPolicy("respond", delay)), Fraction(0),
            ))
        return fixtures
    if name == "example2":
        H = horizon if horizon is not None else 8
        M = leave_by if leave_by is not None else 2
        monitoring = build_monitoring("none", LEAVE_STAY_ACTIONS, H)
        lower = TruncatedGame(monitoring, leave_stay_mask(H, player1_leave_by=M))
        x_low = bounded_random_strategy(1, monitoring, M, rng)
        y_low = leave_at_stage_strategy(2, monitoring, M + 1)
        upper = TruncatedGame(monitoring, leave_stay_mask(H, player2_window=M))
        first_even = M + 1 if (M + 1) % 2 == 0 else M + 2
        x_up = leave_at_stage_strategy(1, monitoring, first_even)
        y_up = _blind_random_strategy(monitoring, M, rng)
        return [
            ScenarioFixture("example2/lower", monitoring, lower, x_low, y_low,
                            (TailPolicy("stay"), TailPolicy("stay")), Fraction(0),
                            "punctual leaver beats any bounded opponent"),
            ScenarioFixture("example2/upper", monitoring, upper, x_up, y_up,
                            (TailPolicy("stay"), TailPolicy("stay")), Fraction(1),
                            "waiting past the window wins surely"),
        ]
    if name == "example3":
        H = horizon if horizon is not None else 8
        M = leave_by if leave_by is not None else H - 3
        monitoring = variable_delay_monitoring(H, [H] * H, [0] * H)
        x_star = copy_or_leave_strategy(monitoring, Fraction(1, 2))
        fixtures = [ScenarioFixture(
            "example3/mirror", monitoring, None, x_star, None,
            (TailPolicy("respond", 0), TailPolicy("stay")), Fraction(1, 2),
            "mix at stage 0, then mirror: exactly 1/2 against anyone",
        )]
        for i in range(battery):
            y = _blind_random_strategy(monitoring, M, rng)
            fixtures.append(ScenarioFixture(
                f"example3/battery-{i}", monitoring, None, x_star, y,
                (TailPolicy("respond", 0), TailPolicy("stay")), Fraction(1, 2),
            ))
        first_even = M + 1 if (M + 1) % 2 == 0 else M + 2
        x_wait = leave_at_stage_strategy(1, monitoring, first_even)
        fixtures.append(ScenarioFixture(
            "example3/wait-out", monitoring, None, x_wait, None,
            (TailPolicy("stay"), TailPolicy("stay")), Fraction(1),
            f"vs any window-{M} opponent: leave at {first_even}, win surely",
        ))
        return fixtures
    raise ValueError(f"unknown scenario {name!r}")


def _blind_random_strategy(monitoring: MonitoringStructure, bound: int,
                           rng: np.random.Generator) -> BehavioralStrategy:
    """Random player-2 behavior supported on stages <= bound, sure Stay after."""

    def rows(n: int):
        part = monitoring.partitions[n]
        out = []
        for p in range(part.num_atoms):
            if n > bound:
                out.append((Fraction(1), Fraction(0)))
            else:
                w = int(rng.integers(0, 9))
                out.append((Fraction(8 - w, 8), Fraction(w, 8)))
        return out

    return BehavioralStrategy.from_rows(2, monitoring, {
        n: rows(n) for n in owned_stages(2, monitoring.horizon)
    })
