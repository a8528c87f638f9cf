import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from epmgames import (
    FiniteHistory,
    ScenarioFixture,
    TailPolicy,
    TruncatedGame,
    best_response,
    classify_outcome,
    exact_payoff_with_tails,
    payoff,
    prove_claim,
    scenario_suite,
    sequence_form_value,
)
from epmgames.scenarios import (
    LEAVE,
    STAY,
    copy_or_leave_strategy,
    leave_at_stage_strategy,
    leave_stay_mask,
    outcome_mask,
    responder_strategy,
    variable_delay_monitoring,
)

stay = TailPolicy("stay")


def test_classify_examples():
    out = classify_outcome(FiniteHistory((LEAVE, STAY)), stay, stay)
    assert (out.n1, out.n2, out.winner) == (0, None, 1)
    out = classify_outcome(FiniteHistory((STAY, LEAVE, LEAVE, STAY)), stay, stay)
    assert (out.n1, out.n2, out.winner) == (2, 1, 1)
    out = classify_outcome(FiniteHistory((STAY,) * 4), stay, stay)
    assert (out.n1, out.n2, out.winner) == (None, None, 2)


def test_classify_with_tails():
    # player 2 responds with visibility delay 1 beyond the prefix
    out = classify_outcome(FiniteHistory((LEAVE, STAY)), stay, TailPolicy("respond", 1))
    assert (out.n1, out.n2, out.winner) == (0, 3, 2)
    # leave_next: first own stage past the prefix
    out = classify_outcome(FiniteHistory((STAY, STAY)), TailPolicy("leave_next"), stay)
    assert (out.n1, out.n2, out.winner) == (2, None, 1)
    out = classify_outcome(FiniteHistory((STAY,)), stay, TailPolicy("leave_next"))
    assert (out.n1, out.n2, out.winner) == (None, 1, 2)
    # respond with a delay far beyond the simulation window still resolves
    out = classify_outcome(FiniteHistory((LEAVE,)), stay, TailPolicy("respond", 25))
    assert out.n2 == 27 and out.winner == 2
    # mutual responders with no prefix leave never move
    out = classify_outcome(FiniteHistory((STAY, STAY)),
                           TailPolicy("respond", 1), TailPolicy("respond", 1))
    assert (out.n1, out.n2, out.winner) == (None, None, 2)


def test_classify_prefix_monotone():
    rng = np.random.default_rng(4)
    tails = [stay, TailPolicy("leave_next"), TailPolicy("respond", 1)]
    for _ in range(60):
        base = tuple(int(v) for v in rng.integers(0, 2, size=4))
        t1, t2 = tails[rng.integers(3)], tails[rng.integers(3)]
        out = classify_outcome(FiniteHistory(base), t1, t2)
        if out.n1 is not None and out.n2 is not None and max(out.n1, out.n2) < 4:
            for ext in ((STAY,), (LEAVE,), (STAY, LEAVE)):
                again = classify_outcome(FiniteHistory(base + ext), t1, t2)
                assert again.winner == out.winner


def test_tail_validation():
    with pytest.raises(ValueError):
        TailPolicy("leave")
    with pytest.raises(ValueError):
        TailPolicy("respond", -1)


def proved(claim):
    proof = prove_claim(claim)
    assert proof.opponent_min == proof.opponent_max == claim.expected, claim.name
    assert proof.holds
    return proof


def test_example1_responder_holds_everyone_to_zero():
    (claim,) = scenario_suite("example1", delay=1, leave_by=2, horizon=6)
    proof = proved(claim)
    assert claim.expected == 0
    # each witness attains its end of the opponent's payoff range
    y = claim.strategy
    assert payoff(proof.max_witness, y, claim.game) == 0
    assert best_response(claim.game, y) == (proof.opponent_max, proof.max_witness)
    # explicit leave-at-0 strategy, tail evaluation route
    x0 = leave_at_stage_strategy(1, claim.game.monitoring, 0)
    got = exact_payoff_with_tails(x0, y, claim.game.monitoring, stay, TailPolicy("respond", 1))
    assert got == 0


def test_example1_zero_for_larger_delays():
    for delay, M, H in ((1, 2, 6), (2, 2, 8), (1, 2, 10), (2, 2, 12)):
        (claim,) = scenario_suite("example1", delay=delay, leave_by=M, horizon=H)
        assert claim.expected == 0
        proved(claim)


def test_example1_truncation_value_zero():
    (claim,) = scenario_suite("example1", delay=1, leave_by=2, horizon=6)
    rep = sequence_form_value(claim.game)
    assert rep.value == 0
    assert rep.certified


def test_example1_truncation_value_zero_delay2():
    # the larger truncation: delay 2, leave window 2, eight stages
    (claim,) = scenario_suite("example1", delay=2, leave_by=2, horizon=8)
    rep = sequence_form_value(claim.game)
    assert rep.value == 0
    assert rep.certified


def test_example1_variable_delay():
    (claim,) = scenario_suite("example1", horizon=9, leave_by=2,
                              delays1=[1, 2, 3, 2, 1, 2, 3, 2, 1], delays2=[2] * 9)
    proved(claim)


def test_example2_bounds():
    for H in (8, 10, 12):
        lower, upper = scenario_suite("example2", horizon=H, leave_by=2)
        assert (lower.expected, upper.expected) == (0, 1)
        proved(lower)
        proved(upper)
    # the punctual leaver needs no information: value of the committed game is 0
    lower, _ = scenario_suite("example2", horizon=8, leave_by=2)
    assert sequence_form_value(lower.game).value == 0


def test_example3_half_and_one():
    for H in (8, 10, 12):
        mirror, wait = scenario_suite("example3", horizon=H)
        assert (mirror.expected, wait.expected) == (F(1, 2), 1)
        proof = proved(mirror)
        proved(wait)
        # the mirror's mask is the tail-policy outcome: both witnesses earn
        # 1/2 under the reference evaluation too
        m = mirror.game.monitoring
        for y in (proof.min_witness, proof.max_witness):
            got = exact_payoff_with_tails(mirror.strategy, y, m, TailPolicy("respond", 0), stay)
            assert got == F(1, 2)


def test_example3_mirror_needs_both_branches():
    # against a never-leaving opponent the mirror wins only on its early leave
    mirror, _ = scenario_suite("example3", horizon=8)
    m = mirror.game.monitoring
    y_never = leave_at_stage_strategy(2, m, None)
    got = exact_payoff_with_tails(mirror.strategy, y_never, m, TailPolicy("respond", 0), stay)
    assert got == F(1, 2)
    # either branch alone wins against one opponent and loses against another
    for first_leave_prob in (0, 1):
        branch = dataclasses.replace(mirror, strategy=copy_or_leave_strategy(m, first_leave_prob))
        proof = prove_claim(branch)
        assert (proof.opponent_min, proof.opponent_max) == (0, 1)
        assert not proof.holds


def test_claim_proof_checks_both_sides():
    # Waiting out a window needs the window mask: under Stay tails player 2
    # can leave just after player 1 and win, so the range is [0, 1].
    _, wait = scenario_suite("example3", horizon=8)
    m = wait.game.monitoring
    for expected in (0, 1):
        claim = ScenarioFixture("stay-tails", TruncatedGame(m, outcome_mask(8, stay, stay)),
                                wait.strategy, F(expected))
        proof = prove_claim(claim)
        assert (proof.opponent_min, proof.opponent_max) == (0, 1)
        assert not proof.holds
        assert payoff(wait.strategy, proof.min_witness, claim.game) == 0
        assert payoff(wait.strategy, proof.max_witness, claim.game) == 1
    # Without the leave-by window a last-moment leave beats the responder.
    (responder,) = scenario_suite("example1", delay=1, leave_by=2, horizon=6)
    rm = responder.game.monitoring
    for expected in (0, 1):
        claim = ScenarioFixture("no-window", TruncatedGame(rm, leave_stay_mask(6)),
                                responder.strategy, F(expected))
        proof = prove_claim(claim)
        assert (proof.opponent_min, proof.opponent_max) == (0, 1)
        assert not proof.holds


def test_leave_stay_mask_windows():
    mask_plain = leave_stay_mask(4)
    idx = FiniteHistory((LEAVE, STAY, STAY, STAY)).index(2)
    assert mask_plain[idx]
    mask_bound = leave_stay_mask(4, player1_leave_by=0)
    late = FiniteHistory((STAY, STAY, LEAVE, STAY)).index(2)
    assert not mask_bound[late] and mask_plain[late]
    mask_window = leave_stay_mask(4, player2_window=1)
    penalty = FiniteHistory((STAY, STAY, STAY, LEAVE)).index(2)
    assert mask_window[penalty]


def test_outcome_mask_matches_pointwise():
    t1, t2 = TailPolicy("respond", 0), stay
    mask = outcome_mask(4, t1, t2)
    for idx in range(16):
        h = FiniteHistory(tuple(int(b) for b in f"{idx:04b}"))
        assert mask[h.index(2)] == (classify_outcome(h, t1, t2).winner == 1)


def test_strategy_builders_validate():
    mon = variable_delay_monitoring(6, [1] * 6, [1] * 6)
    with pytest.raises(ValueError):
        leave_at_stage_strategy(1, mon, 1)  # odd stage is not player 1's
    with pytest.raises(ValueError):
        leave_at_stage_strategy(2, mon, 7)  # past the horizon
    y = responder_strategy(mon)
    assert y.owner == 2
    x = copy_or_leave_strategy(variable_delay_monitoring(6, [6] * 6, [0] * 6), F(1, 2))
    assert x.tables[0][0] == (F(1, 2), F(1, 2))
