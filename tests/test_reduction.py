import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epmgames import (
    sequence_form_value,
    ActionSet,
    Announcement,
    AuxHistory,
    ConditioningError,
    StagePartition,
    TruncatedGame,
    aux_best_response,
    aux_payoff,
    aux_value,
    build_aux_game,
    build_monitoring,
    build_schedule,
    compare_values,
    lift_player2,
    nature_transition,
    payoff,
    project_player1,
)
from epmgames.core import index_to_actions
from epmgames.reduction import ConstantAuxStrategy, TreeAuxStrategy
from epmgames.strategy import BehavioralStrategy, owned_stages
from tests.conftest import matching_game, random_game

AB = ActionSet(("a", "b"))


def test_schedule_examples():
    sched = build_schedule(build_monitoring("perfect", AB, 4))
    assert sched.k_of == (1, 2, 3, None)
    sched = build_schedule(build_monitoring("blackwell", AB, 4))
    assert sched.k_of == (3, 2, None, None)
    assert sched.groups == {2: (1,), 3: (0,)}
    assert sched.terminal == (2, 3)
    sched = build_schedule(build_monitoring("none", AB, 4))
    assert sched.k_of == (None,) * 4
    assert sched.terminal == (0, 1, 2, 3)


def test_schedule_interior_parity():
    for kind, kwargs in (("perfect", {}), ("blackwell", {}), ("delayed", {"d1": 1, "d2": 1})):
        sched = build_schedule(build_monitoring(kind, AB, 5, **kwargs))
        for m, n in enumerate(sched.k_of):
            if n is not None:
                assert n > m and n % 2 != m % 2


def test_build_aux_game_grids():
    g = matching_game("blackwell")
    aux = build_aux_game(g, 2)
    assert len(aux.grids[0].points) == 2  # vertices only
    aux = build_aux_game(g, 1)
    assert len(aux.grids[0].points) == 3


def test_aux_requires_recall():
    atoms = [[[0]], [[0], [1]], [[0, 1, 2, 3]]]
    m = build_monitoring("custom", AB, 3, atoms=atoms)
    with pytest.raises(ValueError, match="perfect recall"):
        build_aux_game(TruncatedGame(m, np.zeros(8, bool)), 1)


@st.composite
def recall_structures(draw):
    """Rule-based structures, or random custom ones that keep perfect recall:
    each mover sees its own past, all it saw two stages earlier, and a
    random set of further opponent actions.  k in {2, 3}, H <= 5."""
    k = draw(st.sampled_from([2, 3]))
    horizon = draw(st.integers(1, 5))
    actions = ActionSet(("r", "p", "s")[:k])
    kind = draw(st.sampled_from(["perfect", "blackwell", "delayed", "block", "none", "custom"]))
    if kind == "delayed":
        return build_monitoring(kind, actions, horizon,
                                d1=draw(st.integers(0, 3)), d2=draw(st.integers(0, 3)))
    if kind == "block":
        sizes = []
        while sum(sizes) < horizon:
            sizes.append(draw(st.integers(1, 3)))
        return build_monitoring(kind, actions, horizon, sizes=sizes)
    if kind != "custom":
        return build_monitoring(kind, actions, horizon)
    seen = [set(), set()]
    atoms = []
    for n in range(horizon):
        seen[n % 2] |= set(range(n % 2, n, 2))
        seen[n % 2] |= {m for m in range(1 - n % 2, n, 2) if draw(st.booleans())}
        atoms.append(StagePartition.from_visible_coords(n, k, sorted(seen[n % 2])).atoms)
    return build_monitoring("custom", actions, horizon, atoms=atoms)


@settings(max_examples=60, deadline=None)
@given(recall_structures())
@example(build_monitoring("blackwell", AB, 4))
def test_reconstruction_identity_blackwell(m):
    k, H = m.num_actions, m.horizon
    aux = build_aux_game(TruncatedGame(m, np.zeros(k**H, bool)), 2**H)
    if m.builder == {"kind": "blackwell"} and (k, H) == (2, 4):
        assert aux.schedule.terminal == (2, 3)
        # spot-check the inverse by hand on one history: a = (1, 0, 1, 1)
        states = {2: 0, 3: 1}  # stage 2 reveals a_1 = 0; stage 3 reveals a_0 = 1
        terminal = 0b11       # coordinates (2, 3)
        assert aux.reconstruct(states, terminal).index(2) == 0b1011

    # Every history is rebuilt from its revealed states and terminal code.
    def code(actions, coords):
        out = 0
        for c in coords:
            out = out * k + actions[c]
        return out

    for idx in range(k**H):
        actions = index_to_actions(idx, H, k)
        states = {n: code(actions, coords) for n, coords in aux.schedule.groups.items()}
        rebuilt = aux.reconstruct(states, code(actions, aux.schedule.terminal))
        assert rebuilt.index(k) == idx


def test_nature_transition_perfect_is_announced_mixture():
    g = matching_game("perfect")
    aux = build_aux_game(g, 1)
    b0 = Announcement(((0, (F(1, 3), F(2, 3))),))
    dist = nature_transition(aux, AuxHistory((0,), (b0,)))
    assert dist == {0: F(1, 3), 1: F(2, 3)}


def test_nature_transition_blackwell_hides_first_action():
    m = build_monitoring("blackwell", AB, 4)
    g = TruncatedGame(m, np.zeros(16, bool))
    aux = build_aux_game(g, 1)
    b0 = Announcement(((0, (F(1, 2), F(1, 2))),))
    b1 = Announcement(((0, (F(1, 4), F(3, 4))),))
    dist = nature_transition(aux, AuxHistory((0, 0), (b0, b1)))
    # stage-2 state reveals a_1; the hidden a_0 does not matter
    assert dist == {0: F(1, 4), 1: F(3, 4)}


def _brute_force_transition(aux, history):
    """Oracle: enumerate the hidden-play law directly and condition by hand."""
    n = len(history.actions)
    k = aux.num_actions
    m = aux.game.monitoring
    law = {}
    for idx in range(k**n):
        acts = index_to_actions(idx, n, k)
        w = F(1)
        prefix = 0
        for j in range(n):
            atom = int(m.partitions[j].atom_index[prefix])
            w *= history.actions[j].lookup(atom)[acts[j]]
            prefix = prefix * k + acts[j]
        # condition on every announced state so far
        keep = True
        for j in range(n):
            coords = aux.schedule.groups.get(j, ())
            code = 0
            for c in coords:
                code = code * k + acts[c]
            if code != history.states[j]:
                keep = False
        if keep and w != 0:
            law[acts] = w
    coords = aux.schedule.groups.get(n, ())
    dist = {}
    for acts, w in law.items():
        code = 0
        for c in coords:
            code = code * k + acts[c]
        dist[code] = dist.get(code, F(0)) + w
    total = sum(dist.values())
    return {c: v / total for c, v in dist.items()}


def test_nature_transition_matches_brute_force_on_random_walks():
    rng = np.random.default_rng(3)

    def rand_dist():
        w = rng.integers(1, 6, size=2)
        return (F(int(w[0]), int(w[0] + w[1])), F(int(w[1]), int(w[0] + w[1])))

    for kind, kwargs in (("perfect", {}), ("blackwell", {}),
                         ("delayed", {"d1": 1, "d2": 1}), ("none", {})):
        for N in (2, 3, 4):
            m = build_monitoring(kind, AB, N, **kwargs)
            g = TruncatedGame(m, np.zeros(2**N, bool))
            aux = build_aux_game(g, 1)
            states: list[int] = []
            actions: list[Announcement] = []
            for n in range(N):
                hist = AuxHistory(tuple(states), tuple(actions))
                if n > 0:
                    got = nature_transition(aux, hist)
                    expect = _brute_force_transition(aux, hist)
                    assert got == expect, (kind, N, n)
                    # walk a random positive-probability state forward
                    codes = sorted(got)
                    states.append(codes[int(rng.integers(len(codes)))])
                else:
                    states.append(0)
                part = m.partitions[n]
                actions.append(Announcement(
                    tuple((p, rand_dist()) for p in range(part.num_atoms))))


def test_nature_transition_zero_probability_errors():
    g = matching_game("perfect")
    aux = build_aux_game(g, 1)
    b0 = Announcement(((0, (F(1), F(0))),))
    b1 = Announcement((), (F(1), F(0)))
    with pytest.raises(ConditioningError):
        nature_transition(aux, AuxHistory((0, 1), (b0, b1)))


def test_aux_history_filter_normalized():
    g = matching_game("blackwell", horizon=4)
    aux = build_aux_game(g, 1)
    b0 = Announcement(((0, (F(1, 2), F(1, 2))),))
    filt = AuxHistory((0,), (b0,)).filter(aux)
    assert sum(filt.values()) == 1
    assert set(filt) == {0, 1}


def test_aux_value_matching_spot_values():
    g = matching_game("blackwell")
    assert aux_value(build_aux_game(g, 1)).value == F(1, 2)
    assert aux_value(build_aux_game(g, 2)).value == 0  # announced pure plan is exploited
    full = TruncatedGame(g.monitoring, np.ones(4, bool))
    for eps in (2, 1, F(1, 2)):
        assert aux_value(build_aux_game(full, eps)).value == 1


def test_aux_value_decomposition_agrees_with_brute_force():
    rng = np.random.default_rng(23)
    for trial in range(16):
        g = random_game(rng, horizon_choices=(1, 2, 3), index=trial)
        aux = build_aux_game(g, 1)
        fast = aux_value(aux, decompose=True)
        slow = aux_value(aux, decompose=False)
        assert fast.value == slow.value, (trial, fast.value, slow.value)
    for trial in range(6):
        g = random_game(rng, horizon_choices=(4,), index=trial)
        aux = build_aux_game(g, 1)
        assert aux_value(aux, decompose=True).value == \
            aux_value(aux, decompose=False).value, trial


def test_aux_value_decomposition_adversarial_cases():
    # no monitoring maximizes announcement coupling (everything interacts);
    # asymmetric delays split the filter into nontrivial components; blocks
    # mix both.  The economies must agree with plain enumeration everywhere.
    rng = np.random.default_rng(99)
    cases = [("none", {}, 2), ("none", {}, 1),
             ("delayed", {"d1": 2, "d2": 2}, 1), ("delayed", {"d1": 2, "d2": 0}, 1),
             ("block", {"sizes": [2, 2]}, 1)]
    for kind, kwargs, eps in cases:
        m = build_monitoring(kind, AB, 4, **kwargs)
        g = TruncatedGame(m, rng.random(16) < 0.5)
        aux = build_aux_game(g, eps)
        fast = aux_value(aux, decompose=True)
        slow = aux_value(aux, decompose=False)
        assert fast.value == slow.value, (kind, kwargs, eps)


def test_aux_value_three_actions():
    rng = np.random.default_rng(47)
    rps = ActionSet(("r", "p", "s"))
    for trial in range(6):
        kind, kwargs = (("blackwell", {}), ("perfect", {}), ("none", {}))[trial % 3]
        N = 2 + trial % 2
        m = build_monitoring(kind, rps, N, **kwargs)
        g = TruncatedGame(m, rng.random(3**N) < rng.random())
        aux = build_aux_game(g, 2)
        fast = aux_value(aux, decompose=True)
        slow = aux_value(aux, decompose=False)
        assert fast.value == slow.value, (trial, kind, N)


def test_block_monitoring_through_pipeline():
    rng = np.random.default_rng(53)
    m = build_monitoring("block", AB, 4, sizes=[2, 2])
    g = TruncatedGame(m, rng.random(16) < 0.5)
    base = sequence_form_value(g)
    assert base.certified
    for eps in (1, F(1, 2)):
        rep = compare_values(g, eps)
        assert rep.ok, (eps, rep.value, rep.aux_val)


def test_aux_value_size_cap():
    g = matching_game("none", horizon=4)
    aux = build_aux_game(g, F(1, 4))
    with pytest.raises(Exception) as err:
        aux_value(aux, assignment_cap=10)
    assert "cap" in str(err.value)


def test_lift_and_project_round_trip():
    rng = np.random.default_rng(29)
    for N in (1, 2, 3, 4):
        m = build_monitoring("blackwell", AB, N)
        for rep in range(3):
            g = TruncatedGame(m, rng.random(2**N) < rng.random())
            aux = build_aux_game(g, 1)
            ytab = {n: [aux.grids[n].points[int(rng.integers(len(aux.grids[n].points)))]
                        for _ in range(m.partitions[n].num_atoms)]
                    for n in owned_stages(2, N)}
            y = BehavioralStrategy.from_rows(2, m, ytab)
            ystar = lift_player2(y, aux)
            xstar = ConstantAuxStrategy(
                {n: aux.grids[n].points[int(rng.integers(len(aux.grids[n].points)))]
                 for n in range(0, N, 2)})
            lhs = aux_payoff(aux, xstar, ystar)
            x = project_player1(xstar, aux, y)
            assert lhs == payoff(x, y, g)


def test_aux_best_response_round_trip():
    rng = np.random.default_rng(31)
    m = build_monitoring("blackwell", AB, 4)
    g = TruncatedGame(m, rng.random(16) < 0.5)
    aux = build_aux_game(g, 1)
    y = BehavioralStrategy.from_rows(2, m, {
        n: [aux.grids[n].points[len(aux.grids[n].points) // 2]] * m.partitions[n].num_atoms
        for n in owned_stages(2, 4)})
    ystar = lift_player2(y, aux)
    v, xstar = aux_best_response(aux, ystar)
    assert aux_payoff(aux, xstar, ystar) == v
    x = project_player1(xstar, aux, y)
    assert payoff(x, y, g) == v
    # announcing against a fixed lifted strategy cannot beat the base best response
    from epmgames import best_response

    vbase, _ = best_response(g, y)
    assert v <= vbase


def test_unreachable_announcements_do_not_matter():
    # two tree strategies equal on-path but with different fallbacks
    g = matching_game("blackwell")
    aux = build_aux_game(g, 1)
    y = BehavioralStrategy.from_rows(2, g.monitoring, {1: [aux.grids[1].points[2]]})
    ystar = lift_player2(y, aux)
    _, xstar = aux_best_response(aux, ystar)
    alt = TreeAuxStrategy(xstar.choices,
                          {n: Announcement((), aux.grids[n].points[-1])
                           for n in range(aux.horizon)})
    assert aux_payoff(aux, xstar, ystar) == aux_payoff(aux, alt, ystar)


def test_off_grid_lift_rejected():
    g = matching_game("blackwell")
    aux = build_aux_game(g, 2)
    y = BehavioralStrategy.from_rows(2, g.monitoring, {1: [[F(1, 3), F(2, 3)]]})
    with pytest.raises(ValueError, match="off-grid"):
        lift_player2(y, aux)


def test_sandwich_on_random_suite():
    rng = np.random.default_rng(37)
    for trial in range(12):
        g = random_game(rng, index=trial)
        for eps in (1, F(1, 2)):
            rep = compare_values(g, eps)
            assert rep.ok, (trial, eps, rep.value, rep.aux_val)


def test_sandwich_empty_set_every_epsilon():
    m = build_monitoring("blackwell", AB, 3)
    g = TruncatedGame(m, np.zeros(8, bool))
    for eps in (2, 1, F(1, 2), F(1, 4)):
        rep = compare_values(g, eps)
        assert rep.value == 0 and rep.aux_val == 0 and rep.ok


def test_sandwich_bounds_are_one_epsilon_each_side():
    rep = compare_values(matching_game("blackwell"), F(1, 4))
    eps, q = rep.epsilon, 64
    cases = ((rep.value + eps, True, True), (rep.value - eps, True, True),
             (rep.value + eps + F(1, q), False, True), (rep.value - eps - F(1, q), True, False))
    for aux_val, upper, lower in cases:
        shifted = dataclasses.replace(rep, aux_val=aux_val)
        assert (shifted.upper_ok, shifted.lower_ok, shifted.ok) == (upper, lower, upper and lower)


def test_sandwich_report_fields():
    rep = compare_values(matching_game("blackwell"), F(1, 4))
    assert rep.value == F(1, 2) and rep.aux_val == F(1, 2)
    assert rep.upper_ok and rep.lower_ok and rep.ok
    assert rep.epsilon == F(1, 4)
    assert rep.aux_report.stats.nodes > 0
