from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epmgames import (
    ActionSet,
    SizeCapError,
    TruncatedGame,
    best_response,
    brute_force_value,
    build_monitoring,
    fictitious_play,
    normal_form,
    payoff,
    sequence_form_value,
)
from epmgames import solver
from epmgames.solver import (
    SequenceFormProgram,
    build_forest,
    mixed_to_behavioral,
    realization_to_behavioral,
)
from epmgames.strategy import BehavioralStrategy
from tests.conftest import matching_game, random_game

AB = ActionSet(("a", "b"))


def test_normal_form_counts():
    nf = normal_form(matching_game("perfect"))
    assert (nf.num_rows, nf.num_cols) == (2, 4)
    nf = normal_form(matching_game("blackwell"))
    assert (nf.num_rows, nf.num_cols) == (2, 2)


def test_normal_form_induced_play():
    # player 1 plays a; player 2 copies the observed first action
    nf = normal_form(matching_game("perfect"))
    sigma = 0  # lexicographic: action 0 everywhere
    theta = None
    for j in range(nf.num_cols):
        choices = nf.decode(2, j)
        if choices[(1, 0)] == 0 and choices[(1, 1)] == 1:  # atoms keyed by a_0
            theta = j
    assert nf.induced_play(sigma, theta).actions == (0, 0)
    assert nf.decode(1, 0) == {(0, 0): 0}


def test_normal_form_cap():
    g = matching_game("perfect", horizon=4)
    with pytest.raises(SizeCapError):
        normal_form(g, cap=100)


def test_brute_force_examples():
    assert brute_force_value(matching_game("blackwell")).value == F(1, 2)
    assert brute_force_value(matching_game("perfect")).value == 0
    m = build_monitoring("blackwell", AB, 2)
    assert brute_force_value(TruncatedGame(m, np.zeros(4, bool))).value == 0
    assert brute_force_value(TruncatedGame(m, np.ones(4, bool))).value == 1


def test_best_response_examples():
    g = matching_game("blackwell")
    v, br = best_response(g, BehavioralStrategy.uniform(2, g.monitoring))
    assert v == F(1, 2)
    assert payoff(br, BehavioralStrategy.uniform(2, g.monitoring), g) == F(1, 2)
    y_a = BehavioralStrategy.pure(2, g.monitoring, lambda n, p: 0)
    v, br = best_response(g, y_a)
    assert v == 1
    # minimizing responder
    x_a = BehavioralStrategy.pure(1, g.monitoring, lambda n, p: 0)
    v, br = best_response(g, x_a)
    assert v == 0 and br.owner == 2


def test_sequence_form_matches_brute_force_suite():
    rng = np.random.default_rng(100)
    for trial in range(60):
        g = random_game(rng, index=trial)
        rb = brute_force_value(g)
        rs = sequence_form_value(g)
        assert rb.value == rs.value
        assert rb.certified, (trial, rb.gap1, rb.gap2)
        assert rs.certified, (trial, rs.gap1, rs.gap2)


@st.composite
def small_games(draw):
    """Builder structure with k in {2, 3}, H <= 4, and a random winning mask."""
    k = draw(st.sampled_from([2, 3]))
    horizon = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["perfect", "blackwell", "delayed", "block", "none"]))
    kwargs = {}
    if kind == "delayed":
        kwargs = {"d1": draw(st.integers(0, 2)), "d2": draw(st.integers(0, 2))}
    elif kind == "block":
        sizes = []
        while sum(sizes) < horizon:
            sizes.append(draw(st.integers(1, 3)))
        kwargs = {"sizes": sizes}
    m = build_monitoring(kind, ActionSet(("r", "p", "s")[:k]), horizon, **kwargs)
    mask = draw(st.lists(st.booleans(), min_size=k**horizon, max_size=k**horizon))
    return TruncatedGame(m, np.array(mask, dtype=bool))


def _normal_form_entries(game) -> int:
    k = game.num_actions
    slots = [game.monitoring.partitions[n].num_atoms for n in range(game.horizon)]
    return k ** sum(slots)


@settings(max_examples=100, deadline=None)
@given(small_games())
def test_one_lp_sequence_form_matches_brute_force(game):
    assume(_normal_form_entries(game) <= 2 * 10**5)
    rs = sequence_form_value(game)
    assert rs.certified, (rs.gap1, rs.gap2)
    assert rs.value == brute_force_value(game).value


def test_sequence_form_solves_one_lp(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_standard_lp(*args, **kwargs)

    solve_standard_lp = solver.solve_standard_lp
    monkeypatch.setattr(solver, "solve_standard_lp", counting)
    rep = sequence_form_value(matching_game("delayed", horizon=4, d1=1, d2=1))
    assert len(calls) == 1
    assert rep.certified
    assert rep.extras["lp_pivots"] > 0


def test_realization_to_behavioral_normalizes_sub_plans():
    # a sub-plan (row sums below the parent entry, as LP duals may give) is
    # normalized by each row's own sum; a row with no mass turns uniform
    g = matching_game("blackwell", horizon=3)
    forest = build_forest(g.monitoring, 1)
    plan = [F(1)] + [F(0)] * (forest.num_seqs - 1)
    plan[forest.seq_id(forest.infoset_id(0, 0), 0)] = F(1, 4)
    plan[forest.seq_id(forest.infoset_id(0, 0), 1)] = F(1, 2)
    x = realization_to_behavioral(plan, forest, g.monitoring)
    assert x.tables[0][0] == (F(1, 3), F(2, 3))
    assert all(row == (F(1, 2), F(1, 2)) for row in x.tables[2])


def test_three_action_game():
    actions = ActionSet(("r", "p", "s"))
    g = matching_game("blackwell", action_set=actions)
    rb = brute_force_value(g)
    rs = sequence_form_value(g)
    assert rb.value == rs.value == F(1, 3)


def test_monotonicity_in_winning_set():
    rng = np.random.default_rng(8)
    m = build_monitoring("blackwell", AB, 3)
    for _ in range(10):
        small = rng.random(8) < 0.4
        big = small | (rng.random(8) < 0.4)
        v_small = sequence_form_value(TruncatedGame(m, small)).value
        v_big = sequence_form_value(TruncatedGame(m, big)).value
        assert v_small <= v_big


def test_complement_payoffs_and_values():
    # complementing the mask flips every profile's payoff exactly; the
    # max/min roles do not swap with it, so there is no two-value identity
    # (an informed responder can win both games, a lone first mover both)
    rng = np.random.default_rng(9)
    for trial in range(10):
        g = random_game(rng, index=trial)
        gc = TruncatedGame(g.monitoring, ~g.winning_mask)
        x = BehavioralStrategy.random_rational(1, g.monitoring, rng)
        y = BehavioralStrategy.random_rational(2, g.monitoring, rng)
        assert payoff(x, y, g) + payoff(x, y, gc) == 1
        rep = sequence_form_value(g)
        # determinacy of the single game: the minimizer concedes exactly the value
        v_conceded, _ = best_response(g, rep.x)
        v_achieved, _ = best_response(g, rep.y)
        assert v_conceded == v_achieved == rep.value
    g = matching_game("blackwell")
    gc = TruncatedGame(g.monitoring, ~g.winning_mask)
    assert sequence_form_value(g).value + sequence_form_value(gc).value == 1
    g = matching_game("perfect")
    gc = TruncatedGame(g.monitoring, ~g.winning_mask)
    assert sequence_form_value(g).value == 0
    assert sequence_form_value(gc).value == 0


def test_sequence_form_refuses_without_recall():
    atoms = [
        [[0]],
        [[0], [1]],
        [[0, 1, 2, 3]],
    ]
    m = build_monitoring("custom", AB, 3, atoms=atoms)
    g = TruncatedGame(m, np.zeros(8, bool))
    with pytest.raises(ValueError, match="perfect recall"):
        sequence_form_value(g)


def test_forest_structure():
    m = build_monitoring("blackwell", AB, 4)
    f1 = build_forest(m, 1)
    assert f1.stages == (0, 2)
    assert f1.num_infosets == 1 + 4
    assert f1.parent_seq[0] == 0
    # stage-2 infoset parents: root-atom sequence with the own stage-0 action
    for atom in range(4):
        parent = f1.parent_seq[f1.infoset_id(2, atom)]
        iid, act = f1.seq_parts(parent)
        assert iid == 0
    f2 = build_forest(m, 2)
    assert f2.stages == (1, 3)
    assert f2.num_seqs == 1 + (1 + 4) * 2


def test_mixed_to_behavioral_realization_equivalence():
    rng = np.random.default_rng(15)
    for trial in range(10):
        g = random_game(rng, horizon_choices=(2, 3), index=trial)
        nf = normal_form(g)
        y = BehavioralStrategy.random_rational(2, g.monitoring, rng)
        # random mixture over a few pure row strategies
        support = rng.choice(nf.num_rows, size=min(3, nf.num_rows), replace=False)
        weights = {int(i): F(1, len(support)) for i in support}
        x_beh = mixed_to_behavioral(weights, nf, 1)
        # payoff of the mixture = weighted payoff of its pure members
        total = F(0)
        for i, w in weights.items():
            x_pure = mixed_to_behavioral({i: F(1)}, nf, 1)
            total += w * payoff(x_pure, y, g)
        assert payoff(x_beh, y, g) == total


def test_fictitious_play_convergence():
    fp = fictitious_play(matching_game("blackwell"), 10_000)
    assert abs(fp.value - 0.5) < 0.02
    assert fp.extras["iterations"] == 10_000
    mins = fp.extras["running_min_gap"]
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert mins[-1] < 0.02


def test_fictitious_play_empty_set():
    g = TruncatedGame(build_monitoring("blackwell", AB, 2), np.zeros(4, bool))
    fp = fictitious_play(g, 1)
    assert fp.value == 0


def test_fictitious_play_tracks_exact_values():
    rng = np.random.default_rng(41)
    for trial in range(5):
        g = random_game(rng, horizon_choices=(4,), index=trial)
        exact = sequence_form_value(g).value
        fp = fictitious_play(g, 4000)
        assert abs(fp.value - float(exact)) < 0.1, (trial, fp.value, exact)
        mins = fp.extras["running_min_gap"]
        assert all(a >= b for a, b in zip(mins, mins[1:]))


def test_value_report_fields():
    rep = sequence_form_value(matching_game("blackwell"))
    assert rep.method == "sequence-form-lp"
    assert rep.value == F(1, 2)
    assert rep.x.owner == 1 and rep.y.owner == 2
    assert rep.certified


def test_value_report_rejects_a_non_optimal_profile():
    # player 1 wins iff the stage-0 action is "a": the value is 1, and
    # uniform play leaves a best-response gap on one side or the other
    m = build_monitoring("blackwell", AB, 2)
    g = TruncatedGame(m, np.array([True, True, False, False]))
    x, y = BehavioralStrategy.uniform(1, m), BehavioralStrategy.uniform(2, m)
    for value, gaps in ((F(1), (0, F(1, 2))), (F(1, 2), (F(1, 2), 0))):
        rep = solver._with_certificate(g, value, x, y, "uniform")
        assert (rep.gap1, rep.gap2) == gaps
        assert not rep.certified


def test_best_response_breaks_ties_to_the_lowest_action():
    m = build_monitoring("perfect", AB, 3)
    for mask in (np.zeros(8, bool), np.ones(8, bool)):
        g = TruncatedGame(m, mask)
        for owner in (1, 2):
            _, br = best_response(g, BehavioralStrategy.uniform(owner, m))
            assert all(dist == (1, 0) for rows in br.tables.values() for dist in rows)


def test_sequence_program_payoff_counts():
    g = matching_game("blackwell")
    prog = SequenceFormProgram.build(g)
    assert sum(prog.payoff_counts.values()) == int(g.winning_mask.sum())
