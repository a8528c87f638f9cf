"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Everything runs in exact rational arithmetic; Monte Carlo enters only where a
criterion explicitly asks for sampled statistics.  Run with ``pytest -s`` to
see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from epmgames import (
    ActionSet,
    TruncatedGame,
    aux_best_response,
    aux_payoff,
    aux_value,
    best_response,
    brute_force_value,
    build_aux_game,
    build_monitoring,
    compare_values,
    coupled_sample_batch,
    grids_for,
    lift_player2,
    observation_stage,
    payoff,
    project_player1,
    prove_claim,
    scenario_suite,
    sequence_form_value,
    snap_strategy,
    strategy_distance,
)
from epmgames.core import observation_stage_via_tree
from epmgames.reduction import ConstantAuxStrategy
from epmgames.strategy import BehavioralStrategy, owned_stages
from tests.conftest import matching_game

AB = ActionSet(("a", "b"))
SUITE_BUILDERS = (("perfect", {}), ("blackwell", {}), ("delayed", {"d1": 1, "d2": 1}))


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{name}] FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[{name}] PASS ({elapsed:.1f}s < {budget_seconds:.0f}s budget)")
    assert elapsed < budget_seconds


def a1_suite(count: int = 102, seed: int = 2024):
    rng = np.random.default_rng(seed)
    games = []
    for trial in range(count):
        kind, kwargs = SUITE_BUILDERS[trial % 3]
        horizon = int(rng.integers(1, 5))
        m = build_monitoring(kind, AB, horizon, **kwargs)
        mask = rng.random(2**horizon) < rng.random()
        games.append(TruncatedGame(m, mask))
    return games


def test_a1_determinacy_and_oracle_equivalence():
    with criterion("A1", 120):
        games = a1_suite()
        assert len(games) >= 100
        for i, g in enumerate(games):
            rs = sequence_form_value(g)
            rb = brute_force_value(g)
            assert rs.value == rb.value, (i, rs.value, rb.value)
            assert rs.gap1 == 0 and rs.gap2 == 0, (i, rs.gap1, rs.gap2)
            assert rb.gap1 == 0 and rb.gap2 == 0, (i, rb.gap1, rb.gap2)


def test_a2_coupling_bound():
    with criterion("A2", 300):
        rng = np.random.default_rng(77)
        for trial in range(1000):
            horizon = int(rng.integers(1, 7))
            kind, kwargs = SUITE_BUILDERS[trial % 3]
            m = build_monitoring(kind, AB, horizon, **kwargs)
            g = TruncatedGame(m, rng.random(2**horizon) < rng.random())
            x, x2 = (BehavioralStrategy.random_rational(1, m, rng) for _ in range(2))
            y, y2 = (BehavioralStrategy.random_rational(2, m, rng) for _ in range(2))
            gap = abs(payoff(x, y, g) - payoff(x2, y2, g))
            bound = (strategy_distance(x, x2) + strategy_distance(y, y2)) / 2
            assert gap <= bound, trial
        # Monte Carlo: divergence rate within 3 sigma of the exact bound
        m = build_monitoring("blackwell", AB, 6)
        g = TruncatedGame(m, rng.random(64) < 0.5)
        x, x2 = (BehavioralStrategy.random_rational(1, m, rng) for _ in range(2))
        y, y2 = (BehavioralStrategy.random_rational(2, m, rng) for _ in range(2))
        n = 100_000
        batch = coupled_sample_batch(g, x, y, x2, y2, n, seed=12)
        bound = float((strategy_distance(x, x2) + strategy_distance(y, y2)) / 2)
        rate = batch.divergence_rate()
        sigma = max((rate * (1 - rate) / n) ** 0.5, n**-0.5)
        assert rate <= min(bound, 1.0) + 3 * sigma


def test_a3_epsilon_net_guarantee():
    with criterion("A3", 300):
        rng = np.random.default_rng(303)
        count = 0
        for trial in range(102):
            kind, kwargs = SUITE_BUILDERS[trial % 3]
            horizon = int(rng.integers(1, 5))
            m = build_monitoring(kind, AB, horizon, **kwargs)
            g = TruncatedGame(m, rng.random(2**horizon) < rng.random())
            rep = sequence_form_value(g)
            for eps in (F(1), F(1, 2), F(1, 4)):
                grids = {n: grid for n, grid in grids_for(g, eps).items()
                         if n in owned_stages(2, g.horizon)}
                y_snapped = snap_strategy(rep.y, grids)
                br_value, _ = best_response(g, y_snapped)
                assert br_value <= rep.value + eps, (trial, eps, br_value, rep.value)
            count += 1
        assert count >= 100


def test_a4_observation_stage_closed_forms():
    with criterion("A4", 120):
        perfect = build_monitoring("perfect", AB, 10)
        for m0 in range(9):
            assert observation_stage(perfect, m0) == m0 + 1
        # blackwell: even actions surface three stages later; odd actions at
        # the next even stage (the only opposite-parity stage consistent with
        # the simultaneous-play pattern)
        blackwell = build_monitoring("blackwell", AB, 12)
        for m0 in range(9):
            expect = m0 + 3 if m0 % 2 == 0 else m0 + 1
            assert observation_stage(blackwell, m0) == expect, m0
        for d1, d2 in ((0, 0), (1, 1), (1, 2), (2, 2)):
            delayed = build_monitoring("delayed", AB, 14, d1=d1, d2=d2)
            for m0 in range(9):
                d = d1 if m0 % 2 == 0 else d2
                expect = m0 + 1 + d
                if expect % 2 == m0 % 2:
                    expect += 1
                assert observation_stage(delayed, m0) == expect, (d1, d2, m0)
        # tree method agrees with the exhaustive scan everywhere
        for kind, kwargs in (("perfect", {}), ("blackwell", {}),
                             ("delayed", {"d1": 1, "d2": 1}),
                             ("delayed", {"d1": 2, "d2": 1}),
                             ("block", {"sizes": [2, 2, 2]}), ("none", {})):
            m = build_monitoring(kind, AB, 6, **kwargs)
            for m0 in range(6):
                assert observation_stage_via_tree(m, m0) == observation_stage(m, m0)


def test_a5_reduction_sandwich():
    with criterion("A5", 600):
        for i, g in enumerate(a1_suite()):
            for eps in (F(1), F(1, 2), F(1, 4)):
                rep = compare_values(g, eps)
                assert rep.upper_ok, (i, eps, rep.value, rep.aux_val)
                assert rep.lower_ok, (i, eps, rep.value, rep.aux_val)
        g = matching_game("blackwell")
        assert aux_value(build_aux_game(g, 1)).value == F(1, 2)
        assert aux_value(build_aux_game(g, 2)).value == 0


def test_a6_round_trip_payoff_identity():
    with criterion("A6", 300):
        rng = np.random.default_rng(606)
        for horizon in (1, 2, 3, 4):
            m = build_monitoring("blackwell", AB, horizon)
            masks = [rng.random(2**horizon) < rng.random() for _ in range(3)]
            masks += [np.zeros(2**horizon, bool), np.ones(2**horizon, bool)]
            for mask in masks:
                g = TruncatedGame(m, mask)
                aux = build_aux_game(g, 1)
                ytab = {n: [aux.grids[n].points[int(rng.integers(len(aux.grids[n].points)))]
                            for _ in range(m.partitions[n].num_atoms)]
                        for n in owned_stages(2, horizon)}
                y = BehavioralStrategy.from_rows(2, m, ytab)
                ystar = lift_player2(y, aux)
                xconst = ConstantAuxStrategy(
                    {n: aux.grids[n].points[int(rng.integers(len(aux.grids[n].points)))]
                     for n in range(0, horizon, 2)})
                vbr, xbr = aux_best_response(aux, ystar)
                for xstar in (xconst, xbr):
                    lhs = aux_payoff(aux, xstar, ystar)
                    x = project_player1(xstar, aux, y)
                    assert lhs == payoff(x, y, g)
                assert aux_payoff(aux, xbr, ystar) == vbr


def test_a7_stay_leave_values():
    with criterion("A7", 300):
        # Each claim holds against every opponent strategy: the opponent's
        # exact best responses on the claim's mask and on its complement
        # both equal the claimed value.
        cases = (
            # Example 1: the responder holds every bounded leaver to exactly 0
            ("example1", {"delay": 1, "leave_by": 2, "horizon": 6}, [0]),
            # Example 2: the two commitment bounds are hit exactly
            ("example2", {"horizon": 8, "leave_by": 2}, [0, 1]),
            # Example 3: mixing then mirroring earns exactly 1/2; waiting out
            # any window-bounded opponent wins
            ("example3", {"horizon": 8}, [F(1, 2), 1]),
        )
        for name, kwargs, values in cases:
            claims = scenario_suite(name, **kwargs)
            assert [c.expected for c in claims] == values, name
            for claim in claims:
                proof = prove_claim(claim)
                assert proof.opponent_min == proof.opponent_max == claim.expected, claim.name
                assert proof.holds, claim.name


def test_a8_kuhn_equivalence():
    with criterion("A8", 120):
        rng = np.random.default_rng(808)
        for trial in range(102):
            kind, kwargs = SUITE_BUILDERS[trial % 3]
            horizon = int(rng.integers(1, 5))
            m = build_monitoring(kind, AB, horizon, **kwargs)
            g = TruncatedGame(m, rng.random(2**horizon) < rng.random())
            mixed = brute_force_value(g)      # LP over mixed strategies
            behavioral = sequence_form_value(g)  # LP over realization plans
            assert mixed.value == behavioral.value, trial
