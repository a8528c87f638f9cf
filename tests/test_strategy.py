from fractions import Fraction as F

import numpy as np
import pytest
import scipy.stats

from epmgames import (
    ActionSet,
    SizeCapError,
    TruncatedGame,
    build_monitoring,
    build_simplex_grid,
    coupled_sample,
    coupled_sample_batch,
    grids_for,
    payoff,
    play_distribution,
    snap_strategy,
    strategy_distance,
)
from epmgames.strategy import BehavioralStrategy, _stacked_dists, nearest_grid_point
from tests.conftest import matching_game

AB = ActionSet(("a", "b"))


def test_play_distribution_point_mass(ab):
    m = build_monitoring("perfect", ab, 3)
    g = TruncatedGame(m, np.zeros(8, dtype=bool))
    x = BehavioralStrategy.pure(1, m, lambda n, p: 1)
    y = BehavioralStrategy.pure(2, m, lambda n, p: 0)
    law = play_distribution(x, y, g)
    assert law.prob(ab.history_from_labels("bab")) == 1
    assert sum(1 for p in law.probs if p != 0) == 1


def test_play_distribution_uniform_product(ab):
    g = matching_game("blackwell")
    x = BehavioralStrategy.uniform(1, g.monitoring)
    y = BehavioralStrategy.uniform(2, g.monitoring)
    law = play_distribution(x, y, g)
    assert all(p == F(1, 4) for p in law.probs)


def test_play_distribution_copy_example(ab):
    m = build_monitoring("perfect", ab, 2)
    g = TruncatedGame(m, np.array([1, 0, 0, 1], dtype=bool))
    x = BehavioralStrategy.from_rows(1, m, {0: [[F(2, 3), F(1, 3)]]})
    y = BehavioralStrategy.pure(2, m, lambda n, p: p)  # stage-1 atoms in lex order = a_0
    law = play_distribution(x, y, g)
    assert law.prob(ab.history_from_labels("aa")) == F(2, 3)
    assert law.prob(ab.history_from_labels("bb")) == F(1, 3)
    assert payoff(x, y, g) == 1


def test_play_distribution_sums_to_one_exactly():
    rng = np.random.default_rng(0)
    for kind in ("perfect", "blackwell", "none"):
        g = matching_game(kind, horizon=4)
        x = BehavioralStrategy.random_rational(1, g.monitoring, rng)
        y = BehavioralStrategy.random_rational(2, g.monitoring, rng)
        assert play_distribution(x, y, g).total() == 1


def test_payoff_edges():
    g = matching_game("blackwell")
    x = BehavioralStrategy.uniform(1, g.monitoring)
    y = BehavioralStrategy.uniform(2, g.monitoring)
    assert payoff(x, y, g) == F(1, 2)
    full = TruncatedGame(g.monitoring, np.ones(4, dtype=bool))
    assert payoff(x, y, full) == 1


def test_strategy_validation(ab):
    m = build_monitoring("blackwell", ab, 2)
    with pytest.raises(ValueError):
        BehavioralStrategy(1, 2, 2, {0: ((F(1, 2), F(1, 3)),)})  # bad sum
    with pytest.raises(ValueError):
        BehavioralStrategy(1, 2, 2, {1: ((F(1), F(0)),)})  # wrong stages
    with pytest.raises(ValueError):
        BehavioralStrategy.from_rows(1, m, {0: [[F(1), F(0)], [F(1), F(0)]]})  # atom count


def test_strategy_distance_examples(ab):
    m = build_monitoring("perfect", ab, 4)
    s = BehavioralStrategy.pure(1, m, lambda n, p: 0)
    assert strategy_distance(s, s) == 0

    t = BehavioralStrategy.from_rows(1, m, {
        0: [[F(0), F(1)]],
        2: s.tables[2],
    })
    assert strategy_distance(s, t) == 2

    u_rows = {0: [[F(1, 2), F(1, 2)]],
              2: [[F(3, 4), F(1, 4)]] + [list(d) for d in s.tables[2][1:]]}
    u = BehavioralStrategy.from_rows(1, m, u_rows)
    assert strategy_distance(s, u) == F(3, 2)

    y = BehavioralStrategy.uniform(2, m)
    with pytest.raises(ValueError):
        strategy_distance(s, y)


def test_grid_examples():
    g = build_simplex_grid(2, 2, 0)
    assert g.resolution == 1
    assert g.points == ((F(0), F(1)), (F(1), F(0)))
    assert g.radius == 2

    g = build_simplex_grid(2, F(1, 2), 1)
    assert g.resolution == 8 and len(g.points) == 9 and g.radius == F(1, 4)

    g = build_simplex_grid(3, 1, 0)
    assert g.resolution == 4 and len(g.points) == 15

    with pytest.raises(SizeCapError):
        build_simplex_grid(3, F(1, 1000), 4)
    with pytest.raises(ValueError):
        build_simplex_grid(2, 0, 0)


@pytest.mark.parametrize("k,eps,stage", [(2, 2, 0), (2, F(1, 2), 1), (3, 1, 0), (3, F(1, 2), 2)])
def test_grid_covering_by_probes(k, eps, stage):
    grid = build_simplex_grid(k, eps, stage)
    pts = np.array([[float(q) for q in pt] for pt in grid.points])
    rng = np.random.default_rng(1)
    probes = rng.dirichlet(np.ones(k), size=2000)
    nearest = np.abs(probes[:, None, :] - pts[None, :, :]).sum(axis=2).min(axis=1)
    assert nearest.max() <= float(grid.radius) + 1e-9
    # exact check at a worst-style interior point
    mid = tuple(F(1, k) for _ in range(k))
    _, _, d = nearest_grid_point(grid, mid)
    assert d <= grid.radius


@pytest.mark.parametrize("eps,stage", [(2, 0), (1, 1), (F(1, 2), 0)])
def test_grid_covering_deterministic_two_actions(eps, stage):
    # on a line the farthest points from the 1/K lattice are the cell
    # centers; checking all of them exactly settles the covering claim
    grid = build_simplex_grid(2, eps, stage)
    K = grid.resolution
    for i in range(K):
        center = (F(2 * i + 1, 2 * K), 1 - F(2 * i + 1, 2 * K))
        _, _, d = nearest_grid_point(grid, center)
        assert d == F(1, K)
        assert d <= grid.radius


def test_snap_examples(ab):
    m = build_monitoring("perfect", ab, 2)
    grid0 = build_simplex_grid(2, 2, 0)
    on_grid = BehavioralStrategy.from_rows(1, m, {0: [[F(1), F(0)]]})
    snapped = snap_strategy(on_grid, {0: grid0})
    assert strategy_distance(on_grid, snapped) == 0

    uniform = BehavioralStrategy.from_rows(1, m, {0: [[F(1, 2), F(1, 2)]]})
    snapped = snap_strategy(uniform, {0: grid0})
    # equidistant tie: lowest lexicographic grid index wins
    assert snapped.tables[0][0] == grid0.points[0]
    assert strategy_distance(uniform, snapped) == 1

    with pytest.raises(ValueError):
        snap_strategy(uniform, {})


def test_snap_metric_bounds():
    rng = np.random.default_rng(3)
    eps = F(1, 2)
    for kind in ("perfect", "blackwell"):
        m = build_monitoring(kind, AB, 4)
        g = TruncatedGame(m, np.zeros(16, dtype=bool))
        grids = grids_for(g, eps)
        for owner in (1, 2):
            s = BehavioralStrategy.random_rational(owner, m, rng, denominator=97)
            snapped = snap_strategy(s, grids)
            for n in s.stages():
                worst = max(sum(abs(a - b) for a, b in zip(p, q))
                            for p, q in zip(s.tables[n], snapped.tables[n]))
                assert worst <= eps / 2**n
            assert strategy_distance(s, snapped) < eps


def test_nearest_grid_point_tie_break():
    grid = build_simplex_grid(2, 2, 0)
    idx, pt, d = nearest_grid_point(grid, (F(1, 2), F(1, 2)))
    assert idx == 0 and pt == grid.points[0] and d == 1


def test_coupled_sample_identical_profiles():
    g = matching_game("blackwell", horizon=4)
    rng = np.random.default_rng(5)
    x = BehavioralStrategy.random_rational(1, g.monitoring, rng)
    y = BehavioralStrategy.random_rational(2, g.monitoring, rng)
    for seed in range(20):
        pair = coupled_sample(g, x, y, x, y, seed)
        assert pair.first_divergence is None
        assert pair.alpha == pair.alpha_prime


def test_coupled_sample_disjoint_supports():
    g = matching_game("blackwell", horizon=2)
    m = g.monitoring
    x = BehavioralStrategy.pure(1, m, lambda n, p: 0)
    x2 = BehavioralStrategy.pure(1, m, lambda n, p: 1)
    y = BehavioralStrategy.uniform(2, m)
    for seed in range(20):
        pair = coupled_sample(g, x, y, x2, y, seed)
        assert pair.first_divergence == 0


def test_coupling_inequality_exact_on_random_profiles():
    rng = np.random.default_rng(9)
    checked = 0
    for trial in range(200):
        horizon = int(rng.integers(1, 7))
        kind = ("perfect", "blackwell", "none")[trial % 3]
        m = build_monitoring(kind, AB, horizon)
        g = TruncatedGame(m, rng.random(2**horizon) < rng.random())
        x, x2 = (BehavioralStrategy.random_rational(1, m, rng) for _ in range(2))
        y, y2 = (BehavioralStrategy.random_rational(2, m, rng) for _ in range(2))
        gap = abs(payoff(x, y, g) - payoff(x2, y2, g))
        bound = (strategy_distance(x, x2) + strategy_distance(y, y2)) / 2
        assert gap <= bound
        checked += 1
    assert checked == 200


def test_coupled_batch_marginals_chi2():
    # sampled plays must follow the exact play law (significance 1e-3)
    g = matching_game("blackwell", horizon=4)
    rng = np.random.default_rng(13)
    x = BehavioralStrategy.random_rational(1, g.monitoring, rng)
    y = BehavioralStrategy.random_rational(2, g.monitoring, rng)
    x2 = BehavioralStrategy.random_rational(1, g.monitoring, rng)
    y2 = BehavioralStrategy.random_rational(2, g.monitoring, rng)
    n = 100_000
    batch = coupled_sample_batch(g, x, y, x2, y2, n, seed=42)
    law = play_distribution(x, y, g)
    counts = np.bincount(batch.alpha_indices, minlength=16)
    expected = np.array([float(p) for p in law.probs]) * n
    keep = expected > 0
    assert counts[~keep].sum() == 0
    result = scipy.stats.chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
    assert result.pvalue > 1e-3

    law2 = play_distribution(x2, y2, g)
    counts2 = np.bincount(batch.alpha_prime_indices, minlength=16)
    expected2 = np.array([float(p) for p in law2.probs]) * n
    keep2 = expected2 > 0
    assert counts2[~keep2].sum() == 0
    result2 = scipy.stats.chisquare(counts2[keep2], expected2[keep2] * counts2[keep2].sum() / expected2[keep2].sum())
    assert result2.pvalue > 1e-3


def test_coupled_batch_divergence_and_payoff_gap():
    g = matching_game("delayed", horizon=4, d1=1, d2=1)
    rng = np.random.default_rng(21)
    x = BehavioralStrategy.random_rational(1, g.monitoring, rng)
    y = BehavioralStrategy.random_rational(2, g.monitoring, rng)
    x2 = BehavioralStrategy.random_rational(1, g.monitoring, rng)
    y2 = BehavioralStrategy.random_rational(2, g.monitoring, rng)
    n = 100_000
    batch = coupled_sample_batch(g, x, y, x2, y2, n, seed=3)
    bound = float((strategy_distance(x, x2) + strategy_distance(y, y2)) / 2)
    rate = batch.divergence_rate()
    sigma = max((rate * (1 - rate) / n) ** 0.5, n**-0.5)
    assert rate <= min(bound, 1.0) + 3 * sigma

    exact_gap = float(payoff(x, y, g) - payoff(x2, y2, g))
    w = g.winning_mask
    emp_gap = float(w[batch.alpha_indices].mean() - w[batch.alpha_prime_indices].mean())
    assert abs(emp_gap - exact_gap) <= 3 * (2 / n) ** 0.5 + 3 * sigma


def _exact_no_split_probability(g, x, y, x2, y2):
    """P(the coupled plays never split): over common prefixes h, the mass
    grows by min(p(a), q(a)) per stage, p and q the two profiles' laws at h."""
    k = g.num_actions
    mass = [F(1)]
    for n in range(g.horizon):
        atom_index = g.monitoring.partitions[n].atom_index
        table = (x if n % 2 == 0 else y).tables[n]
        table2 = (x2 if n % 2 == 0 else y2).tables[n]
        nxt = []
        for idx, w in enumerate(mass):
            p, q = table[atom_index[idx]], table2[atom_index[idx]]
            nxt.extend(w * min(p[a], q[a]) for a in range(k))
        mass = nxt
    return sum(mass)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind,kwargs", [("blackwell", {}), ("delayed", {"d1": 1, "d2": 1})])
def test_coupling_is_maximal_stage_by_stage(kind, kwargs, k):
    # the plays split with probability exactly 1 - P(no split), not just below the bound
    g = matching_game(kind, horizon=4, action_set=ActionSet(("r", "p", "s")[:k]), **kwargs)
    rng = np.random.default_rng(31 + k)
    x, x2 = (BehavioralStrategy.random_rational(1, g.monitoring, rng) for _ in range(2))
    y, y2 = (BehavioralStrategy.random_rational(2, g.monitoring, rng) for _ in range(2))
    exact = 1 - float(_exact_no_split_probability(g, x, y, x2, y2))
    n = 100_000
    batch = coupled_sample_batch(g, x, y, x2, y2, n, seed=7)
    sigma = (exact * (1 - exact) / n) ** 0.5
    assert abs(batch.divergence_rate() - exact) <= 3 * sigma

    for seed in range(10):
        single = coupled_sample(g, x, y, x2, y2, seed)
        one = coupled_sample_batch(g, x, y, x2, y2, 1, seed)
        assert single.alpha.index(k) == one.alpha_indices[0]
        assert single.alpha_prime.index(k) == one.alpha_prime_indices[0]
        split = single.first_divergence
        assert (split is None) == (one.divergence_stages[0] < 0)
        if split is None:
            assert single.alpha == single.alpha_prime
        else:
            assert single.alpha.prefix(split) == single.alpha_prime.prefix(split)
            assert single.alpha.actions[split] != single.alpha_prime.actions[split]


def test_stacked_dists_equal_float_conversion():
    # Fraction, int and float entries, including a Fraction whose terms overflow a double
    m = build_monitoring("perfect", AB, 3)
    g = TruncatedGame(m, np.zeros(8, dtype=bool))
    big = F(10**400 + 1, 3 * 10**400)
    x = BehavioralStrategy.from_rows(1, m, {
        0: [(F(1, 3), F(2, 3))],
        2: [(1, 0), (0.1, 0.9), (big, 1 - big), (0, 1)],
    })
    y = BehavioralStrategy.from_rows(2, m, {1: [(0.3, 0.7), (F(5, 11), F(6, 11))]})
    expect = [[float(p) for p in dist]
              for n in range(3) for dist in (x if n % 2 == 0 else y).tables[n]]
    got = _stacked_dists(g, x, y)
    assert got.shape == (2, 7)
    assert got.T.tolist() == expect
