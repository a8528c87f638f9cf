"""The auxiliary perfect-information stochastic game with Nature as delegate.

Instead of secretly acting, each player publicly announces a contingent
mixture (one grid distribution per atom of their current partition); Nature
samples the hidden actions and reveals each stage-m action at the stage
where the opponent would have observed it.  Actions never observed within
the horizon are revealed after the last move, before the payoff, which
leaves values unchanged.

Everything here runs in exact rational arithmetic.  The hidden play is
tracked by a forward filter: the conditional distribution over base-game
prefixes given the announcements and the revealed states.  Valuation is
backward induction over filter nodes with three exactness-preserving
economies:

* unnormalized filters are positively homogeneous, so nodes are memoized on
  the normalized filter;
* at the last stage the objective is linear per atom, so per-atom vertex
  choices are optimal;
* support histories that can never share a mover's atom under identical
  revelation streams belong to strategically independent components and are
  valued separately.

The brute-force path (``decompose=False``) skips all but the memoization and
is used to cross-validate the economies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Protocol, Sequence

import numpy as np

from .core import (
    FiniteHistory,
    MonitoringStructure,
    TruncatedGame,
    check_perfect_recall,
    digit_column,
    observation_stage,
)
from .errors import ConditioningError, SizeCapError
from .solver import ValueReport, sequence_form_value
from .strategy import (
    BehavioralStrategy,
    Number,
    SimplexGrid,
    build_simplex_grid,
    owned_stages,
)

Filter = dict[int, Fraction]


@dataclass(frozen=True)
class StateSchedule:
    """Revelation timetable: which stage announces each hidden action.

    ``k_of[m]`` is the interior stage revealing the stage-m action, or None
    when the action is only revealed terminally.  ``groups[n]`` lists the
    coordinates revealed at stage n; ``terminal`` the coordinates revealed
    after the last move.
    """

    horizon: int
    k_of: tuple[int | None, ...]
    groups: dict[int, tuple[int, ...]]
    terminal: tuple[int, ...]

    def __post_init__(self):
        covered = list(self.terminal)
        for n, coords in self.groups.items():
            for m in coords:
                if self.k_of[m] != n:
                    raise ValueError("groups inconsistent with k_of")
                if not (m < n and m % 2 != n % 2):
                    raise ValueError(f"revelation stage {n} invalid for coordinate {m}")
                covered.append(m)
        if sorted(covered) != list(range(self.horizon)):
            raise ValueError("revelation groups must partition the move stages")


def build_schedule(monitoring: MonitoringStructure) -> StateSchedule:
    """Minimal observation stages; unobserved actions go to the terminal group.

    An observation stage equal to the horizon is already past the last move,
    so it lands in the terminal group as well.
    """
    N = monitoring.horizon
    k_of: list[int | None] = []
    for m in range(N):
        n = observation_stage(monitoring, m)
        k_of.append(n if n is not None and n <= N - 1 else None)
    groups: dict[int, tuple[int, ...]] = {}
    for n in range(N):
        coords = tuple(m for m in range(N) if k_of[m] == n)
        if coords:
            groups[n] = coords
    terminal = tuple(m for m in range(N) if k_of[m] is None)
    return StateSchedule(N, tuple(k_of), groups, terminal)


def _coord_code(idx: int, length: int, k: int, coords: Sequence[int]) -> int:
    code = 0
    for c in coords:
        code = code * k + (idx // k ** (length - 1 - c)) % k
    return code


@dataclass(frozen=True)
class StateProjection:
    """Per-atom state reconstructions: the stage-k state as seen from a
    stage-n atom, well-defined thanks to perfect recall."""

    tables: dict[tuple[int, int], tuple[int, ...]]

    def state(self, n: int, k: int, atom_id: int) -> int:
        return self.tables[(n, k)][atom_id]


def _build_projection(monitoring: MonitoringStructure, schedule: StateSchedule) -> StateProjection:
    k = monitoring.num_actions
    tables: dict[tuple[int, int], tuple[int, ...]] = {}
    for n in range(monitoring.horizon):
        part = monitoring.partitions[n]
        for j in range(n + 1):
            codes = np.zeros(k**n, dtype=np.int64)
            for c in schedule.groups.get(j, ()):
                codes = codes * k + digit_column(n, k, c)
            if part.split_witness(codes) is not None:
                raise ValueError(
                    f"state projection ill-defined at stage {n} for revelation "
                    f"stage {j}; the partitions violate perfect recall"
                )
            tables[(n, j)] = tuple(codes[part.first_members].tolist())
    return StateProjection(tables)


@dataclass(frozen=True)
class Announcement:
    """A contingent mixture: per-atom distributions, optionally with a default.

    Only atoms that can matter (filter-reachable ones) need explicit entries;
    the default stands in for the rest, which never affect transitions or
    payoffs.
    """

    entries: tuple[tuple[int, tuple[Fraction, ...]], ...]
    default: tuple[Fraction, ...] | None = None

    def lookup(self, atom_id: int) -> tuple[Fraction, ...]:
        for a, dist in self.entries:
            if a == atom_id:
                return dist
        if self.default is None:
            raise KeyError(f"announcement has no entry for atom {atom_id}")
        return self.default


class AuxStrategy(Protocol):
    """Pure strategy of the auxiliary game: history of (states, announcements)
    in, announcement out."""

    def announce(self, aux: AuxGame, stage: int, states: tuple[int, ...],
                 actions: tuple[Announcement, ...]) -> Announcement: ...


@dataclass(frozen=True)
class ConstantAuxStrategy:
    """Announces a fixed stage-indexed mixture at every atom, whatever happened."""

    dists: dict[int, tuple[Fraction, ...]]

    def announce(self, aux, stage, states, actions) -> Announcement:
        return Announcement((), self.dists[stage])


@dataclass(frozen=True)
class LiftedPlayer2:
    """The constant-announcement lift of a snapped behavioral strategy."""

    strategy: BehavioralStrategy

    def announce(self, aux, stage, states, actions) -> Announcement:
        rows = self.strategy.tables[stage]
        return Announcement(tuple((p, rows[p]) for p in range(len(rows))), None)


@dataclass(frozen=True)
class TreeAuxStrategy:
    """Announcements recorded on a reachable tree, with per-stage fallbacks."""

    choices: dict[tuple[int, tuple[int, ...], tuple[Announcement, ...]], Announcement]
    fallback: dict[int, Announcement]

    def announce(self, aux, stage, states, actions) -> Announcement:
        return self.choices.get((stage, states, actions), self.fallback[stage])


@dataclass(frozen=True)
class AuxGame:
    """The auxiliary game: base game, revelation schedule, and mixture grids."""

    game: TruncatedGame
    schedule: StateSchedule
    grids: dict[int, SimplexGrid]
    projection: StateProjection

    @property
    def horizon(self) -> int:
        return self.game.horizon

    @property
    def num_actions(self) -> int:
        return self.game.num_actions

    def reconstruct(self, states: Mapping[int, int], terminal_code: int) -> FiniteHistory:
        """Invert the per-stage projections back into the full history."""
        k = self.num_actions
        actions = [0] * self.horizon
        def fill(coords, code):
            for c in reversed(coords):
                code, actions[c] = divmod(code, k)
        for n, coords in self.schedule.groups.items():
            fill(coords, states[n])
        fill(self.schedule.terminal, terminal_code)
        return FiniteHistory(tuple(actions))


def build_aux_game(game: TruncatedGame, epsilon: Number,
                   grid_cap: int = 200_000) -> AuxGame:
    """Assemble schedule, grids, and projections.

    ``StateSchedule`` checks that the revelation groups and the terminal
    group partition the move stages, so ``AuxGame.reconstruct`` inverts the
    per-stage projections exactly (the tests carry that identity).
    """
    recall = check_perfect_recall(game.monitoring)
    if not recall.ok:
        raise ValueError(f"auxiliary game requires perfect recall; witness {recall.witness}")
    schedule = build_schedule(game.monitoring)
    grids = {n: build_simplex_grid(game.num_actions, epsilon, n, cap=grid_cap)
             for n in range(game.horizon)}
    projection = _build_projection(game.monitoring, schedule)
    return AuxGame(game, schedule, grids, projection)


@dataclass(frozen=True)
class AuxHistory:
    """A prefix of auxiliary play: announced states and announcements so far."""

    states: tuple[int, ...]
    actions: tuple[Announcement, ...]

    def __post_init__(self):
        if len(self.states) not in (len(self.actions), len(self.actions) + 1):
            raise ValueError("states must lead actions by zero or one stage")

    def filter(self, aux: AuxGame) -> Filter:
        """Conditional law of the hidden prefix given this auxiliary history."""
        filt: Filter = {0: Fraction(1)}
        for j, s in enumerate(self.states):
            filt = _condition(filt, j, s, aux)
            if j < len(self.actions):
                filt = _extend(filt, j, self.actions[j], aux)
        total = sum(filt.values())
        return {h: w / total for h, w in filt.items()}


def _condition(filt: Filter, stage: int, state_code: int, aux: AuxGame) -> Filter:
    coords = aux.schedule.groups.get(stage, ())
    if not coords:
        if state_code != 0:
            raise ConditioningError(f"stage {stage} has a trivial state space")
        return filt
    k = aux.num_actions
    out = {h: w for h, w in filt.items()
           if _coord_code(h, stage, k, coords) == state_code}
    if not out:
        raise ConditioningError(
            f"state {state_code} at stage {stage} has zero filter probability"
        )
    return out


def _extend(filt: Filter, stage: int, announcement: Announcement, aux: AuxGame) -> Filter:
    k = aux.num_actions
    atom_index = aux.game.monitoring.partitions[stage].atom_index
    out: Filter = {}
    for h, w in filt.items():
        dist = announcement.lookup(int(atom_index[h]))
        base = h * k
        for a in range(k):
            if dist[a] != 0:
                out[base + a] = w * dist[a]
    return out


def nature_transition(aux: AuxGame, history: AuxHistory) -> dict[int, Fraction]:
    """Law of the next state: forward-filter the hidden play and project.

    ``history`` must end on an announcement (states and actions of equal
    length n); the result is the conditional distribution of the stage-n
    state given everything announced so far.
    """
    n = len(history.actions)
    if len(history.states) != n:
        raise ValueError("transition is taken right after an announcement")
    filt: Filter = {0: Fraction(1)}
    for j in range(n):
        filt = _condition(filt, j, history.states[j], aux)
        filt = _extend(filt, j, history.actions[j], aux)
    total = sum(filt.values())
    if total == 0:
        raise ConditioningError("announced history has zero probability")
    coords = aux.schedule.groups.get(n, ())
    k = aux.num_actions
    dist: dict[int, Fraction] = {}
    for h, w in filt.items():
        code = _coord_code(h, n, k, coords)
        dist[code] = dist.get(code, Fraction(0)) + w / total
    return dist


def _split_by_state(filt: Filter, length: int, coords: tuple[int, ...],
                    k: int) -> dict[int, Filter]:
    if not coords:
        return {0: filt}
    out: dict[int, Filter] = {}
    for h, w in filt.items():
        code = _coord_code(h, length, k, coords)
        out.setdefault(code, {})[h] = w
    return out


@dataclass
class AuxValueStats:
    nodes: int = 0
    memo_hits: int = 0
    assignments: int = 0
    components: int = 0
    nodes_by_stage: dict = field(default_factory=dict)
    max_filter_support: int = 0


@dataclass(frozen=True)
class AuxValueReport:
    value: Fraction
    epsilon: Fraction
    stats: AuxValueStats = field(compare=False, default_factory=AuxValueStats)


class _AuxValuation:
    """Backward induction over filter nodes; see the module docstring."""

    def __init__(self, aux: AuxGame, decompose: bool, assignment_cap: int):
        self.aux = aux
        self.decompose = decompose
        self.cap = assignment_cap
        self.memo: dict = {}
        self.split_memo: dict = {}
        self.stats = AuxValueStats()
        self.k = aux.num_actions
        self.N = aux.horizon
        self.mask = aux.game.winning_mask
        self.atom_index = [aux.game.monitoring.partitions[n].atom_index
                           for n in range(self.N)]

    def run(self) -> Fraction:
        return self.node_value(0, {0: Fraction(1)})

    def node_value(self, n: int, filt: Filter) -> Fraction:
        if n == self.N:
            return sum((w for h, w in filt.items() if self.mask[h]), Fraction(0))
        if not self.decompose:
            return self.comp_value(n, filt)
        total = Fraction(0)
        for comp in self.components(n, tuple(sorted(filt))):
            sub = {h: filt[h] for h in comp}
            total += self.comp_value(n, sub)
        return total

    def comp_value(self, n: int, filt: Filter) -> Fraction:
        mass = sum(filt.values())
        norm = tuple((h, w / mass) for h, w in sorted(filt.items()))
        key = (n, norm)
        hit = self.memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit * mass
        self.stats.nodes += 1
        self.stats.nodes_by_stage[n] = self.stats.nodes_by_stage.get(n, 0) + 1
        self.stats.max_filter_support = max(self.stats.max_filter_support, len(filt))
        value = self._compute(n, dict(norm))
        self.memo[key] = value
        return value * mass

    def _compute(self, n: int, filt: Filter) -> Fraction:
        maximize = n % 2 == 0
        atom_index = self.atom_index[n]
        by_atom: dict[int, list[int]] = {}
        for h in sorted(filt):
            by_atom.setdefault(int(atom_index[h]), []).append(h)
        atoms = sorted(by_atom)

        if n == self.N - 1 and self.decompose:
            # Last move: the payoff is linear in each atom's mixture, so a
            # per-atom vertex (a grid member) is optimal and atoms decouple.
            total = Fraction(0)
            for p in atoms:
                best = None
                for a in range(self.k):
                    v = sum((filt[h] for h in by_atom[p] if self.mask[h * self.k + a]),
                            Fraction(0))
                    if best is None or (v > best if maximize else v < best):
                        best = v
                total += best
            return total

        grid = self.aux.grids[n].points
        if len(grid) ** len(atoms) > self.cap:
            raise SizeCapError(
                f"stage {n} needs {len(grid)}**{len(atoms)} joint announcements "
                f"(cap {self.cap}); stats so far: {self.stats}"
            )
        next_coords = self.aux.schedule.groups.get(n + 1, ())
        best = None
        for assignment in itertools.product(range(len(grid)), repeat=len(atoms)):
            self.stats.assignments += 1
            ann = Announcement(tuple((p, grid[i]) for p, i in zip(atoms, assignment)))
            ext = _extend(filt, n, ann, self.aux)
            v = Fraction(0)
            for sub in _split_by_state(ext, n + 1, next_coords, self.k).values():
                v += self.node_value(n + 1, sub)
            if best is None or (v > best if maximize else v < best):
                best = v
        return best

    def components(self, n: int, support: tuple[int, ...]) -> list[tuple[int, ...]]:
        key = (n, support)
        cached = self.split_memo.get(key)
        if cached is not None:
            return cached
        parent = {h: h for h in support}

        def find(h):
            while parent[h] != h:
                parent[h] = parent[parent[h]]
                h = parent[h]
            return h

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        atom_index = self.atom_index[n]
        by_atom: dict[int, list[int]] = {}
        for h in support:
            by_atom.setdefault(int(atom_index[h]), []).append(h)
        for members in by_atom.values():
            for h in members[1:]:
                union(members[0], h)
        roots = sorted({find(h) for h in support})
        for i, h in enumerate(roots):
            for h2 in roots[i + 1:]:
                if find(h) != find(h2) and self._co_occurs(n, h, h2):
                    union(h, h2)
        groups: dict[int, list[int]] = {}
        for h in support:
            groups.setdefault(find(h), []).append(h)
        comps = [tuple(sorted(v)) for _, v in sorted(groups.items())]
        self.stats.components += len(comps)
        self.split_memo[key] = comps
        return comps

    def _co_occurs(self, n: int, h: int, h2: int) -> bool:
        """Can extensions of h and h2 share a mover's atom at a later stage
        while Nature's revelations stay identical along the way?"""
        pairs = {(h, h2)}
        for j in range(n + 1, self.N):
            nxt = set()
            coords = self.aux.schedule.groups.get(j, ())
            for u, u2 in pairs:
                for a in range(self.k):
                    for a2 in range(self.k):
                        v, v2 = u * self.k + a, u2 * self.k + a2
                        if _coord_code(v, j, self.k, coords) == _coord_code(v2, j, self.k, coords):
                            nxt.add((v, v2))
            if not nxt:
                return False
            atom_index = self.atom_index[j]
            for v, v2 in nxt:
                if atom_index[v] == atom_index[v2]:
                    return True
            pairs = nxt
        return False


def aux_value(aux: AuxGame, *, decompose: bool = True,
              assignment_cap: int = 500_000) -> AuxValueReport:
    """Exact value of the auxiliary game by backward induction."""
    valuation = _AuxValuation(aux, decompose, assignment_cap)
    value = valuation.run()
    eps = next(iter(aux.grids.values())).epsilon if aux.grids else Fraction(0)
    return AuxValueReport(value, eps, valuation.stats)


def aux_payoff(aux: AuxGame, x_star: AuxStrategy, y_star: AuxStrategy) -> Fraction:
    """Expected payoff of a pure auxiliary strategy pair, by exact enumeration."""

    def walk(n: int, filt: Filter, states: tuple[int, ...],
             actions: tuple[Announcement, ...]) -> Fraction:
        if n == aux.horizon:
            return sum((w for h, w in filt.items() if aux.game.winning_mask[h]),
                       Fraction(0))
        coords = aux.schedule.groups.get(n, ())
        total = Fraction(0)
        for code, sub in sorted(_split_by_state(filt, n, coords, aux.num_actions).items()):
            here = states + (code,)
            mover = x_star if n % 2 == 0 else y_star
            ann = mover.announce(aux, n, here, actions)
            total += walk(n + 1, _extend(sub, n, ann, aux), here, actions + (ann,))
        return total

    return walk(0, {0: Fraction(1)}, (), ())


def aux_best_response(aux: AuxGame, y_star: AuxStrategy,
                      assignment_cap: int = 500_000) -> tuple[Fraction, TreeAuxStrategy]:
    """Player 1's exact best response against a fixed auxiliary strategy.

    Walks the reachable auxiliary tree (no filter merging, so announcements
    can be recorded per history) and optimizes player 1's joint per-atom
    announcements; player 2's moves come from ``y_star``.
    """
    k = aux.num_actions
    choices: dict = {}

    def walk(n: int, filt: Filter, states: tuple[int, ...],
             actions: tuple[Announcement, ...]) -> Fraction:
        if n == aux.horizon:
            return sum((w for h, w in filt.items() if aux.game.winning_mask[h]),
                       Fraction(0))
        coords = aux.schedule.groups.get(n, ())
        total = Fraction(0)
        for code, sub in sorted(_split_by_state(filt, n, coords, k).items()):
            here = states + (code,)
            if n % 2 == 1:
                ann = y_star.announce(aux, n, here, actions)
                total += walk(n + 1, _extend(sub, n, ann, aux), here, actions + (ann,))
                continue
            atom_index = aux.game.monitoring.partitions[n].atom_index
            atoms = sorted({int(atom_index[h]) for h in sub})
            grid = aux.grids[n].points
            if len(grid) ** len(atoms) > assignment_cap:
                raise SizeCapError(f"stage {n}: announcement space exceeds cap")
            best = None
            best_ann = None
            for assignment in itertools.product(range(len(grid)), repeat=len(atoms)):
                ann = Announcement(tuple((p, grid[i]) for p, i in zip(atoms, assignment)),
                                   grid[0])
                v = walk(n + 1, _extend(sub, n, ann, aux), here, actions + (ann,))
                if best is None or v > best:
                    best, best_ann = v, ann
            choices[(n, here, actions)] = best_ann
            total += best
        return total

    value = walk(0, {0: Fraction(1)}, (), ())
    fallback = {n: Announcement((), aux.grids[n].points[0])
                for n in range(aux.horizon)}
    return value, TreeAuxStrategy(choices, fallback)


def lift_player2(y_snapped: BehavioralStrategy, aux: AuxGame) -> LiftedPlayer2:
    """Constant-announcement auxiliary strategy from an on-grid strategy."""
    if y_snapped.owner != 2:
        raise ValueError("lift applies to player 2 strategies")
    y_snapped.validate_for(aux.game.monitoring)
    for n in y_snapped.stages():
        grid = aux.grids[n]
        for p, dist in enumerate(y_snapped.tables[n]):
            if grid.index(dist) is None:
                raise ValueError(
                    f"stage {n}, atom {p}: distribution {dist} is off-grid"
                )
    return LiftedPlayer2(y_snapped)


def project_player1(x_star: AuxStrategy, aux: AuxGame,
                    y_snapped: BehavioralStrategy) -> BehavioralStrategy:
    """Base-game strategy read off a pure auxiliary strategy.

    For each atom, the auxiliary history is reconstructed from the atom's
    projected states, player 2's announcements fixed to the lifted strategy,
    and player 1's announcements replayed through ``x_star``; the atom's
    prescription is the announcement evaluated there.
    """
    monitoring = aux.game.monitoring
    lifted = LiftedPlayer2(y_snapped)
    tables = {}
    for n in owned_stages(1, aux.horizon):
        rows = []
        for p in range(monitoring.partitions[n].num_atoms):
            states = tuple(aux.projection.state(n, j, p) for j in range(n + 1))
            actions: tuple[Announcement, ...] = ()
            for j in range(n):
                mover = x_star if j % 2 == 0 else lifted
                actions = actions + (mover.announce(aux, j, states[: j + 1], actions),)
            ann = x_star.announce(aux, n, states, actions)
            rows.append(ann.lookup(p))
        tables[n] = tuple(rows)
    return BehavioralStrategy.from_rows(1, monitoring, tables)


@dataclass(frozen=True)
class SandwichReport:
    """Comparison of the base value with the auxiliary value at one grid scale."""

    value: Fraction
    aux_val: Fraction
    epsilon: Fraction
    base_report: ValueReport
    aux: AuxGame
    aux_report: AuxValueReport

    @property
    def upper_ok(self) -> bool:
        return self.aux_val - self.epsilon <= self.value

    @property
    def lower_ok(self) -> bool:
        return self.value - self.epsilon <= self.aux_val

    @property
    def ok(self) -> bool:
        return self.upper_ok and self.lower_ok


def compare_values(game: TruncatedGame, epsilon: Number, *,
                   assignment_cap: int = 500_000) -> SandwichReport:
    """Solve the game both ways and check the two one-sided epsilon bounds."""
    eps = Fraction(epsilon)
    base = sequence_form_value(game)
    aux = build_aux_game(game, eps)
    report = aux_value(aux, assignment_cap=assignment_cap)
    return SandwichReport(base.value, report.value, eps, base, aux, report)
