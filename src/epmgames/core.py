"""Histories, information partitions, and monitoring structures.

A game is played over a finite action alphabet for a fixed number of stages.
Player 1 moves at even stages, player 2 at odd stages.  Before moving at
stage n, the mover observes only the atom of a stage-n partition that
contains the realized prefix of play.  The per-stage partitions form the
game's monitoring structure; this module builds the standard structures
(perfect, blackwell-style simultaneous play, fixed-delay, block revelation,
own-actions-only, custom), checks perfect recall and by-horizon monitoring,
and computes the stage at which an opponent first observes a given action.

Histories of length n are enumerated lexicographically by action index:
history (a_0, ..., a_{n-1}) has index sum(a_i * |A|**(n-1-i)).  All masks,
atom tables, and ids use this order.  A stage partition is one array,
``atom_index``, from history index to atom id; the checks are group-bys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeCapError

# Exhaustive pair/atom checks are only guaranteed at desk scale.
CHECK_MAX_HORIZON = 8
CHECK_MAX_ACTIONS = 3

# Builders refuse to materialize partitions over more histories than this.
BUILD_MAX_HISTORIES = 1 << 21


def history_index(actions: Sequence[int], num_actions: int) -> int:
    """Lexicographic index of an action sequence."""
    idx = 0
    for a in actions:
        idx = idx * num_actions + a
    return idx


def index_to_actions(idx: int, stage: int, num_actions: int) -> tuple[int, ...]:
    """Inverse of :func:`history_index` for a length-``stage`` history."""
    out = [0] * stage
    for i in range(stage - 1, -1, -1):
        idx, out[i] = divmod(idx, num_actions)
    return tuple(out)


def digit_column(stage: int, num_actions: int, coord: int) -> np.ndarray:
    """Action at position ``coord`` of every length-``stage`` history, by index."""
    return (np.arange(num_actions**stage) // num_actions ** (stage - 1 - coord)) % num_actions


def mover(stage: int) -> int:
    """Player on the move at a stage: 1 at even stages, 2 at odd."""
    return 1 if stage % 2 == 0 else 2


def opponent_of_stage(stage: int) -> int:
    """Player who should eventually observe the stage's action."""
    return 2 if stage % 2 == 0 else 1


@dataclass(frozen=True)
class ActionSet:
    """Ordered action alphabet; the order fixes history enumeration."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError("action set needs at least 2 actions")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("action labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def history_from_labels(self, word: Iterable[str]) -> FiniteHistory:
        return FiniteHistory(tuple(self.index(w) for w in word))


@dataclass(frozen=True)
class FiniteHistory:
    """A finite sequence of action indices."""

    actions: tuple[int, ...]

    @property
    def stage(self) -> int:
        return len(self.actions)

    def prefix(self, k: int) -> FiniteHistory:
        if k > self.stage:
            raise ValueError(f"prefix length {k} exceeds history length {self.stage}")
        return FiniteHistory(self.actions[:k])

    def index(self, num_actions: int) -> int:
        return history_index(self.actions, num_actions)

    def labels(self, action_set: ActionSet) -> str:
        return "".join(action_set.labels[a] for a in self.actions)


@dataclass(frozen=True, eq=False)
class StagePartition:
    """Partition of the length-``stage`` histories into observation atoms.

    The partition is one read-only int64 array: ``atom_index[i]`` is the
    atom id of history index i, and the ids are 0..num_atoms-1, each used.
    The rest is derived from it: ``first_members[j]`` is the lowest history
    index in atom j and ``atoms[j]`` lists atom j's history indices in
    increasing order.  A per-history value is constant on atoms iff it
    equals its value at each atom's first member (:meth:`split_witness`).
    """

    stage: int
    num_actions: int
    atom_index: np.ndarray = field(repr=False)
    num_atoms: int = field(init=False)

    def __post_init__(self):
        count = self.num_actions**self.stage
        index = np.asarray(self.atom_index)
        if index.shape != (count,):
            raise ValueError("atom_index length mismatch")
        if index.dtype.kind not in "iu":
            raise ValueError(f"stage {self.stage}: atom ids must be integers")
        index = np.array(index, dtype=np.int64)
        if index.min() < 0:
            raise ValueError(f"stage {self.stage}: negative atom id")
        used = np.bincount(index) > 0
        if not used.all():
            raise ValueError(f"stage {self.stage}: empty atom {int(np.argmin(used))}")
        index.flags.writeable = False
        object.__setattr__(self, "atom_index", index)
        object.__setattr__(self, "num_atoms", len(used))

    @cached_property
    def first_members(self) -> np.ndarray:
        """Lowest history index of each atom, by atom id."""
        return np.unique(self.atom_index, return_index=True)[1]

    @cached_property
    def atoms(self) -> tuple[tuple[int, ...], ...]:
        """History indices of each atom in increasing order, by atom id."""
        members = np.argsort(self.atom_index, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.atom_index)).tolist()
        return tuple(tuple(members[lo:hi]) for lo, hi in zip([0] + ends, ends))

    def split_witness(self, values: np.ndarray) -> tuple[int, int] | None:
        """First pair of histories in one atom on which ``values`` differ.

        ``values[h]`` is a value of history h.  Returns None when it is
        constant on every atom; otherwise the first member of the lowest atom
        on which it is not, and that atom's first member with another value.
        """
        split = np.flatnonzero(values != values[self.first_members[self.atom_index]])
        if not split.size:
            return None
        ids = self.atom_index[split]
        j = ids.min()
        return int(self.first_members[j]), int(split[np.argmax(ids == j)])

    @classmethod
    def from_visible_coords(cls, stage: int, num_actions: int, coords: Sequence[int]) -> StagePartition:
        """Histories are equivalent iff they agree on the visible coordinates.

        Atom ids follow the first occurrence of each atom in history order.
        """
        code = np.zeros(num_actions**stage, dtype=np.int64)
        for c in sorted(coords):
            code = code * num_actions + digit_column(stage, num_actions, c)
        _, first, labels = np.unique(code, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        return cls(stage, num_actions, rank[labels])

    @classmethod
    def from_atoms(cls, stage: int, num_actions: int, atoms: Sequence[Sequence[int]]) -> StagePartition:
        """Build from explicit atom membership lists; atom j gets id j.

        Entries must be ``int`` history indices (``bool`` is refused), and
        the lists must cover every history exactly once.
        """
        count = num_actions**stage
        flat = list(chain.from_iterable(atoms))
        if not set(map(type, flat)) <= {int}:
            raise ValueError(f"stage {stage}: atom entries must be integer history indices")
        try:
            members = np.array(flat, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"stage {stage}: history index out of range") from None
        repeated = np.ones(len(members), dtype=bool)
        repeated[np.unique(members, return_index=True)[1]] = False
        bad = np.flatnonzero(repeated | (members < 0) | (members >= count))
        if bad.size:
            h = int(members[bad[0]])
            if 0 <= h < count:
                raise ValueError(f"stage {stage}: overlapping atoms at history {h}")
            raise ValueError(f"stage {stage}: history index {h} out of range")
        if len(members) < count:
            missing = int(np.argmin(np.bincount(members, minlength=count)))
            raise ValueError(f"stage {stage}: history {missing} not covered by any atom")
        sizes = list(map(len, atoms))
        if 0 in sizes:
            raise ValueError(f"stage {stage}: empty atom {sizes.index(0)}")
        atom_index = np.empty(count, dtype=np.int64)
        atom_index[members] = np.repeat(np.arange(len(sizes)), sizes)
        return cls(stage, num_actions, atom_index)


def _coordinate_rule(kind: str, params: dict):
    """Visible-coordinate rule n -> sorted coords, for rule-based builders."""
    if kind == "perfect":
        return lambda n: tuple(range(n))
    if kind == "blackwell":
        return lambda n: tuple(range(n)) if n % 2 == 0 else tuple(range(n - 1))
    if kind == "delayed":
        d1, d2 = params["d1"], params["d2"]

        def rule(n):
            own = range(n % 2, n, 2)
            d_opp = d2 if n % 2 == 0 else d1
            opp = (m for m in range(1 - n % 2, n, 2) if m <= n - 1 - d_opp)
            return tuple(sorted(set(own) | set(opp)))

        return rule
    if kind == "block":
        sizes = list(params["sizes"])
        starts = [0]
        for s in sizes:
            starts.append(starts[-1] + s)

        def rule(n):
            # Completed blocks are public; within the current block only own
            # actions are known.
            begin = 0
            for s in starts[1:]:
                if s <= n:
                    begin = s
                else:
                    break
            public = range(begin)
            own = (m for m in range(n % 2, n, 2) if m >= begin)
            return tuple(sorted(set(public) | set(own)))

        return rule
    if kind == "none":
        return lambda n: tuple(range(n % 2, n, 2))
    raise ValueError(f"unknown monitoring kind {kind!r}")


@dataclass(frozen=True)
class MonitoringStructure:
    """Per-stage information partitions plus an optional terminal view.

    ``partitions[n]`` is what the mover at stage n observes, for the move
    stages 0..horizon-1.  ``terminal_partition`` (stage == horizon) is the
    corresponding view just after the last move; it exists for rule-based
    builders and is used only by the monitoring checks, never for play.
    """

    action_set: ActionSet
    horizon: int
    partitions: tuple[StagePartition, ...]
    provenance: str
    terminal_partition: StagePartition | None = None
    builder: dict | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if len(self.partitions) != self.horizon:
            raise ValueError("need one partition per move stage")
        for n, part in enumerate(self.partitions):
            if part.stage != n:
                raise ValueError(f"partition at position {n} has stage {part.stage}")
        if self.partitions[0].num_atoms != 1:
            raise ValueError("stage-0 partition must be the single empty history")
        if self.terminal_partition is not None and self.terminal_partition.stage != self.horizon:
            raise ValueError("terminal partition must sit at stage == horizon")

    @property
    def num_actions(self) -> int:
        return self.action_set.size

    def partition_at(self, n: int) -> StagePartition:
        """Partition at stage n, allowing n == horizon when a terminal view exists."""
        if n < self.horizon:
            return self.partitions[n]
        if n == self.horizon and self.terminal_partition is not None:
            return self.terminal_partition
        raise ValueError(f"no partition at stage {n}")


def build_monitoring(
    kind: str,
    action_set: ActionSet,
    horizon: int,
    *,
    d1: int = 0,
    d2: int = 0,
    sizes: Sequence[int] | None = None,
    atoms: Sequence[Sequence[Sequence[int]]] | None = None,
    terminal_atoms: Sequence[Sequence[int]] | None = None,
) -> MonitoringStructure:
    """Build the roughest monitoring structure matching a named rule.

    Kinds: ``perfect`` (mover sees all previous actions), ``blackwell``
    (simultaneous pairs: the odd-stage mover does not see the action just
    played), ``delayed`` (opponent actions visible after d1 / d2 stages),
    ``block`` (completed blocks are public), ``none`` (own actions only),
    and ``custom`` (explicit atom lists of history indices per stage).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    k = action_set.size
    if k**horizon > BUILD_MAX_HISTORIES:
        raise SizeCapError(f"|A|**horizon = {k}**{horizon} exceeds build cap")

    if kind == "custom":
        if atoms is None:
            raise ValueError("custom monitoring requires per-stage atom lists")
        if len(atoms) != horizon:
            raise ValueError(f"need {horizon} stage atom lists, got {len(atoms)}")
        partitions = tuple(
            StagePartition.from_atoms(n, k, stage_atoms) for n, stage_atoms in enumerate(atoms)
        )
        terminal = None
        if terminal_atoms is not None:
            terminal = StagePartition.from_atoms(horizon, k, terminal_atoms)
        return MonitoringStructure(action_set, horizon, partitions, "custom", terminal, None)

    params: dict = {}
    if kind == "delayed":
        if d1 < 0 or d2 < 0:
            raise ValueError("delays must be >= 0")
        params = {"d1": d1, "d2": d2}
        provenance = f"delayed({d1},{d2})"
    elif kind == "block":
        if sizes is None or not sizes:
            raise ValueError("block monitoring requires block sizes")
        if any(s < 1 for s in sizes):
            raise ValueError("block sizes must be >= 1")
        if sum(sizes) < horizon:
            raise ValueError("block sizes must sum to at least the horizon")
        params = {"sizes": tuple(sizes)}
        provenance = f"block({list(sizes)})"
    elif kind in ("perfect", "blackwell", "none"):
        provenance = kind
    else:
        raise ValueError(f"unknown monitoring kind {kind!r}")

    rule = _coordinate_rule(kind, params)
    partitions = tuple(
        StagePartition.from_visible_coords(n, k, rule(n)) for n in range(horizon)
    )
    # The terminal view exists whenever the rule extends to stage == horizon;
    # for "block" that needs the blocks to cover one stage past the last move.
    terminal = None
    if kind != "block" or sum(params["sizes"]) >= horizon:
        terminal = StagePartition.from_visible_coords(horizon, k, rule(horizon))
    spec = {"kind": kind, **params}
    return MonitoringStructure(action_set, horizon, partitions, provenance, terminal, spec)


def atom_of(partition: StagePartition, h: FiniteHistory) -> int:
    """Atom id of a history under a stage partition."""
    if h.stage != partition.stage:
        raise ValueError(f"history has length {h.stage}, partition is for stage {partition.stage}")
    return int(partition.atom_index[h.index(partition.num_actions)])


@dataclass(frozen=True)
class PerfectRecallReport:
    ok: bool
    witness: tuple[int, FiniteHistory, FiniteHistory] | None = None
    condition: int | None = None


def _check_size_guard(m: MonitoringStructure):
    if m.horizon > CHECK_MAX_HORIZON or m.num_actions > CHECK_MAX_ACTIONS:
        raise SizeCapError(
            f"exhaustive checks support horizon <= {CHECK_MAX_HORIZON} and "
            f"|A| <= {CHECK_MAX_ACTIONS}; got horizon={m.horizon}, |A|={m.num_actions}"
        )


def check_perfect_recall(m: MonitoringStructure) -> PerfectRecallReport:
    """Exhaustively verify that the partitions never discard information.

    Condition 1: histories sharing a stage-n atom agree on the mover's own
    action two stages back.  Condition 2: sharing a stage-(n+2) atom implies
    sharing the stage-n atom.  On failure the first witness pair is returned.
    """
    _check_size_guard(m)
    k = m.num_actions

    def fail(n: int, pair: tuple[int, int], condition: int) -> PerfectRecallReport:
        u, v = (FiniteHistory(index_to_actions(h, n, k)) for h in pair)
        return PerfectRecallReport(False, (n, u, v), condition=condition)

    for n in range(2, m.horizon):
        pair = m.partitions[n].split_witness(digit_column(n, k, n - 2))
        if pair is not None:
            return fail(n, pair, 1)
    for n in range(m.horizon - 2):
        parents = m.partitions[n].atom_index[np.arange(k ** (n + 2)) // (k * k)]
        pair = m.partitions[n + 2].split_witness(parents)
        if pair is not None:
            return fail(n + 2, pair, 2)
    return PerfectRecallReport(True)


def observation_stage(m: MonitoringStructure, m0: int) -> int | None:
    """Minimal opposite-parity stage at which the opponent observes stage m0.

    Scans stages m0 < n <= horizon (the terminal view, when present, counts
    as stage == horizon) for the first whose partition determines the
    stage-m0 action; returns None when no such stage exists.  The
    observation-tree construction (:func:`observation_stage_via_tree`)
    computes the same stage another way and serves as the test oracle.
    """
    if m0 >= m.horizon:
        raise ValueError(f"stage {m0} is not a move stage (horizon {m.horizon})")
    cap = m.horizon if m.terminal_partition is not None else m.horizon - 1
    for n in range(m0 + 1, cap + 1, 2):
        if m.partition_at(n).split_witness(digit_column(n, m.num_actions, m0)) is None:
            return n
    return None


@dataclass(frozen=True)
class ObservationTree:
    """Histories at opponent-parity stages whose atom is still compatible with
    both a given stage-m action value and its complement.

    The tree is prefix-closed (a perfect-recall consequence); the target
    action is observed two stages past the deepest level.
    """

    target_stage: int
    target_action: int
    levels: dict[int, tuple[int, ...]]

    def first_empty_level(self) -> int | None:
        for n in sorted(self.levels):
            if not self.levels[n]:
                return n
        return None


def build_observation_tree(m: MonitoringStructure, m0: int, action: int) -> ObservationTree:
    """Tree for one target action value at stage m0, scanned within horizon."""
    if m0 >= m.horizon:
        raise ValueError(f"stage {m0} is not a move stage (horizon {m.horizon})")
    k = m.num_actions
    cap = m.horizon if m.terminal_partition is not None else m.horizon - 1
    levels: dict[int, tuple[int, ...]] = {}
    start = (m0 + 1) % 2
    for n in range(start, cap + 1, 2):
        if n <= m0:
            # The atom's members extend freely past stage m0: always compatible.
            levels[n] = tuple(range(k**n))
            continue
        part = m.partition_at(n)
        digits = digit_column(n, k, m0)
        nodes = []
        for atom in part.atoms:
            vals = digits[list(atom)]
            if (vals == action).any() and (vals != action).any():
                nodes.extend(atom)
        levels[n] = tuple(sorted(nodes))
        if not nodes:
            break
    return ObservationTree(m0, action, levels)


def observation_stage_via_tree(m: MonitoringStructure, m0: int) -> int | None:
    """Observation stage computed from the per-action trees (max depth + 2)."""
    cap = m.horizon if m.terminal_partition is not None else m.horizon - 1
    candidate = None
    for a in range(m.num_actions):
        tree = build_observation_tree(m, m0, a)
        empty = tree.first_empty_level()
        if empty is None:
            return None  # some tree fills every available level
        candidate = empty if candidate is None else max(candidate, empty)
    if candidate is None or candidate > cap:
        return None
    return candidate


def _extended_observation_stage(m: MonitoringStructure, m0: int) -> int | None:
    """Observation stage on the builder's infinite extension, past the horizon.

    Only rule-based builders extend; for them visibility is coordinate-wise,
    so the check is pure arithmetic.  Returns None for 'none' monitoring and
    for custom structures (no extension rule exists).
    """
    if m.builder is None or m.builder["kind"] == "none":
        return None
    kind = m.builder["kind"]
    params = {key: val for key, val in m.builder.items() if key != "kind"}
    if kind == "block":
        sizes = list(params["sizes"])
        # Extend with copies of the final block so every stage has a block.
        bound = sum(sizes) + 2 * sizes[-1] + 4
        while sum(sizes) < bound:
            sizes.append(sizes[-1])
        params = {"sizes": tuple(sizes)}
        limit = bound
    elif kind == "delayed":
        limit = m.horizon + params["d1"] + params["d2"] + 4
    else:
        limit = m.horizon + 4
    rule = _coordinate_rule(kind, params)
    for n in range(m0 + 1, limit + 1):
        if n % 2 != m0 % 2 and m0 in rule(n):
            return n
    return None


@dataclass(frozen=True)
class EpmReport:
    """Result of the by-horizon monitoring check.

    ``failures`` lists (stage, observer player) pairs whose action is never
    observed within the horizon; ``terminal`` lists stages excused under
    terminal revelation because the builder's extension observes them at the
    recorded later stage.
    """

    ok: bool
    failures: tuple[tuple[int, int], ...]
    terminal: tuple[tuple[int, int], ...] = ()


def check_epm(m: MonitoringStructure, *, terminal_revelation: bool = False) -> EpmReport:
    """Check that every action is observed by the opposite player in time.

    The by-horizon reading: for every move stage m there must be a stage
    n <= horizon at which the opposite-parity player's partition determines
    the stage-m action.  With ``terminal_revelation`` enabled, actions that
    the builder's infinite extension observes just past the horizon are
    reported as terminally revealed instead of failing; structures in which
    an opponent action is never observed at all still fail.
    """
    _check_size_guard(m)
    failures = []
    terminal = []
    for m0 in range(m.horizon):
        if observation_stage(m, m0) is not None:
            continue
        if terminal_revelation:
            ext = _extended_observation_stage(m, m0)
            if ext is not None:
                terminal.append((m0, ext))
                continue
        failures.append((m0, opponent_of_stage(m0)))
    return EpmReport(not failures, tuple(failures), tuple(terminal))


@dataclass(frozen=True)
class TruncatedGame:
    """A monitoring structure plus the winning mask over full-length histories.

    ``winning_mask[i]`` is True when player 1 wins on the history with
    lexicographic index i.
    """

    monitoring: MonitoringStructure
    winning_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = self.monitoring.num_actions**self.monitoring.horizon
        mask = np.asarray(self.winning_mask, dtype=bool)
        if mask.shape != (expected,):
            raise ValueError(f"winning mask must have length {expected}")
        object.__setattr__(self, "winning_mask", mask)

    @property
    def horizon(self) -> int:
        return self.monitoring.horizon

    @property
    def num_actions(self) -> int:
        return self.monitoring.num_actions

    @property
    def action_set(self) -> ActionSet:
        return self.monitoring.action_set

    def wins(self, h: FiniteHistory) -> bool:
        if h.stage != self.horizon:
            raise ValueError("winning set is defined over full-length histories")
        return bool(self.winning_mask[h.index(self.num_actions)])


def mask_from_histories(game_horizon: int, action_set: ActionSet, words: Iterable[str]) -> np.ndarray:
    """Winning mask from explicit history strings over the action labels."""
    k = action_set.size
    mask = np.zeros(k**game_horizon, dtype=bool)
    for word in words:
        if len(word) != game_horizon:
            raise ValueError(f"history {word!r} does not have length {game_horizon}")
        mask[action_set.history_from_labels(word).index(k)] = True
    return mask
