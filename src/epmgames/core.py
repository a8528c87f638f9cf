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
atom tables, and ids use this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def digit_matrix(stage: int, num_actions: int) -> np.ndarray:
    """(|A|**stage, stage) array: row i holds the actions of history i."""
    count = num_actions**stage
    cols = []
    for j in range(stage):
        cols.append((np.arange(count) // num_actions ** (stage - 1 - j)) % num_actions)
    if not cols:
        return np.zeros((1, 0), dtype=np.int64)
    return np.stack(cols, axis=1).astype(np.int64)


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


@dataclass(frozen=True)
class StagePartition:
    """Partition of the length-``stage`` histories into observation atoms.

    ``atom_index[i]`` is the atom id of history index i; ``atoms[j]`` lists
    the (sorted) history indices of atom j.
    """

    stage: int
    num_actions: int
    atoms: tuple[tuple[int, ...], ...]
    atom_index: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        count = self.num_actions**self.stage
        if len(self.atom_index) != count:
            raise ValueError("atom_index length mismatch")
        seen = np.zeros(count, dtype=bool)
        for j, atom in enumerate(self.atoms):
            if not atom:
                raise ValueError(f"stage {self.stage}: empty atom {j}")
            for idx in atom:
                if not (0 <= idx < count):
                    raise ValueError(f"stage {self.stage}: history index {idx} out of range")
                if seen[idx]:
                    raise ValueError(f"stage {self.stage}: history {idx} in two atoms")
                seen[idx] = True
                if self.atom_index[idx] != j:
                    raise ValueError("atom_index inconsistent with atoms")
        if not seen.all():
            raise ValueError(f"stage {self.stage}: atoms do not cover all histories")

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @classmethod
    def from_atom_ids(cls, stage: int, num_actions: int, ids: np.ndarray) -> StagePartition:
        """Build from an id per history, relabelling ids by first occurrence."""
        order = {}
        relabel = np.empty(len(ids), dtype=np.int64)
        for i, raw in enumerate(ids):
            raw = int(raw)
            if raw not in order:
                order[raw] = len(order)
            relabel[i] = order[raw]
        atoms = [[] for _ in range(len(order))]
        for i, j in enumerate(relabel):
            atoms[j].append(i)
        return cls(stage, num_actions, tuple(tuple(a) for a in atoms), relabel)

    @classmethod
    def from_visible_coords(cls, stage: int, num_actions: int, coords: Sequence[int]) -> StagePartition:
        """Histories are equivalent iff they agree on the visible coordinates."""
        digits = digit_matrix(stage, num_actions)
        ids = np.zeros(num_actions**stage, dtype=np.int64)
        for c in sorted(coords):
            ids = ids * num_actions + digits[:, c]
        return cls.from_atom_ids(stage, num_actions, ids)

    @classmethod
    def from_atoms(cls, stage: int, num_actions: int, atoms: Sequence[Sequence[int]]) -> StagePartition:
        """Build from explicit atom membership lists; validates the partition."""
        count = num_actions**stage
        atom_index = np.full(count, -1, dtype=np.int64)
        for j, atom in enumerate(atoms):
            for idx in atom:
                if not (0 <= idx < count):
                    raise ValueError(f"stage {stage}: history index {idx} out of range")
                if atom_index[idx] != -1:
                    raise ValueError(f"stage {stage}: overlapping atoms at history {idx}")
                atom_index[idx] = j
        if (atom_index == -1).any():
            missing = int(np.flatnonzero(atom_index == -1)[0])
            raise ValueError(f"stage {stage}: history {missing} not covered by any atom")
        return cls(stage, num_actions, tuple(tuple(sorted(a)) for a in atoms), atom_index)

    def atom_members(self, atom_id: int) -> tuple[int, ...]:
        return self.atoms[atom_id]


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
    for n in range(2, m.horizon):
        part = m.partitions[n]
        digits = digit_matrix(n, k)
        for atom in part.atoms:
            own = digits[list(atom), n - 2]
            if (own != own[0]).any():
                other = atom[int(np.flatnonzero(own != own[0])[0])]
                return PerfectRecallReport(
                    False,
                    (n, FiniteHistory(index_to_actions(atom[0], n, k)),
                     FiniteHistory(index_to_actions(other, n, k))),
                    condition=1,
                )
    for n in range(m.horizon - 2):
        part_hi = m.partitions[n + 2]
        part_lo = m.partitions[n]
        for atom in part_hi.atoms:
            idxs = np.asarray(atom)
            lo = part_lo.atom_index[idxs // (k * k)]
            if (lo != lo[0]).any():
                other = atom[int(np.flatnonzero(lo != lo[0])[0])]
                return PerfectRecallReport(
                    False,
                    (n + 2, FiniteHistory(index_to_actions(atom[0], n + 2, k)),
                     FiniteHistory(index_to_actions(other, n + 2, k))),
                    condition=2,
                )
    return PerfectRecallReport(True)


def _separates(partition: StagePartition, coord: int) -> bool:
    """Does every atom of the partition pin down the action at ``coord``?"""
    digits = digit_matrix(partition.stage, partition.num_actions)
    for atom in partition.atoms:
        vals = digits[list(atom), coord]
        if (vals != vals[0]).any():
            return False
    return True


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
    for n in range(m0 + 1, cap + 1):
        if n % 2 == m0 % 2:
            continue
        if _separates(m.partition_at(n), m0):
            return n
    return None


@dataclass(frozen=True)
class ObservationTree:
    """Histories at opponent-parity stages whose atom is still compatible with
    both a given stage-m action value and its complement.

    The tree is prefix-closed (a perfect-recall consequence); the target
    action is observed two stages past the deepest level, so the minimal
    observing stage is ``max_depth + 2``.
    """

    target_stage: int
    target_action: int
    levels: dict[int, tuple[int, ...]]

    @property
    def max_depth(self) -> int | None:
        populated = [n for n, nodes in self.levels.items() if nodes]
        return max(populated) if populated else None

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
        digits = digit_matrix(n, k)
        nodes = []
        for atom in part.atoms:
            vals = digits[list(atom), m0]
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
