import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epmgames import (
    ActionSet,
    FiniteHistory,
    SizeCapError,
    atom_of,
    build_monitoring,
    build_observation_tree,
    check_epm,
    check_perfect_recall,
    observation_stage,
)
from epmgames.core import (
    digit_column,
    history_index,
    index_to_actions,
    observation_stage_via_tree,
)

SL = ActionSet(("S", "L"))
ALL_BUILDERS = (
    ("perfect", {}),
    ("blackwell", {}),
    ("delayed", {"d1": 1, "d2": 1}),
    ("delayed", {"d1": 2, "d2": 0}),
    ("block", {"sizes": [2, 2, 2]}),
    ("none", {}),
)


def test_history_roundtrip():
    for k in (2, 3):
        for n in range(5):
            for idx in range(k**n):
                acts = index_to_actions(idx, n, k)
                assert history_index(acts, k) == idx
    h = FiniteHistory((0, 1, 1))
    assert h.stage == 3
    assert h.prefix(2) == FiniteHistory((0, 1))
    with pytest.raises(ValueError):
        h.prefix(4)


def test_action_set_validation():
    with pytest.raises(ValueError):
        ActionSet(("a",))
    with pytest.raises(ValueError):
        ActionSet(("a", "a"))
    assert SL.index("L") == 1
    assert SL.history_from_labels("SL") == FiniteHistory((0, 1))


def test_perfect_builder_singletons():
    m = build_monitoring("perfect", SL, 2)
    assert m.partitions[1].num_atoms == 2
    assert all(len(a) == 1 for a in m.partitions[1].atoms)


def test_blackwell_stage1_single_atom():
    # simultaneous play: the odd mover has seen nothing at stage 1
    m = build_monitoring("blackwell", SL, 2)
    assert m.partitions[1].num_atoms == 1
    assert len(m.partitions[1].atoms[0]) == 2


def test_delayed_zero_equals_perfect():
    for N in (1, 2, 3, 5):
        d = build_monitoring("delayed", SL, N, d1=0, d2=0)
        p = build_monitoring("perfect", SL, N)
        for n in range(N):
            assert d.partitions[n].atoms == p.partitions[n].atoms


def test_blackwell_equals_delayed_1_0():
    for N in (2, 3, 4, 6):
        bw = build_monitoring("blackwell", SL, N)
        dl = build_monitoring("delayed", SL, N, d1=1, d2=0)
        for n in range(N):
            assert bw.partitions[n].atoms == dl.partitions[n].atoms


def test_atom_of_examples():
    perfect = build_monitoring("perfect", SL, 3)
    h = SL.history_from_labels("SL")
    aid = atom_of(perfect.partitions[2], h)
    assert perfect.partitions[2].atoms[aid] == (h.index(2),)

    bw = build_monitoring("blackwell", SL, 2)
    assert atom_of(bw.partitions[1], SL.history_from_labels("S")) == \
        atom_of(bw.partitions[1], SL.history_from_labels("L"))

    # one four-stage block: at stage 2 only the own stage-0 action is known
    blk = build_monitoring("block", SL, 3, sizes=[4])
    aid = atom_of(blk.partitions[2], h)
    members = {index_to_actions(i, 2, 2) for i in blk.partitions[2].atoms[aid]}
    assert members == {(0, 0), (0, 1)}

    with pytest.raises(ValueError):
        atom_of(perfect.partitions[2], SL.history_from_labels("S"))


@pytest.mark.parametrize("kind,kwargs", ALL_BUILDERS)
def test_partitions_cover_and_disjoint(kind, kwargs):
    m = build_monitoring(kind, SL, 5, **kwargs)
    parts = list(m.partitions) + ([m.terminal_partition] if m.terminal_partition else [])
    for part in parts:
        seen = sorted(i for atom in part.atoms for i in atom)
        assert seen == list(range(2**part.stage))


@pytest.mark.parametrize("kind,kwargs", ALL_BUILDERS)
def test_recall_refinement_property(kind, kwargs):
    # sharing a stage-(n+2) atom forces sharing the stage-n atom
    m = build_monitoring(kind, SL, 6, **kwargs)
    assert check_perfect_recall(m).ok
    for n in range(4):
        hi, lo = m.partitions[n + 2], m.partitions[n]
        for atom in hi.atoms:
            prefixes = {int(lo.atom_index[i // 4]) for i in atom}
            assert len(prefixes) == 1


def test_recall_violation_witness():
    # merge stage-2 atoms that differ in the mover's own stage-0 action
    atoms = [
        [[0]],
        [[0], [1]],
        [[0, 1, 2, 3]],
    ]
    m = build_monitoring("custom", SL, 3, atoms=atoms)
    report = check_perfect_recall(m)
    assert not report.ok
    n, u, v = report.witness
    assert n == 2 and report.condition == 1
    assert u.actions[0] != v.actions[0]


def test_recall_condition2_violation():
    # stage 2 refines stage 0 trivially; break forgetting between stages 1 and 3
    atoms = [
        [[0]],
        [[0], [1]],             # mover sees a_0
        [[0, 1], [2, 3]],       # knows own a_0
        [[0, 1, 2, 3], [4, 5, 6, 7]],  # forgets a_0, remembers only a_2... breaks cond 2
    ]
    m = build_monitoring("custom", SL, 4, atoms=atoms)
    report = check_perfect_recall(m)
    assert not report.ok
    assert report.condition in (1, 2)


def test_custom_partition_validation():
    with pytest.raises(ValueError):  # overlap
        build_monitoring("custom", SL, 2, atoms=[[[0]], [[0, 1], [1]]])
    with pytest.raises(ValueError):  # not covering
        build_monitoring("custom", SL, 2, atoms=[[[0]], [[0]]])
    for bad in (1.5, 1.0, True, "1", None):  # history indices are ints only
        with pytest.raises(ValueError, match="integer history indices"):
            build_monitoring("custom", SL, 2, atoms=[[[0]], [[0], [bad]]])


def test_observation_stage_examples():
    bw = build_monitoring("blackwell", SL, 6)
    assert observation_stage(bw, 0) == 3
    assert observation_stage(bw, 1) == 2
    perfect = build_monitoring("perfect", SL, 4)
    assert observation_stage(perfect, 0) == 1
    none = build_monitoring("none", SL, 6)
    for m0 in range(6):
        assert observation_stage(none, m0) is None


@pytest.mark.parametrize("kind,kwargs", ALL_BUILDERS)
@pytest.mark.parametrize("N", [2, 4, 6])
def test_tree_equals_scan(kind, kwargs, N):
    if kind == "block":
        kwargs = {"sizes": [2] * (N // 2 + 1)}
    m = build_monitoring(kind, SL, N, **kwargs)
    for m0 in range(N):
        assert observation_stage_via_tree(m, m0) == observation_stage(m, m0)


@st.composite
def delayed_and_block_structures(draw):
    """delayed(d1,d2) with d in 0..3, random block sizes, or a delayed
    structure respelled as custom atom lists; k in {2, 3}, H <= 7."""
    k = draw(st.sampled_from([2, 3]))
    horizon = draw(st.integers(1, 7))
    actions = ActionSet(("r", "p", "s")[:k])
    kind = draw(st.sampled_from(["delayed", "block", "custom"]))
    if kind == "block":
        sizes = []
        while sum(sizes) < horizon:
            sizes.append(draw(st.integers(1, 4)))
        return build_monitoring("block", actions, horizon, sizes=sizes)
    delayed = build_monitoring("delayed", actions, horizon,
                               d1=draw(st.integers(0, 3)), d2=draw(st.integers(0, 3)))
    if kind == "delayed":
        return delayed
    terminal = delayed.terminal_partition.atoms if draw(st.booleans()) else None
    return build_monitoring("custom", actions, horizon,
                            atoms=[p.atoms for p in delayed.partitions],
                            terminal_atoms=terminal)


@settings(max_examples=60, deadline=None)
@given(delayed_and_block_structures())
def test_tree_equals_scan_random_structures(m):
    for m0 in range(m.horizon):
        assert observation_stage_via_tree(m, m0) == observation_stage(m, m0)


def test_observation_tree_prefix_closed():
    m = build_monitoring("delayed", SL, 6, d1=2, d2=1)
    for m0 in range(6):
        for a in range(2):
            tree = build_observation_tree(m, m0, a)
            levels = sorted(tree.levels)
            for hi, lo in zip(levels[1:], levels):
                prefixes = {i // 4 for i in tree.levels[hi]}
                assert prefixes <= set(tree.levels[lo])


def test_delayed_closed_form():
    # smallest opposite-parity stage n > m with n - 1 - d_opp >= m
    for d1, d2 in ((0, 0), (1, 1), (2, 1), (0, 2), (2, 2)):
        N = 14
        m = build_monitoring("delayed", SL, N, d1=d1, d2=d2)
        for m0 in range(9):
            d = d1 if m0 % 2 == 0 else d2
            expect = m0 + 1 + d
            if expect % 2 == m0 % 2:
                expect += 1
            got = observation_stage(m, m0)
            assert got == expect, (d1, d2, m0, got, expect)


def test_epm_examples():
    assert check_epm(build_monitoring("perfect", SL, 4)).ok

    none = build_monitoring("none", SL, 6)
    report = check_epm(none)
    assert not report.ok
    assert [f[0] for f in report.failures] == list(range(6))
    assert report.failures[0][1] == 2 and report.failures[1][1] == 1
    # never observed at all: terminal revelation cannot excuse it
    assert not check_epm(none, terminal_revelation=True).ok

    bw = build_monitoring("blackwell", SL, 4)
    report = check_epm(bw)
    assert not report.ok
    assert report.failures == ((2, 2),)
    excused = check_epm(bw, terminal_revelation=True)
    assert excused.ok
    assert excused.terminal == ((2, 5),)


def test_epm_passes_standard_builders():
    assert check_epm(build_monitoring("perfect", SL, 5)).ok
    assert check_epm(build_monitoring("delayed", SL, 6, d1=0, d2=0)).ok
    for kind, kwargs in (("blackwell", {}), ("delayed", {"d1": 1, "d2": 1}),
                         ("block", {"sizes": [2, 2, 2, 2]})):
        m = build_monitoring(kind, SL, 6, **kwargs)
        assert check_epm(m, terminal_revelation=True).ok, kind


def test_check_size_guard():
    m = build_monitoring("perfect", SL, 9)
    with pytest.raises(SizeCapError):
        check_perfect_recall(m)
    with pytest.raises(SizeCapError):
        check_epm(m)


def test_block_terminal_boundary():
    # blocks summing exactly to the horizon: everything public at the terminal view
    m = build_monitoring("block", SL, 4, sizes=[2, 2])
    assert m.terminal_partition is not None
    assert m.terminal_partition.num_atoms == 16


def test_stage0_single_atom_enforced():
    for kind, kwargs in ALL_BUILDERS:
        m = build_monitoring(kind, SL, 3, **kwargs)
        assert m.partitions[0].num_atoms == 1


def test_digit_column():
    for k, n in ((2, 3), (3, 2)):
        for c in range(n):
            expect = [index_to_actions(h, n, k)[c] for h in range(k**n)]
            assert digit_column(n, k, c).tolist() == expect
    assert digit_column(3, 2, 0).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


# Per-atom oracles: the loops the group-by checks replaced, run on the raw
# atom lists so that they share nothing with StagePartition.


def _recall_oracle(k, stages):
    def atom_of_raw(n, h):
        return next(j for j, atom in enumerate(stages[n]) if h in atom)

    for n in range(2, len(stages)):
        for atom in map(sorted, stages[n]):
            own = [index_to_actions(h, n, k)[n - 2] for h in atom]
            for h, a in zip(atom, own):
                if a != own[0]:
                    return False, 1, (n, atom[0], h)
    for n in range(len(stages) - 2):
        for atom in map(sorted, stages[n + 2]):
            lo = [atom_of_raw(n, h // (k * k)) for h in atom]
            for h, j in zip(atom, lo):
                if j != lo[0]:
                    return False, 2, (n + 2, atom[0], h)
    return True, None, None


def _observation_stage_oracle(k, stages, m0):
    for n in range(m0 + 1, len(stages)):
        if n % 2 == m0 % 2:
            continue
        if all(len({index_to_actions(h, n, k)[m0] for h in atom}) == 1 for atom in stages[n]):
            return n
    return None


@st.composite
def custom_partitions(draw):
    """Custom atom lists: a delayed structure with some stages kept, two atoms
    merged, replaced by own actions only (forgetting the opponent's), or
    replaced by a random partition; atoms and their members are listed in a
    random order.  Returns (k, move-stage lists, terminal lists)."""
    k = draw(st.sampled_from([2, 3]))
    horizon = draw(st.integers(1, 5 if k == 2 else 4))
    actions = ActionSet(("r", "p", "s")[:k])
    base = build_monitoring("delayed", actions, horizon,
                            d1=draw(st.integers(0, 3)), d2=draw(st.integers(0, 3)))
    own_only = build_monitoring("none", actions, horizon)
    stages = []
    for n, part in enumerate(base.partitions + (base.terminal_partition,)):
        atoms = [list(atom) for atom in part.atoms]
        how = draw(st.sampled_from(["keep", "keep", "merge", "own", "random"])) if n else "keep"
        if how == "own":
            atoms = [list(atom) for atom in own_only.partition_at(n).atoms]
        elif how == "merge" and len(atoms) > 1:
            i, j = draw(st.lists(st.integers(0, len(atoms) - 1), min_size=2, max_size=2,
                                 unique=True))
            atoms[i] += atoms[j]
            del atoms[j]
        elif how == "random":
            labels = draw(st.lists(st.integers(0, 3), min_size=k**n, max_size=k**n))
            atoms = [[h for h in range(k**n) if labels[h] == v] for v in sorted(set(labels))]
        atoms = [draw(st.permutations(atom)) for atom in draw(st.permutations(atoms))]
        stages.append(atoms)
    terminal = stages.pop() if draw(st.booleans()) else None
    return k, stages[:horizon], terminal


@settings(max_examples=150, deadline=None)
@given(custom_partitions())
def test_group_by_checks_match_per_atom_oracles(case):
    k, stages, terminal = case
    horizon = len(stages)
    m = build_monitoring("custom", ActionSet(("r", "p", "s")[:k]), horizon,
                         atoms=stages, terminal_atoms=terminal)
    parts = m.partitions + ((m.terminal_partition,) if terminal is not None else ())
    raw = stages + ([terminal] if terminal is not None else [])
    for part, atoms in zip(parts, raw):
        assert part.atoms == tuple(tuple(sorted(atom)) for atom in atoms)
        assert json.loads(json.dumps(part.atoms)) == [sorted(atom) for atom in atoms]

    report = check_perfect_recall(m)
    ok, condition, witness = _recall_oracle(k, stages)
    assert (report.ok, report.condition) == (ok, condition)
    if not ok:
        n, u, v = witness
        assert report.witness == (n, FiniteHistory(index_to_actions(u, n, k)),
                                  FiniteHistory(index_to_actions(v, n, k)))
    for m0 in range(horizon):
        assert observation_stage(m, m0) == _observation_stage_oracle(k, raw, m0)
