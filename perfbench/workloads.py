"""Inputs, operations and output checks of the three benchmark workloads.

Every input is generated from the workload seed; the package receives only
the generated games and config files.  CLI operations call
``epmgames.cli.main(argv)`` in-process with stdout captured in memory (the
``--out`` temp-file write would dominate the small ops).

``solve``   sequence-form ladder of 9 game shapes, each solved on 2 random
            masks per pass, with new masks in each of the first ``MASK_SETS``
            passes; the exact LP is nearly all of the time.
``verify``  43 small CLI ops (12 check, 25 value, 6 reduce), dominated by the
            delegate-game valuation; many tiny and dense matrix-game LPs.
            The 25th value op is over the normal-form cap and is expected to
            fail until ``cmd_value`` handles the fictitious-play size cap.
``couple``  3 ``couple`` CLI ops: float Monte Carlo beside exact play laws,
            with the H=18 op building partitions over 2**18 histories.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

LABELS = "abc"
VALUE_MAX_ENTRIES = 10**5  # random value games stay well under the 10**6 cap
KINDS = ("perfect", "blackwell", "delayed", "block", "none")


@dataclass
class Op:
    kind: str  # solve | check | value | reduce | couple
    label: str
    call: Callable[[], tuple[int, object]]  # -> (exit code, raw output)
    check: Callable[[object], dict]  # raw output -> recorded values; raises on a wrong one


@dataclass
class OpResult:
    op: int
    kind: str
    label: str
    seconds: float
    code: int
    error: str | None = None
    wrong: bool = False  # the program reported or returned a wrong result
    values: dict = field(default_factory=dict)


class WrongOutput(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def run_cli(package, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = package.cli.main(argv)
    return code, out.getvalue()


def cli_op(package, kind: str, label: str, argv: list[str], check) -> Op:
    return Op(kind, label, lambda: run_cli(package, argv),
              lambda text: check(json.loads(text)["results"]))


def rat(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def random_mask(rng: np.random.Generator, k: int, horizon: int, density: float = 0.5):
    return rng.random(k**horizon) < density


def winning_set(mask: np.ndarray, k: int, horizon: int) -> dict:
    if k == 2:
        bits = sum(1 << int(i) for i in np.flatnonzero(mask))
        return {"kind": "bitmask_hex", "hex": format(bits, "x")}
    words = ["".join(LABELS[(int(i) // k**(horizon - 1 - s)) % k] for s in range(horizon))
             for i in np.flatnonzero(mask)]
    return {"kind": "histories", "histories": words}


def monitoring_spec(kind: str, horizon: int) -> dict:
    if kind == "delayed":
        return {"kind": "delayed", "d1": 1, "d2": 1}
    if kind == "block":
        return {"kind": "block", "sizes": [2] * ((horizon + 1) // 2)}
    return {"kind": kind}


def build_kwargs(spec: dict) -> dict:
    return {key: value for key, value in spec.items() if key != "kind"}


class ConfigWriter:
    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.count = 0

    def __call__(self, cfg: dict) -> str:
        path = self.directory / f"op{self.count:02d}.json"
        self.count += 1
        path.write_text(json.dumps(cfg))
        return str(path)


# -- solve ------------------------------------------------------------------

SOLVE_LADDER = (
    (2, "perfect", 6), (2, "blackwell", 6), (2, "delayed", 6), (2, "block", 6),
    (2, "none", 6), (2, "delayed", 7), (3, "blackwell", 4), (3, "block", 4),
    (3, "delayed", 4),
)
# The LP time of one game varies by 5-25% from mask to mask, so a pass solves
# many games of similar size, on 2 masks per shape, and the passes cycle
# through MASK_SETS sets of masks: the median pass then spreads little over
# seeds.  Larger games (blackwell at H=7, 3 actions at H=5) take 6-20 s each
# and would make one mask's cost most of a pass.
SOLVE_MASKS = 2
MASK_SETS = 4


def solve_ops(package, seed: int, workdir: Path) -> list[list[Op]]:
    games = []
    for k, kind, horizon in SOLVE_LADDER:
        spec = monitoring_spec(kind, horizon)
        games.append((f"{kind} k={k} H={horizon}", k, horizon, package.build_monitoring(
            kind, package.ActionSet(tuple(LABELS[:k])), horizon, **build_kwargs(spec))))
    op_sets = []
    for s in range(MASK_SETS):
        rng = np.random.default_rng([seed, 1, s])
        ops = []
        for label, k, horizon, monitoring in games * SOLVE_MASKS:
            game = package.TruncatedGame(monitoring, random_mask(rng, k, horizon))

            def check(report, game=game):
                # Both certificate gaps are recomputed here, outside the timed call.
                br1, _ = package.solver.best_response(game, report.y)
                br2, _ = package.solver.best_response(game, report.x)
                require(br1 - report.value == 0, "player-1 best-response gap is not 0")
                require(report.value - br2 == 0, "player-2 best-response gap is not 0")
                return {"value": rat(report.value)}

            ops.append(Op("solve", label,
                          lambda game=game: (0, package.sequence_form_value(game)), check))
        op_sets.append(ops)
    return op_sets


# -- verify -----------------------------------------------------------------

def expected_observation_stage(spec: dict, horizon: int, m0: int, cap: int):
    """Closed forms of the observation stage (as in acceptance criterion A4)."""
    kind = spec["kind"]
    if kind == "none":
        return None
    if kind == "perfect":
        n = m0 + 1
    elif kind == "blackwell":
        n = m0 + 3 if m0 % 2 == 0 else m0 + 1
    elif kind in ("delayed", "custom"):
        n = m0 + 1 + (spec["d1"] if m0 % 2 == 0 else spec["d2"])
        if n % 2 == m0 % 2:
            n += 1
    else:  # block: the action turns public when its block ends
        n = 0
        for size in spec["sizes"]:
            n += size
            if n > m0:
                break
        if n % 2 == m0 % 2:
            n += 1
    return n if n <= cap else None


def check_op(package, rng, write, k: int, kind: str, horizon: int) -> Op:
    actions = LABELS[:k]
    if kind in ("delayed", "custom"):
        spec = {"kind": kind, "d1": int(rng.integers(0, 3)), "d2": int(rng.integers(0, 3))}
    elif kind == "block":
        sizes = []
        while sum(sizes) < horizon:
            sizes.append(int(rng.integers(1, 4)))
        spec = {"kind": "block", "sizes": sizes}
    else:
        spec = {"kind": kind}
    monitoring = dict(spec)
    cap = horizon
    if kind == "custom":
        # the delayed structure spelled out atom by atom; no terminal view
        built = package.build_monitoring("delayed", package.ActionSet(tuple(actions)),
                                         horizon, d1=spec["d1"], d2=spec["d2"])
        monitoring = {"kind": "custom",
                      "atoms": [[list(atom) for atom in part.atoms] for part in built.partitions]}
        cap = horizon - 1
    cfg = {"actions": list(actions), "horizon": horizon, "monitoring": monitoring,
           "winning_set": {"kind": "none"}}
    table = {str(m0): expected_observation_stage(spec, horizon, m0, cap)
             for m0 in range(horizon)}

    def check(results):
        require(results["observation_stages"] == table, "observation stages differ from closed form")
        require(results["perfect_recall"]["ok"], "rule-based structure lost perfect recall")
        require(results["epm"]["ok"] == (None not in table.values()),
                "epm verdict disagrees with the observation stages")
        return {"observation_stages": results["observation_stages"]}

    return cli_op(package, "check", f"{kind} k={k} H={horizon}",
                  ["check", "--config", write(cfg)], check)


def value_check(results):
    require(results["certified"], "value is not certified")
    require(results.get("oracle_agrees") is True, "normal-form oracle disagrees or was skipped")
    return {"value": results["value"]}


def reduce_check(results):
    require(results["sandwich_ok"], "value sandwich fails")
    return {"value": results["value"], "aux_value": results["aux_value"]}


def normal_form_entries(monitoring) -> int:
    k = monitoring.num_actions
    slots = [0, 0]
    for n, part in enumerate(monitoring.partitions):
        slots[n % 2] += part.num_atoms
    return k ** slots[0] * k ** slots[1]


def verify_ops(package, seed: int, workdir: Path) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 2])
    write = ConfigWriter(workdir)
    ops = [check_op(package, rng, write, k, kind, 8)
           for kind in KINDS + ("custom",) for k in (2, 3)]

    for i in range(24):
        while True:
            kind = KINDS[i % len(KINDS)]
            k = int(rng.choice((2, 3)))
            horizon = int(rng.integers(2, 5))
            spec = monitoring_spec(kind, horizon)
            built = package.build_monitoring(kind, package.ActionSet(tuple(LABELS[:k])),
                                             horizon, **build_kwargs(spec))
            if normal_form_entries(built) <= VALUE_MAX_ENTRIES:
                break
        mask = random_mask(rng, k, horizon, float(rng.uniform(0.2, 0.8)))
        cfg = {"actions": list(LABELS[:k]), "horizon": horizon, "monitoring": spec,
               "winning_set": winning_set(mask, k, horizon)}
        ops.append(cli_op(package, "value", f"{kind} k={k} H={horizon}",
                          ["value", "--config", write(cfg)], value_check))
    # Over the normal-form cap: today cmd_value exits 3 here (fictitious play
    # raises SizeCapError after the sequence-form solve succeeded).
    cfg = {"actions": ["a", "b"], "horizon": 5, "monitoring": {"kind": "blackwell"},
           "winning_set": winning_set(random_mask(rng, 2, 5), 2, 5)}
    ops.append(cli_op(package, "value", "blackwell k=2 H=5 over-cap",
                      ["value", "--config", write(cfg)], value_check))

    delayed6 = {"actions": ["a", "b"], "horizon": 6, "monitoring": monitoring_spec("delayed", 6),
                "winning_set": winning_set(random_mask(rng, 2, 6), 2, 6)}
    path = write(delayed6)
    for eps in ("1", "1/2", "1/4"):
        ops.append(cli_op(package, "reduce", f"delayed k=2 H=6 eps={eps}",
                          ["reduce", "--config", path, "--epsilon", eps], reduce_check))
    for k, kind, horizon in ((3, "blackwell", 3), (2, "blackwell", 5), (2, "perfect", 5)):
        cfg = {"actions": list(LABELS[:k]), "horizon": horizon, "monitoring": {"kind": kind},
               "winning_set": winning_set(random_mask(rng, k, horizon), k, horizon)}
        ops.append(cli_op(package, "reduce", f"{kind} k={k} H={horizon} eps=1/4",
                          ["reduce", "--config", write(cfg), "--epsilon", "1/4"], reduce_check))
    return [ops]


# -- couple -----------------------------------------------------------------

def couple_check(results):
    require(results["exact_inequality_ok"], "exact payoff gap exceeds the distance bound")
    require(results["divergence_bound_ok"], "sampled divergence rate exceeds the bound")
    return {"payoff_profile_a": results["payoff_profile_a"],
            "payoff_profile_b": results["payoff_profile_b"],
            "distance_bound": results["distance_bound"],
            # sampled, so backend dependent: recorded but not compared on seed 0
            "divergence_rate": results["divergence_rate"],
            "kernel_backend": results["kernel_backend"]}


def couple_ops(package, seed: int, workdir: Path) -> list[list[Op]]:
    rng = np.random.default_rng([seed, 3])
    write = ConfigWriter(workdir)
    cases = (
        ("blackwell", 6, 10**6, winning_set(random_mask(rng, 2, 6), 2, 6)),
        ("delayed", 12, 2 * 10**6, winning_set(random_mask(rng, 2, 12), 2, 12)),
        ("delayed", 18, 2 * 10**5, {"kind": "leave_stay"}),
    )
    ops = []
    for kind, horizon, samples, ws in cases:
        cfg = {"actions": ["a", "b"], "horizon": horizon,
               "monitoring": monitoring_spec(kind, horizon), "winning_set": ws,
               "solver": {"samples": samples}}
        argv = ["couple", "--config", write(cfg), "--seed", str(int(rng.integers(2**31)))]
        ops.append(cli_op(package, "couple", f"{kind} k=2 H={horizon} n={samples}",
                          argv, couple_check))
    return [ops]


WORKLOADS = {"solve": solve_ops, "verify": verify_ops, "couple": couple_ops}
OP_KINDS = ("solve", "check", "value", "reduce", "couple")
MIN_PASSES = 3


def run_pass(ops: list[Op], tracer=None) -> list[tuple[int, float, int, object, str | None]]:
    """Run every op once, in order, one after the other (a closed loop)."""
    raw = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        started = perf_counter()
        try:
            code, output = op.call()
        except Exception as exc:  # an uncaught error ends a CLI run with exit 1
            code, output, error = 1, None, f"{type(exc).__name__}: {exc}"
        raw.append((i, perf_counter() - started, code, output, error))
    return raw


def measure(op_sets: list[list[Op]], seconds: float) -> tuple[list[float], list[list[OpResult]]]:
    """Untraced passes, pass i over ``op_sets[i % len(op_sets)]``.

    At least ``MIN_PASSES``, so that the median pass absorbs one slow pass;
    then more while the next one is expected to fit in ``seconds``.
    """
    passes, results = [], []
    started = perf_counter()
    while True:
        ops = op_sets[len(passes) % len(op_sets)]
        begun = perf_counter()
        raw = run_pass(ops)
        wall = perf_counter() - begun
        passes.append(wall)
        results.append(check_pass(ops, raw))
        if len(passes) >= MIN_PASSES and perf_counter() - started + wall > seconds:
            return passes, results


def check_pass(ops: list[Op], raw) -> list[OpResult]:
    """Check each op's output; a failed or wrong op is recorded, never raised.

    Exit 1 (a failed assertion) and 4 (a broken invariant) mean a wrong
    result; exit 2 and 3 (config error, size cap) mean the op did not run.
    """
    results = []
    for i, seconds, code, output, error in raw:
        op = ops[i]
        res = OpResult(i, op.kind, op.label, seconds, code, error, wrong=code in (1, 4))
        if code == 0:
            try:
                res.values = op.check(output)
            except (WrongOutput, KeyError, ValueError, TypeError) as exc:
                res.error = f"wrong output: {type(exc).__name__}: {exc}"
                res.wrong = True
        elif error is None:
            res.error = f"exit code {code}"
        results.append(res)
    return results
