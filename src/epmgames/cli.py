"""Batch front end: JSON-configured checks, solves, reductions, and experiments.

Commands
--------
check    perfect recall, by-horizon monitoring, and the observation-stage table
value    sequence-form solve with normal-form oracle cross-check
reduce   build the delegate game at a grid scale and verify the value sandwich
couple   Monte Carlo coupling experiment against the exact bound
example  prove the claims of a named Stay/Leave scenario by exact best responses

Exit codes: 0 success (all assertions passed), 1 assertion failure,
2 configuration error, 3 size cap exceeded, 4 internal invariant violation
(an assertion, or an LP that ends other than optimal).

Machine-readable reports are deterministic: same config and seed give
byte-identical JSON (timing appears only in the human-readable table
output).  Probabilities are serialized as "p/q" strings in rational mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from .core import (
    ActionSet,
    TruncatedGame,
    build_monitoring,
    check_epm,
    check_perfect_recall,
    index_to_actions,
    mask_from_histories,
    observation_stage,
)
from .errors import SizeCapError
from .reduction import compare_values
from .scenarios import leave_stay_mask, prove_claim, scenario_suite
from .solver import brute_force_value, fictitious_play, sequence_form_value
from .strategy import (
    BehavioralStrategy,
    coupled_sample_batch,
    payoff,
    strategy_distance,
)


class ConfigError(ValueError):
    pass


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad rational {text!r}: {e}") from None


def rat_str(x) -> str:
    f = Fraction(x) if not isinstance(x, Fraction) else x
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _jsonable(obj, mode: str):
    if isinstance(obj, Fraction):
        return float(obj) if mode == "float" else rat_str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, mode) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, mode) for v in obj]
    return obj


def _require_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


DEFAULT_SOLVER = {
    "mode": "rational",
    "epsilon": "1/2",
    "seed": 0,
    "cap_matrix": 10**6,
    "samples": 100_000,
}


def resolve_solver_options(cfg: dict, args) -> dict:
    opts = dict(DEFAULT_SOLVER)
    section = cfg.get("solver", {})
    _require_keys(section, set(DEFAULT_SOLVER), "solver")
    opts.update(section)
    if args.epsilon is not None:
        opts["epsilon"] = args.epsilon
    if args.mode is not None:
        opts["mode"] = args.mode
    if args.seed is not None:
        opts["seed"] = args.seed
    if args.cap_matrix is not None:
        opts["cap_matrix"] = args.cap_matrix
    if opts["mode"] not in ("rational", "float"):
        raise ConfigError(f"unknown mode {opts['mode']!r}")
    opts["epsilon"] = str(opts["epsilon"])
    return opts


def build_game(cfg: dict) -> TruncatedGame:
    _require_keys(cfg, {"actions", "horizon", "monitoring", "winning_set", "solver"},
                  "config")
    for key in ("actions", "horizon", "monitoring", "winning_set"):
        if key not in cfg:
            raise ConfigError(f"config is missing {key!r}")
    try:
        actions = ActionSet(tuple(cfg["actions"]))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    horizon = cfg["horizon"]
    if not isinstance(horizon, int) or horizon < 1:
        raise ConfigError("horizon must be a positive integer")

    mon = cfg["monitoring"]
    _require_keys(mon, {"kind", "d1", "d2", "sizes", "atoms", "terminal_atoms"},
                  "monitoring")
    kind = mon.get("kind")
    try:
        monitoring = build_monitoring(
            kind, actions, horizon,
            d1=mon.get("d1", 0), d2=mon.get("d2", 0),
            sizes=mon.get("sizes"), atoms=mon.get("atoms"),
            terminal_atoms=mon.get("terminal_atoms"),
        )
    except SizeCapError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad monitoring spec: {e}") from None

    ws = cfg["winning_set"]
    _require_keys(ws, {"kind", "histories", "hex", "player1_leave_by", "player2_window"},
                  "winning_set")
    wkind = ws.get("kind")
    k = actions.size
    if wkind == "histories":
        try:
            mask = mask_from_histories(horizon, actions, ws.get("histories", []))
        except ValueError as e:
            raise ConfigError(str(e)) from None
    elif wkind == "bitmask_hex":
        if k != 2 or horizon > 20:
            raise ConfigError("bitmask_hex requires 2 actions and horizon <= 20")
        try:
            bits = int(ws["hex"], 16)
        except (KeyError, ValueError):
            raise ConfigError("bitmask_hex needs a 'hex' field") from None
        if bits < 0 or bits.bit_length() > k**horizon:
            raise ConfigError(f"bitmask_hex must set only bits 0..{k**horizon - 1}")
        mask = np.array([(bits >> i) & 1 for i in range(k**horizon)], dtype=bool)
    elif wkind == "matching":
        if horizon < 2:
            raise ConfigError("matching needs horizon >= 2")
        mask = np.zeros(k**horizon, dtype=bool)
        for i in range(k**horizon):
            acts = index_to_actions(i, horizon, k)
            mask[i] = acts[1] == acts[0]
    elif wkind == "all":
        mask = np.ones(k**horizon, dtype=bool)
    elif wkind == "none":
        mask = np.zeros(k**horizon, dtype=bool)
    elif wkind == "leave_stay":
        if k != 2:
            raise ConfigError("leave_stay needs a 2-action alphabet")
        mask = leave_stay_mask(horizon,
                               player1_leave_by=ws.get("player1_leave_by"),
                               player2_window=ws.get("player2_window"))
    else:
        raise ConfigError(f"unknown winning_set kind {wkind!r}")
    return TruncatedGame(monitoring, mask)


def cmd_check(cfg: dict, opts: dict) -> tuple[dict, bool]:
    game = build_game(cfg)
    m = game.monitoring
    recall = check_perfect_recall(m)
    epm = check_epm(m)
    epm_term = check_epm(m, terminal_revelation=True) if m.builder else None
    table = {str(m0): observation_stage(m, m0) for m0 in range(m.horizon)}
    results = {
        "perfect_recall": {
            "ok": recall.ok,
            "witness": None if recall.ok else {
                "stage": recall.witness[0],
                "histories": [list(recall.witness[1].actions), list(recall.witness[2].actions)],
                "condition": recall.condition,
            },
        },
        "epm": {"ok": epm.ok, "failures": [list(f) for f in epm.failures]},
        "epm_terminal_revelation": None if epm_term is None else {
            "ok": epm_term.ok,
            "failures": [list(f) for f in epm_term.failures],
            "terminal": [list(t) for t in epm_term.terminal],
        },
        "observation_stages": table,
    }
    return results, True  # checks report; they do not fail the run


def cmd_value(cfg: dict, opts: dict) -> tuple[dict, bool]:
    game = build_game(cfg)
    report = sequence_form_value(game)
    results = {
        "value": report.value,
        "method": report.method,
        "best_response_gaps": [report.gap1, report.gap2],
        "certified": report.certified,
        "optimal_x": report.x.to_doc(),
        "optimal_y": report.y.to_doc(),
    }
    ok = report.certified
    try:
        oracle = brute_force_value(game, cap=int(opts["cap_matrix"]))
        results["oracle_value"] = oracle.value
        results["oracle_method"] = oracle.method
        results["oracle_agrees"] = oracle.value == report.value
        ok = ok and oracle.value == report.value and oracle.certified
    except SizeCapError as e:
        results["oracle_value"] = None
        results["oracle_skipped"] = str(e)
    fp = fictitious_play(game, 2000, cap=int(opts["cap_matrix"]))
    results["fictitious_play_estimate"] = fp.value
    results["fictitious_play_gap"] = fp.gap1 - fp.gap2
    return results, ok


def cmd_reduce(cfg: dict, opts: dict) -> tuple[dict, bool]:
    game = build_game(cfg)
    eps = parse_rational(opts["epsilon"])
    report = compare_values(game, eps)
    results = {
        "epsilon": eps,
        "value": report.value,
        "aux_value": report.aux_val,
        "upper_bound_ok": report.upper_ok,
        "lower_bound_ok": report.lower_ok,
        "sandwich_ok": report.ok,
        "grid_sizes": {str(n): len(g.points) for n, g in sorted(report.aux.grids.items())},
        "aux_nodes": report.aux_report.stats.nodes,
        "aux_nodes_by_stage": {str(n): c for n, c in
                               sorted(report.aux_report.stats.nodes_by_stage.items())},
        "aux_max_filter_support": report.aux_report.stats.max_filter_support,
        "aux_assignments": report.aux_report.stats.assignments,
        "aux_memo_hits": report.aux_report.stats.memo_hits,
    }
    return results, report.ok


def cmd_couple(cfg: dict, opts: dict) -> tuple[dict, bool]:
    game = build_game(cfg)
    seed = int(opts["seed"])
    samples = int(opts["samples"])
    rng = np.random.default_rng(seed)
    m = game.monitoring
    x = BehavioralStrategy.random_rational(1, m, rng)
    y = BehavioralStrategy.random_rational(2, m, rng)
    x2 = BehavioralStrategy.random_rational(1, m, rng)
    y2 = BehavioralStrategy.random_rational(2, m, rng)
    bound = (strategy_distance(x, x2) + strategy_distance(y, y2)) / 2
    p1 = payoff(x, y, game)
    p2 = payoff(x2, y2, game)
    gap = abs(p1 - p2)
    exact_ok = gap <= bound
    batch = coupled_sample_batch(game, x, y, x2, y2, samples, seed)
    rate = batch.divergence_rate()
    sigma = (rate * (1 - rate) / samples) ** 0.5 if 0 < rate < 1 else 1 / samples**0.5
    mc_ok = rate <= float(min(bound, 1)) + 3 * sigma
    results = {
        "payoff_profile_a": p1,
        "payoff_profile_b": p2,
        "payoff_gap": gap,
        "distance_bound": bound,
        "exact_inequality_ok": exact_ok,
        "samples": samples,
        "divergence_rate": rate,
        "divergence_bound_ok": mc_ok,
        # Report readers key on this field; the sampler has one numpy walker.
        "kernel_backend": "numpy",
    }
    return results, exact_ok and mc_ok


def cmd_example(cfg: dict, opts: dict) -> tuple[dict, bool]:
    _require_keys(cfg, {"scenario", "horizon", "delay", "leave_by", "solver", "delays1",
                        "delays2"}, "config")
    name = cfg.get("scenario")
    if name not in ("example1", "example2", "example3"):
        raise ConfigError("scenario must be one of example1, example2, example3")
    kwargs = {key: cfg[key] for key in ("horizon", "delay", "leave_by", "delays1", "delays2")
              if key in cfg}
    rows = []
    for claim in scenario_suite(name, **kwargs):
        proof = prove_claim(claim)
        rows.append({
            "name": claim.name,
            "notes": claim.notes,
            "expected": claim.expected,
            "opponent_min": proof.opponent_min,
            "opponent_max": proof.opponent_max,
            "holds": proof.holds,
            "min_witness": proof.min_witness.to_doc(),
            "max_witness": proof.max_witness.to_doc(),
        })
    return {"scenario": name, "claims": rows}, all(row["holds"] for row in rows)


COMMANDS = {
    "check": cmd_check,
    "value": cmd_value,
    "reduce": cmd_reduce,
    "couple": cmd_couple,
    "example": cmd_example,
}


def _print_table(report: dict, elapsed: float):
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{prefix}{key}.", val) if isinstance(val, (dict, list)) \
                    else print(f"  {prefix}{key:<28} {val}")
        elif isinstance(obj, list):
            for i, val in enumerate(obj):
                if isinstance(val, (dict, list)):
                    walk(f"{prefix}{i}.", val)
                else:
                    print(f"  {prefix}{i:<28} {val}")

    print(f"== {report['command']} ==")
    walk("", report["results"])
    print(f"  elapsed_seconds              {elapsed:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epmgames",
        description="Exact solving and verification for games with imperfect monitoring",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON game config")
    parser.add_argument("--epsilon", help="grid scale, e.g. 1/4")
    parser.add_argument("--mode", choices=["rational", "float"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cap-matrix", type=int, dest="cap_matrix")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--format", choices=["json", "table"], default="json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        opts = resolve_solver_options(cfg, args)
        results, ok = COMMANDS[args.command](cfg, opts)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except SizeCapError as e:
        print(f"size cap: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # a validated config can still describe an unsolvable model,
        # e.g. custom partitions without perfect recall
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 4
    elapsed = time.perf_counter() - started

    report = {
        "command": args.command,
        "config": _jsonable(cfg, opts["mode"]),
        "options": _jsonable({k: v for k, v in opts.items()}, opts["mode"]),
        "ok": ok,
        "results": _jsonable(results, opts["mode"]),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        tmp = args.out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    if args.format == "table":
        _print_table(report, elapsed)
    elif not args.out:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
