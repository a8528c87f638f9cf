"""Mutation check for the certifiers: every listed mutant must make tier-1 fail.

Each mutant replaces one exact snippet in one file of a fresh copy of the
tree and runs tier-1 (``pytest -x -q``) in that copy.  The mutant is killed
when tier-1 fails and survives when it passes.  A snippet that does not
occur exactly once in its file is an error, so a refactor that moves a
snippet has to update this list.  A mutant shown to be equivalent (no test
can tell it apart) carries the reason in ``equivalent``; it is reported but
does not fail the run.

Usage (from the repository root)::

    git add -A && python tools/mutants.py

The copy is the ``git archive`` of the staged tree (``git write-tree``),
unpacked under ``.bench_build/mutants/``.  Tier-1 runs once
unmutated first; if that fails, the run stops.  Each mutant costs up to one
full tier-1 run, so this is a tool to run after touching a certifier, not a
test.  Exit status: 0 when every non-equivalent mutant is killed, 1 when one
survives or the unmutated run fails, 2 when a snippet does not match.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tarfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "mutants"
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    equivalent: str | None = None


MUTANTS = (
    Mutant("certified-always", "src/epmgames/solver.py",
           "return self.gap1 == 0 and self.gap2 == 0", "return True"),
    Mutant("sandwich-ok-always", "src/epmgames/reduction.py",
           "return self.upper_ok and self.lower_ok", "return True"),
    Mutant("sandwich-upper-2eps", "src/epmgames/reduction.py",
           "return self.aux_val - self.epsilon <= self.value",
           "return self.aux_val - 2 * self.epsilon <= self.value"),
    Mutant("value-ok-ignores-certificate", "src/epmgames/cli.py",
           "ok = report.certified", "ok = True"),
    Mutant("best-response-ties-highest", "src/epmgames/solver.py",
           "if best_v is None or better(v, best_v):",
           "if best_v is None or not better(best_v, v):"),
    Mutant("co-occurs-never", "src/epmgames/reduction.py",
           "        pairs = {(h, h2)}", "        return False"),
    Mutant("epm-excuses-all-terminally", "src/epmgames/core.py",
           "            if ext is not None:", "            if True:"),
    Mutant("grid-half-dense", "src/epmgames/strategy.py",
           "need = Fraction(2 * (num_actions - 1) * 2**stage) / eps",
           "need = Fraction((num_actions - 1) * 2**stage) / eps"),
    Mutant("claim-checks-max-only", "src/epmgames/scenarios.py",
           "return self.opponent_min == self.claim.expected == self.opponent_max",
           "return self.opponent_max == self.claim.expected"),
    Mutant("claim-checks-min-only", "src/epmgames/scenarios.py",
           "return self.opponent_min == self.claim.expected == self.opponent_max",
           "return self.opponent_min == self.claim.expected"),
    Mutant("reconstruct-digit-order", "src/epmgames/reduction.py",
           "for c in reversed(coords):", "for c in coords:"),
)


def export_tree(dest: Path) -> str:
    """Unpack ``git archive`` of the staged tree into DEST; return the tree id."""
    rev = subprocess.run(["git", "write-tree"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return rev


def check_snippets(tree: Path) -> list[str]:
    errors = []
    for m in MUTANTS:
        count = (tree / m.path).read_text().count(m.snippet)
        if count != 1:
            errors.append(f"{m.name}: snippet occurs {count} times in {m.path}")
    return errors


def run_tier1(tree: Path) -> tuple[bool, float, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=1800)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, time.perf_counter() - start, lines[-1] if lines else ""


def main() -> int:
    tree = WORKDIR / "tree"
    rev = export_tree(tree)
    errors = check_snippets(tree)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2

    passed, seconds, summary = run_tier1(tree)
    print(f"unmutated {rev[:12]}: {'pass' if passed else 'FAIL'} ({seconds:.0f}s) {summary}")
    if not passed:
        return 1
    survivors = []
    for m in MUTANTS:
        path = tree / m.path
        original = path.read_text()
        path.write_text(original.replace(m.snippet, m.replacement))
        try:
            passed, seconds, summary = run_tier1(tree)
        finally:
            path.write_text(original)
        verdict = "survived" if passed else "killed"
        note = f" [equivalent: {m.equivalent}]" if m.equivalent else ""
        print(f"{m.name:<30} {verdict:<8} ({seconds:.0f}s) {summary}{note}", flush=True)
        if passed and not m.equivalent:
            survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} killed or equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
