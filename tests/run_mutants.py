"""Apply each mutant of ``mutants.py`` to a copy of the tree and run the tests.

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py 0 3        # the mutants at these positions

For each mutant, the tree (without ``.git``, caches and build outputs) is
copied to a temporary directory, the mutant's old text is replaced there,
and ``pytest -x -q tests perfbench`` runs in that directory with its
``src`` alone on ``PYTHONPATH``. The process first imports ``qreuse`` and
checks that it is the copy's: an editable install of the package would
otherwise win. ``QREUSE_MUTANTS_ROOT`` names the unmutated tree, against
which ``test_every_mutant_applies`` checks the entries there. A mutant is killed when a test fails (pytest's exit status
1). The run fails when a mutant's old text does not occur exactly once, when
a mutant survives, or when pytest ends any other way (a collection error, a
timeout). No test is skipped or deselected.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

# The tree whose ``src`` the entries patch.
ROOT = Path(os.environ.get("QREUSE_MUTANTS_ROOT") or Path(__file__).resolve().parents[1])
LEFT_OUT = shutil.ignore_patterns(
    ".git", "__pycache__", ".*_cache", ".hypothesis", ".benchmarks", "*.egg-info", "build", "out"
)
TIMEOUT_S = 600

# Run in the copy: import qreuse, refuse any but the copy's, then run pytest
# in the same process, so that every test imports that module.
BOOT = (
    "import sys\n"
    "from pathlib import Path\n"
    "import pytest, qreuse\n"
    "if not Path(qreuse.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):\n"
    "    sys.exit(f'imported {qreuse.__file__}, not the copy under {sys.argv[1]}')\n"
    "sys.exit(pytest.main(sys.argv[2:]))\n"
)


def mutated(root: Path, mutant) -> str:
    """The text of the mutant's file under ``root`` with the mutant applied."""
    path, old, new, _ = mutant
    text = (root / path).read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1 or old == new:
        raise ValueError(f"{path}: the old text occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


def run(mutant) -> tuple[bool, str]:
    """Run the tests on a copy with ``mutant`` applied; returns whether a
    test killed it, and what ended the run."""
    with tempfile.TemporaryDirectory(prefix="qreuse-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=LEFT_OUT)
        (copy / mutant[0]).write_text(mutated(ROOT, mutant), encoding="utf-8")
        src = str(copy / "src")
        env = {**os.environ, "PYTHONPATH": src, "QREUSE_MUTANTS_ROOT": str(ROOT)}
        command = [sys.executable, "-c", BOOT, src, "-x", "-q", "tests", "perfbench"]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode == 1 and failed:
        return True, failed[0]
    if done.returncode == 0:
        return False, "survived: every test passed"
    return False, f"pytest exit status {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    for mutant in MUTANTS:  # every entry must apply before any runs
        mutated(ROOT, mutant)
    positions = [int(a) for a in argv] or range(len(MUTANTS))
    not_killed = 0
    for k in positions:
        path, _, _, why = MUTANTS[k]
        start = time.perf_counter()
        killed, outcome = run(MUTANTS[k])
        not_killed += not killed
        status = "killed" if killed else "NOT KILLED"
        print(f"[{k}] {status} in {time.perf_counter() - start:.1f} s, {path}: {why}\n    {outcome}", flush=True)
    print(f"{len(positions) - not_killed} of {len(positions)} mutants killed")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
