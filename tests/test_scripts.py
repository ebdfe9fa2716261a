"""Smoke test of the experiment scripts: each runs on a small input, exits
0 and prints its header, so a change of the stream or statistics API that
breaks them fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_experiment_scripts_run():
    sweep = run_script("discrepancy_sweep.py", "--primes", "101,211")
    assert sweep[0].split() == ["p", "D*", "2^k", "D*", "bound", "sqrt(loglog", "p)/sqrt(p)"]
    assert [line.split()[0] for line in sweep[1:]] == ["101", "211"]
    fraction = run_script("theorem3_fraction.py", "-p", "101", "--sample", "5")
    assert fraction[0] == "p=101 k=2 t=0.5"
    assert fraction[1].startswith("threshold            : ")
    assert fraction[3].startswith("measured fraction    : ") and fraction[3].split()[3].endswith("/5")
