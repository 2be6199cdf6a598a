"""The commands the README documents run as written.

Every line of the README's "Command line" block goes through the CLI's
`main` in-process, and both experiment scripts run as programs with small
arguments.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from spinmix.cli import main

ROOT = Path(__file__).resolve().parents[1]


def command_block() -> list[list[str]]:
    """argv of each `spinmix` line in the README's "Command line" block."""
    text = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert all(argv[0] == "spinmix" for argv in lines)
    return [argv[1:] for argv in lines]


def test_every_readme_command_exits_zero():
    commands = command_block()
    assert len(commands) == 10
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, ""), argv
        assert out.getvalue().startswith('{"command": "' + argv[0] + '"'), argv


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_distance_scan_runs_and_its_pair_column_is_one_over_two_n_minus_one():
    lines = run_script("distance_scan.py", "--sizes", "4,10", "--kmax", "4").splitlines()
    assert lines[0].split() == ["n", "1/(2(n-1))", "k=1", "k=2", "k=3", "k=4"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["4", "10"]
    for row in rows:
        assert row[2] == "0.000000" and row[3] == row[1]


def test_count_contrast_runs_with_monte_carlo():
    out = run_script("count_contrast.py", "--n", "6", "--trials", "200", "--seed", "1")
    assert out.startswith("exact count moments at n=6\n")
    assert "empirical-vs-exact pmf total variation (200 trials)" in out
    # The output of the script before its pair table came from build_report.
    digest = "8f427fa45c8cd1479ed064840f2a646822ec8bcc9ae63a0c7414f6152477eb0c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
