"""`--json` output is written as it is encoded, and cf-orbit's lines as they
are rendered.

The bytes are those of `json.dumps(payload, indent=2, sort_keys=True)`, here
checked against a payload built step by step from the chain, without any
state cache.  A 2x10^5-step `--json` run stays far below the memory that
holding its whole output takes, and a closed reader still ends it quietly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfkit import BUILTIN_VARIANTS, iterate_chain, render_formula, standard_group
from cfkit.cli import EXIT_BROKEN_PIPE, _parse_assignment, main

SRC = str(Path(__file__).resolve().parents[1] / "src")
Q8 = standard_group("q8")
ORBIT_ASSIGN = "x=1,a=i,y=j,b=k"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cfkit_argv(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "cfkit", *args], dict(os.environ, PYTHONPATH=path)


def plain_payload(variant, result):
    """cf-orbit's --json payload, each step rendered on its own."""
    label = result.assignment.group.label if result.assignment is not None else None
    steps = [
        {
            "step": s.step,
            "side": str(s.side),
            "tuple": None if s.values is None else [label(v) for v in s.values],
        }
        for s in result.steps
    ]
    return {
        "variant": variant.name,
        "formula": render_formula(variant),
        "steps": steps,
        "symbolic_period": result.symbolic_period,
        "element_period": result.element_period,
    }


@pytest.mark.parametrize("assign", [None, ORBIT_ASSIGN])
@pytest.mark.parametrize("name", list(BUILTIN_VARIANTS))
@pytest.mark.parametrize("steps", [1, 7, 3200, 50000])
def test_cf_orbit_json_equals_json_dumps(capsys, steps, name, assign):
    variant = BUILTIN_VARIANTS[name]
    argv = ["cf-orbit", "--variant", name, "--steps", str(steps), "--json"]
    assignment = None
    if assign is not None:
        argv += ["--group", "q8", "--assign", assign]
        assignment = _parse_assignment(Q8, assign, False)
    expected = json.dumps(
        plain_payload(variant, iterate_chain(variant, steps, assignment)),
        indent=2,
        sort_keys=True,
    )
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected + "\n"


# Linux counts the pages a child shares with its parent before exec in the
# child's peak, so the measured child is started from a small interpreter
# rather than from the test process.
MEASURE = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out, open(sys.argv[2], "wb") as err:
    pid = subprocess.Popen(sys.argv[3:], stdout=out, stderr=err).pid
    _, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux ru_maxrss (KiB)")
def test_long_json_orbit_peaks_under_128_mb(tmp_path):
    argv, env = cfkit_argv(
        "cf-orbit", "--group", "q8", "--variant", "classic", "--assign", ORBIT_ASSIGN,
        "--steps", "200000", "--json",
    )
    out, err = tmp_path / "orbit.json", tmp_path / "orbit.err"
    measured = subprocess.run(
        [sys.executable, "-c", MEASURE, str(out), str(err), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, peak_kib = map(int, measured.stdout.split())
    assert (code, err.read_bytes()) == (0, b"")
    with open(out, "rb") as fh:
        fh.seek(-40, os.SEEK_END)
        assert fh.read().endswith(b'  "variant": "classic"\n}\n')
    assert peak_kib < 128 * 1024


def test_closed_reader_of_json_output_is_a_quiet_nonzero_exit():
    argv, env = cfkit_argv("cf-orbit", "--variant", "classic", "--steps", "100000", "--json")
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first == b"{\n"
    assert err == b""
    assert proc.returncode == EXIT_BROKEN_PIPE != 0
