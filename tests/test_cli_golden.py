"""Byte-exact CLI output: every command below must print the recorded stdout
and stderr and exit with the recorded code.

The record lives in tests/data/cli_golden.json.  It holds the group files the
`--file` commands read (written to a temporary directory, so no output may
contain their path) and, for each command, its argv, exit code, stdout and
stderr.  To record it again, from the repository root on a trusted commit:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from cfkit import InvalidAssignment, standard_group
from cfkit.cli import _build_parser, _parse_assignment, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# A commutative and a non-commutative group, in the JSON group-file schema.
_Z2XZ4 = [f"{p}{q}" for p in "01" for q in "0123"]
_S3 = ["e", "r", "rr", "s", "sr", "srr"]


def _z2xz4_table():
    return [
        [f"{(int(a[0]) + int(b[0])) % 2}{(int(a[1]) + int(b[1])) % 4}" for b in _Z2XZ4]
        for a in _Z2XZ4
    ]


def _s3_table():
    # s^i r^j as a pair (i, j); r s = s r^-1, so s^i r^j s^k r^l = s^(i+k) r^(l + (-1)^k j).
    def parse(label):
        return (1 if label.startswith("s") else 0, label.count("r"))

    def name(i, j):
        return ("s" if i else "") + "r" * j or "e"

    table = []
    for a in _S3:
        i, j = parse(a)
        row = []
        for b in _S3:
            k, l = parse(b)
            row.append(name((i + k) % 2, (l + (-j if k else j)) % 3))
        table.append(row)
    return table


FILES = {
    "z2xz4.json": {"name": "z2xz4", "elements": _Z2XZ4, "identity": "00", "table": _z2xz4_table()},
    "s3.json": {"name": "s3", "elements": _S3, "identity": "e", "table": _s3_table()},
}

CLASSIC_AT_Q8 = "x=1,a=i,y=j,b=k"
DUAL_AT_Q8 = "x=i,y=j,a=k,b=1"

COMMANDS = [
    ["check-group", "--group", "q8"],
    ["check-group", "--group", "q8", "--json"],
    ["check-group", "--group", "s5"],
    ["classify-map", "--group", "q8", "--map", "lambda"],
    ["classify-map", "--group", "q8", "--map", "tau", "--json"],
    ["classify-map", "--group", "klein", "--images", "1,j,i,k"],
    ["classify-map", "--group", "c6", "--images", "0,5,4,3,2,1", "--json"],
    ["classify-map", "--group", "c4", "--map", "lambda"],
    ["symmetries", "--group", "q8", "--anti"],
    ["symmetries", "--group", "klein", "--json"],
    ["symmetry-group", "--group", "q8"],
    ["symmetry-group", "--group", "c6", "--json"],
    ["generated-subgroup", "--maps", "lambda,tau"],
    ["generated-subgroup", "--maps", "sigma", "--json"],
    ["cf-check", "--group", "q8", "--variant", "classic", "--assign", CLASSIC_AT_Q8, "--anti"],
    ["cf-check", "--group", "q8", "--variant", "dual", "--assign", DUAL_AT_Q8, "--anti", "--json"],
    ["cf-check", "--group", "q8", "--formula", "F_x(a):F_y(b) => F_x(b):F_a^-1(y)",
     "--assign", CLASSIC_AT_Q8],
    ["cf-check", "--group", "q8", "--variant", "classic", "--assign", "x=1,a=i,y=j,b=w"],
    ["cf-check", "--group", "q8", "--variant", "classic", "--assign", "x=1,x=i,y=j,b=k"],
    ["cf-check", "--group", "q8", "--variant", "classic", "--assign", "x=1,a=i,y=j,b"],
    ["cf-check", "--group", "q8", "--variant", "classic", "--assign", "x=1,a=i,y=j,c=k"],
    ["cf-check", "--group", "q8", "--variant", "classic", "--assign", "x=1,a=1,y=j,b=k"],
    ["cf-enumerate", "--group", "q8", "--variant", "classic", "--anti", "--pin", "x=1,y=j"],
    ["cf-enumerate", "--group", "klein", "--variant", "mosko", "--allow-repeats",
     "--pin", "x=1", "--json"],
    ["cf-orbit", "--variant", "classic"],
    ["cf-orbit", "--group", "q8", "--variant", "classic", "--assign", CLASSIC_AT_Q8,
     "--steps", "8"],
    ["cf-orbit", "--group", "q8", "--variant", "dual", "--assign", DUAL_AT_Q8, "--json"],
    ["cf-orbit", "--variant", "mosko", "--assign", CLASSIC_AT_Q8],
    ["cf-orbit", "--variant", "classic", "--steps", "1000001"],
    ["fraction-rule", "--group", "sign"],
    ["fraction-rule", "--group", "sign", "--json"],
    ["fraction-rule", "--group", "klein"],
    ["fraction-rule", "--group", "klein", "--json"],
    ["fraction-rule", "--group", "c6"],
    ["fraction-rule", "--group", "c6", "--json"],
    ["fraction-rule", "--group", "c12"],
    ["fraction-rule", "--group", "c12", "--json"],
    ["fraction-rule", "--group", "ea2-3"],
    ["fraction-rule", "--group", "ea2-3", "--json"],
    ["fraction-rule", "--group", "q8"],
    ["fraction-rule", "--group", "q8", "--json"],
    ["fraction-rule", "--group", "c6", "--assign", "x=1,y=2,a=3,b=3"],
    ["fraction-rule", "--group", "c6", "--assign", "x=1,y=2,a=3,b=4", "--json"],
    ["fraction-rule", "--group", "q8", "--assign", CLASSIC_AT_Q8],
    ["demo"],
    ["demo", "--json"],
    ["check-group", "--file", "{z2xz4.json}"],
    ["symmetries", "--file", "{s3.json}", "--anti", "--json"],
    ["cf-check", "--file", "{s3.json}", "--variant", "classic", "--assign",
     "x=e,a=r,y=s,b=sr", "--anti"],
    ["fraction-rule", "--file", "{z2xz4.json}"],
    ["fraction-rule", "--file", "{z2xz4.json}", "--json"],
    ["fraction-rule", "--file", "{s3.json}"],
]


def write_files(directory: Path) -> dict[str, str]:
    """Write the group files and return argv placeholders to their paths."""
    paths = {}
    for name, payload in FILES.items():
        path = directory / name
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        paths["{" + name + "}"] = str(path)
    return paths


def run(argv, paths):
    argv = [paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp))
        records = []
        for argv in COMMANDS:
            got = run(argv, paths)
            assert tmp not in got["stdout"] + got["stderr"], argv
            records.append({**got, "argv": argv})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_record_covers_the_command_list():
    assert [r["argv"] for r in _golden()] == COMMANDS


def test_golden_record_covers_every_subcommand_in_both_modes():
    parser = _build_parser()
    subcommands = set(parser._subparsers._group_actions[0].choices)
    for json_mode in (False, True):
        seen = {argv[0] for argv in COMMANDS if ("--json" in argv) == json_mode}
        assert seen == subcommands


@pytest.mark.parametrize("i", range(len(COMMANDS)), ids=[" ".join(a) for a in COMMANDS])
def test_cli_output_is_byte_identical(i, tmp_path):
    record = _golden()[i]
    paths = write_files(tmp_path)
    got = run(record["argv"], paths)
    assert (got["code"], got["stdout"], got["stderr"]) == (
        record["code"],
        record["stdout"],
        record["stderr"],
    )


def test_missing_role_names_the_roles(capsys):
    # Not in the record: this message is RoleAssignment's, so it changed when
    # the CLI's own copy of the role check went.
    with pytest.raises(InvalidAssignment, match="roles"):
        _parse_assignment(standard_group("q8"), "x=1,a=i,y=j", False)
    code = main(["cf-check", "--group", "q8", "--variant", "classic", "--assign", "x=1,a=i,y=j"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert all(repr(role) in captured.err for role in ("x", "y", "a", "b"))


if __name__ == "__main__":
    _record()
