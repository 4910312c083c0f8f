"""Exit-code contract and output determinism of the command line."""

import json

from cfkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_check_group_ok(capsys):
    code, out, _ = run(capsys, "check-group", "--group", "q8")
    assert code == 0
    assert "valid" in out


def test_cf_check_found_is_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "cf-check", "--group", "q8", "--variant", "classic",
        "--assign", "x=1,a=i,y=j,b=k", "--anti",
    )
    assert code == 0
    assert "realizations: 1" in out


def test_cf_check_not_found_is_exit_one(capsys):
    code, out, _ = run(
        capsys,
        "cf-check", "--group", "q8", "--variant", "classic",
        "--assign", "x=1,a=i,y=j,b=k",
    )
    assert code == 1
    assert "no symmetry realizes" in out


def test_invalid_file_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "magma",
                "elements": ["e", "p", "q"],
                "identity": "e",
                "table": [["e", "p", "q"], ["p", "e", "p"], ["q", "q", "e"]],
            }
        )
    )
    code, _, err = run(capsys, "check-group", "--file", str(bad))
    assert code == 2
    assert "witness triple" in err


def test_missing_file_is_exit_two(capsys):
    code, _, err = run(capsys, "check-group", "--file", "/nonexistent/g.json")
    assert code == 2
    assert "error:" in err


def test_unknown_group_is_exit_two(capsys):
    code, _, err = run(capsys, "check-group", "--group", "s5")
    assert code == 2
    assert "unknown group" in err


def test_unknown_flag_is_exit_two(capsys):
    assert run(capsys, "check-group", "--group", "q8", "--frobnicate")[0] == 2


def test_unknown_subcommand_is_exit_two(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_bad_assignment_is_exit_two(capsys):
    code, _, err = run(
        capsys,
        "cf-check", "--group", "q8", "--variant", "classic", "--assign", "x=1,a=i",
    )
    assert code == 2
    code, _, err = run(
        capsys,
        "cf-check", "--group", "q8", "--variant", "classic",
        "--assign", "x=1,a=i,y=j,b=w",
    )
    assert code == 2


def test_noncommutative_fraction_rule_is_exit_two(capsys):
    code, _, err = run(capsys, "fraction-rule", "--group", "q8")
    assert code == 2
    assert "not commutative" in err


def test_zero_steps_is_exit_two(capsys):
    code, _, err = run(capsys, "cf-orbit", "--variant", "classic", "--steps", "0")
    assert code == 2
    assert "steps" in err


def test_too_many_steps_is_exit_two_before_any_chain(capsys, monkeypatch):
    import cfkit.formula

    def refuse(*args, **kwargs):
        raise AssertionError("iterate_chain must not run")

    monkeypatch.setattr(cfkit.formula, "iterate_chain", refuse)
    code, out, err = run(capsys, "cf-orbit", "--variant", "classic", "--steps", "1000001")
    assert code == 2 and out == ""
    assert "1000001" in err and "1000000" in err

    def reached(variant, steps, assignment=None):
        raise ValueError(f"chain of {steps} steps requested")

    monkeypatch.setattr(cfkit.formula, "iterate_chain", reached)
    code, _, err = run(capsys, "cf-orbit", "--variant", "classic", "--steps", "1000000")
    assert code == 2 and "chain of 1000000 steps requested" in err


def test_fraction_rule_sweep_ok(capsys):
    code, out, _ = run(capsys, "fraction-rule", "--group", "c6")
    assert code == 0
    assert "1296" in out  # 6^4 assignments


# ---------------------------------------------------------------------------
# JSON mode


def test_json_mode_emits_single_object(capsys):
    code, out, _ = run(capsys, "symmetry-group", "--group", "q8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 48
    assert payload["automorphisms"] == 24
    assert payload["anti_automorphisms"] == 24
    assert payload["cited_order"] == "twenty-four"


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "demo", "--json")
    second = run(capsys, "demo", "--json")
    assert first == second
    third = run(capsys, "cf-enumerate", "--group", "klein", "--variant", "mosko", "--json")
    fourth = run(capsys, "cf-enumerate", "--group", "klein", "--variant", "mosko", "--json")
    assert third == fourth


def test_demo_passes(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "tau o sigma = lambda: ok" in out
    assert "cited order: twenty-four" in out
    assert "enumerated order 48" in out


def test_demo_json_sections(capsys):
    code, out, _ = run(capsys, "demo", "--json")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["symmetry_census"]["enumerated_order"] == 48
    assert payload["symmetry_census"]["cited_order"] == "twenty-four"
    assert payload["tau_after_sigma_equals_lambda"] is True
    assert payload["lambda"]["kind"] == "anti"


# ---------------------------------------------------------------------------
# the remaining subcommands


def test_classify_map_named(capsys):
    code, out, _ = run(capsys, "classify-map", "--group", "q8", "--map", "lambda", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "anti"
    assert payload["images"][2] == "k"  # i sits at index 2


def test_classify_map_images(capsys):
    code, out, _ = run(
        capsys, "classify-map", "--group", "klein", "--images", "1,k,j,i", "--json"
    )
    assert code == 0
    assert json.loads(out)["kind"] == "both"


def test_symmetries_counts(capsys):
    code, out, _ = run(capsys, "symmetries", "--group", "klein", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 6
    code, out, _ = run(capsys, "symmetries", "--group", "q8", "--anti", "--json")
    assert json.loads(out)["count"] == 48


def test_generated_subgroup(capsys):
    code, out, _ = run(
        capsys, "generated-subgroup", "--maps", "lambda,sigma,tau", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "q8"
    assert payload["subgroup_order"] == 24
    assert payload["symmetry_group_order"] == 48
    code, out, _ = run(capsys, "generated-subgroup", "--maps", "inv", "--json")
    assert json.loads(out)["subgroup_order"] == 2


def test_generated_subgroup_rejects_q8_names_elsewhere(capsys):
    code, _, err = run(
        capsys, "generated-subgroup", "--group", "klein", "--maps", "lambda"
    )
    assert code == 2
    assert "only defined on the canonical q8" in err


def test_cf_orbit(capsys):
    code, out, _ = run(
        capsys,
        "cf-orbit", "--variant", "classic", "--steps", "2",
        "--group", "klein", "--assign", "x=1,a=i,y=j,b=k", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic_period"] == 6
    assert payload["element_period"] == 3
    assert payload["steps"][2]["side"] == "F_x(y):F_b^-1(a^-1)"
    assert payload["steps"][0]["tuple"] == ["1", "j", "i", "k"]


def test_cf_orbit_symbolic_only(capsys):
    code, out, _ = run(capsys, "cf-orbit", "--variant", "mosko", "--steps", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["element_period"] is None
    assert payload["steps"][1]["tuple"] is None


def test_cf_check_with_formula_string(capsys):
    code, out, _ = run(
        capsys,
        "cf-check", "--group", "q8",
        "--formula", "F_x(a):F_y(b) => F_x(b):F_a^-1(y)",
        "--assign", "x=1,a=i,y=j,b=k", "--anti", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "classic"
    assert payload["count"] == 1


def test_cf_enumerate_with_pins(capsys):
    code, out, _ = run(
        capsys,
        "cf-enumerate", "--group", "klein", "--variant", "mosko",
        "--pin", "x=1,y=j", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2
    assert {"a": "i", "b": "k", "count": 1, "x": "1", "y": "j"} in payload["assignments"]


def test_group_file_flag_round_trip(tmp_path, capsys):
    from cfkit import render_group_file, standard_group

    path = tmp_path / "klein.json"
    path.write_text(render_group_file(standard_group("klein")))
    code, out, _ = run(capsys, "symmetries", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
