"""CLI surface tests: exit-code contract, JSON payloads, piping via '-',
and golden human renderings."""

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qgeom
from qgeom.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_NONEXISTENCE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)

GOLDEN_TRIANGLE_Q2 = """\
2-(7,3,1)_2 lambda triangle (rows i+j = 0..t, left to right: lambda_(i+j,0) .. lambda_(0,i+j)):
      381
    21   45
  1    5    5
admissible: yes"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# lambda / field
# ----------------------------------------------------------------------

def test_lambda_triangle_golden(capsys):
    code, out, _ = run(capsys, "lambda", "--t", "2", "--v", "7", "--k", "3",
                       "--l", "1", "--q", "2")
    assert code == EXIT_OK
    assert out.strip() == GOLDEN_TRIANGLE_Q2


def test_lambda_q3_headline_value(capsys):
    code, out, _ = run(capsys, "lambda", "--t", "2", "--v", "7", "--k", "3",
                       "--l", "1", "--q", "3")
    assert code == EXIT_OK
    assert "7651" in out.splitlines()[1]


def test_lambda_not_admissible_message(capsys):
    code, out, _ = run(capsys, "lambda", "--t", "2", "--v", "6", "--k", "3",
                       "--l", "1", "--q", "2")
    assert code == EXIT_OK
    assert out.strip().endswith("not admissible (lambda_1 = 31/3)")


def test_lambda_json_report(capsys):
    code, out, _ = run(capsys, "lambda", "--t", "2", "--v", "7", "--k", "3",
                       "--l", "1", "--q", "2", "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["outputs"]["admissible"] is True
    assert report["outputs"]["triangle"][0] == [[381, 1]]
    assert report["outputs"]["triangle"][2] == [[1, 1], [5, 1], [5, 1]]
    assert report["command"][0] == "qgeom"
    assert "wall_time_s" in report and report["version"]


def test_field_payload(capsys):
    code, out, _ = run(capsys, "field", "--q", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["modulus"] == [1, 1, 1]
    assert payload["mul"][2][2] == 3
    assert payload["inv"][0] is None


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lambda", "--t", "2"])
    assert exc.value.code == 64


REPO = Path(__file__).resolve().parents[1]

# Runs "module:function" (argv[1]) the way a console script does, with
# argv[0] = "qgeom". An entry point is expected to exit by itself, so
# falling off the end of it is reported as a failure.
ENTRY_POINT_RUNNER = """\
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
sys.argv[0] = "qgeom"
result = getattr(importlib.import_module(module), attr)()
sys.exit(f"entry point returned {result!r} instead of raising SystemExit")
"""


def _pyproject_string(table, key):
    """The string value of `key` under `[table]` in pyproject.toml (no
    tomllib on Python 3.10, and these two keys are plain strings)."""
    current = None
    for line in (REPO / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            current = line.strip("[]").strip()
        elif current == table:
            m = re.fullmatch(rf'{re.escape(key)}\s*=\s*"([^"]*)"\s*(#.*)?', line)
            if m:
                return m.group(1)
    raise AssertionError(f"pyproject.toml has no string {key!r} in [{table}]")


def test_installed_console_script(tmp_path):
    """The declared `qgeom` entry point starts in its own process and
    keeps the CLI contract; an installed `qgeom` script, if any, agrees."""
    entry_point = _pyproject_string("project.scripts", "qgeom")
    version = _pyproject_string("project", "version")
    assert version == qgeom.__version__

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    missing = str(tmp_path / "missing.json")

    def run_cli(command, *argv):
        return subprocess.run([*command, *argv], capture_output=True, text=True,
                              cwd=tmp_path, env=env, timeout=120)

    commands = [[sys.executable, "-c", ENTRY_POINT_RUNNER, entry_point]]
    installed = shutil.which("qgeom")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = run_cli(command, "--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (EXIT_OK, f"qgeom {version}\n", "")

        proc = run_cli(command, "gq", "check", missing)
        assert proc.returncode == EXIT_ERROR, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr


# ----------------------------------------------------------------------
# gq
# ----------------------------------------------------------------------

def test_gq_build_check_dual_iso_flow(tmp_path, capsys):
    w2 = tmp_path / "w2.json"
    q42 = tmp_path / "q4_2.json"
    assert run(capsys, "gq", "build", "--type", "W", "--q", "2",
               "--out", str(w2))[0] == EXIT_OK
    assert run(capsys, "gq", "build", "--type", "Q4", "--q", "2",
               "--out", str(q42))[0] == EXIT_OK
    code, out, _ = run(capsys, "gq", "check", str(w2))
    assert code == EXIT_OK and out.strip() == "GQ of order (2,2)"
    dual = tmp_path / "dual.json"
    assert run(capsys, "gq", "dual", str(w2), "--out", str(dual))[0] == EXIT_OK
    code, out, _ = run(capsys, "gq", "iso", str(dual), str(q42))
    assert code == EXIT_OK and out.startswith("isomorphic")


def test_gq_iso_negative(tmp_path, capsys):
    w2 = tmp_path / "w2.json"
    w3 = tmp_path / "w3.json"
    run(capsys, "gq", "build", "--type", "W", "--q", "2", "--out", str(w2))
    run(capsys, "gq", "build", "--type", "W", "--q", "3", "--out", str(w3))
    code, out, _ = run(capsys, "gq", "iso", str(w2), str(w3))
    assert code == EXIT_ERROR and out.strip() == "not isomorphic"


@pytest.mark.parametrize("limit,code", [("0", EXIT_BUDGET), ("1", EXIT_BUDGET),
                                        ("1e7", EXIT_OK)])
def test_gq_iso_limit_is_the_budget_even_at_zero(limit, code, tmp_path, capsys):
    w2, dual, q42 = (tmp_path / name for name in ("w2.json", "dual.json", "q42.json"))
    run(capsys, "gq", "build", "--type", "W", "--q", "2", "--out", str(w2))
    run(capsys, "gq", "build", "--type", "Q4", "--q", "2", "--out", str(q42))
    run(capsys, "gq", "dual", str(w2), "--out", str(dual))
    got, _, err = run(capsys, "gq", "iso", str(dual), str(q42), "--limit", limit)
    assert got == code
    assert err.startswith("budget exceeded") == (code == EXIT_BUDGET)


def test_gq_dual_pipes_through_stdin(tmp_path, capsys, monkeypatch):
    w2 = tmp_path / "w2.json"
    run(capsys, "gq", "build", "--type", "W", "--q", "2", "--out", str(w2))
    code, dual_payload, _ = run(capsys, "gq", "dual", str(w2))
    assert code == EXIT_OK
    q42 = tmp_path / "q4.json"
    run(capsys, "gq", "build", "--type", "Q4", "--q", "2", "--out", str(q42))
    monkeypatch.setattr("sys.stdin", io.StringIO(dual_payload))
    code, out, _ = run(capsys, "gq", "iso", "-", str(q42))
    assert code == EXIT_OK and out.startswith("isomorphic")


def test_gq_build_out_of_range(capsys):
    code, _, err = run(capsys, "gq", "build", "--type", "W", "--q", "17")
    assert code == EXIT_ERROR
    assert "error" in err


def test_gq_build_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "gq", "build", "--type", "Q4", "--q", "3", "--out", str(a))
    run(capsys, "gq", "build", "--type", "Q4", "--q", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


GQ_BUILD_SHA256 = {
    ("Q4", 2): "1ce2316217142ae06311c8eb48f03b4f6eac04cb4fe333cd736c56998c51206f",
    ("Q4", 3): "7380233572a30224d898fa2bb4dc427be04b2b351dcb356b72d1c29f0b4c5cac",
    ("Q4", 4): "8c64df0a229325f6c57d86a478ef985a6f67b094ae8ddba172a46733927d2067",
    ("Q4", 5): "d87372e3dd95c38b08bf844d8f3fb0b4da55599e75c0256492a346003f0a4d2d",
    ("W", 2): "49a5da072459cdf878541bd56434a59b427600bb096392aeda5fc6ec60bbb608",
    ("W", 3): "48771c7c84899e539595a546e0a7d2b9668264f819cd24a29be0cfeb183eb67a",
    ("W", 4): "eba5776862f009a1adb729fd2a66aa01b169186a657708335b5fc0d663f5ab51",
    ("W", 5): "d9c7d06322c466037e4d9860a2585710aea794fa5771e77dc1679fa5b3794995",
}


@pytest.mark.parametrize("kind,q", sorted(GQ_BUILD_SHA256))
def test_gq_build_payload_digest_is_pinned(kind, q, tmp_path, capsys):
    out = tmp_path / "gq.json"
    assert run(capsys, "gq", "build", "--type", kind, "--q", str(q),
               "--out", str(out))[0] == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GQ_BUILD_SHA256[kind, q]


@pytest.mark.parametrize("line_id", [5, -1])
def test_gq_check_rejects_unknown_line_ids(line_id, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"schema_version": 1, "points": 2, "lines": 1,
                             "incidence": [[0], [line_id]]}))
    code, out, err = run(capsys, "gq", "check", str(f))
    assert code == EXIT_ERROR and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert f"line id {line_id} outside the structure" in err


def _one_error_line(code, out, err):
    assert code == EXIT_ERROR and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize("argv", [("gq", "check"), ("gq", "dual"), ("search", "spreads")])
def test_label_entry_outside_the_field_is_rejected(argv, tmp_path, capsys):
    f = tmp_path / "w2.json"
    run(capsys, "gq", "build", "--type", "W", "--q", "2", "--out", str(f))
    payload = json.loads(f.read_text())
    assert payload["labels"]["points"][2]["rows"] == [[0, 0, 1, 1]]
    payload["labels"]["points"][2]["rows"] = [[0, 0, 1, 7]]  # still RREF, but 7 >= q
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(f))
    _one_error_line(code, out, err)
    assert "[0, 2)" in err


@pytest.mark.parametrize("argv", [("gq", "check"), ("gq", "dual"), ("search", "ovoids"),
                                  ("design", "geometric")])
@pytest.mark.parametrize("payload", [[1, 2], 3, "W(2)", None])
def test_payload_that_is_not_an_object_is_rejected(argv, payload, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(f))
    _one_error_line(code, out, err)
    assert "must be a JSON object" in err


@pytest.mark.parametrize("labels", [[1], {"points": 5}, {"lines": "x"}])
def test_labels_of_the_wrong_shape_are_rejected(labels, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"schema_version": 1, "points": 2, "lines": 1,
                             "incidence": [[0], [0]], "labels": labels}))
    _one_error_line(*run(capsys, "gq", "check", str(f)))


def _short_point_labels(payload):
    payload["labels"]["points"] = payload["labels"]["points"][:3]


def _long_line_labels(payload):
    payload["labels"]["lines"].append(payload["labels"]["lines"][0])


def _one_point_too_many(payload):
    payload["points"] += 1


def _lines_no_incidences_can_fill(payload):
    payload["lines"] = 2 * 10 ** 6


@pytest.mark.parametrize("mutate,message", [
    (_short_point_labels, "point labels must be a list of 15 subspaces"),
    (_long_line_labels, "line labels must be a list of 15 subspaces"),
    (_one_point_too_many, "structure has 16 points but 15 incidence rows"),
    (_lines_no_incidences_can_fill, "45 incidences cannot fill 2000000 distinct lines"),
])
@pytest.mark.parametrize("argv", [("gq", "check"), ("gq", "dual"), ("search", "ovoids")])
def test_structure_counts_must_agree(argv, mutate, message, tmp_path, capsys):
    f = tmp_path / "q4_2.json"
    run(capsys, "gq", "build", "--type", "Q4", "--q", "2", "--out", str(f))
    payload = json.loads(f.read_text())
    mutate(payload)
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(f))
    _one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize("field,value", [("v", "4"), ("k", None), ("q", 2.0), ("blocks", "x")])
def test_block_set_fields_of_the_wrong_type_are_rejected(field, value, tmp_path, capsys):
    payload = {"schema_version": 1, "v": 4, "k": 2, "q": 2, "blocks": []}
    payload[field] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    _one_error_line(*run(capsys, "design", "geometric", str(f)))


def _w2_payload(tmp_path, capsys):
    f = tmp_path / "w2.json"
    run(capsys, "gq", "build", "--type", "W", "--q", "2", "--out", str(f))
    return f, json.loads(f.read_text())


def test_structure_payload_missing_a_key_names_it(tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    del payload["lines"]
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert "structure payload has no key 'lines'" in err


def test_subspace_payload_missing_a_key_names_it(tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    del payload["labels"]["points"][3]["rows"]
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert "subspace payload has no key 'rows'" in err


def test_block_set_payload_missing_a_key_names_it(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"schema_version": 1, "v": 4, "k": 2, "q": 2}))
    code, out, err = run(capsys, "design", "geometric", str(f))
    _one_error_line(code, out, err)
    assert "block set payload has no key 'blocks'" in err


def test_line_label_with_decreasing_pivots_is_rejected(tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    rows = payload["labels"]["lines"][0]["rows"]
    payload["labels"]["lines"][0]["rows"] = rows[::-1]
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert err == "error: pivot columns must strictly increase\n"


def test_line_label_with_an_uncleared_pivot_column_is_rejected(tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    top, bottom = payload["labels"]["lines"][0]["rows"]
    # adding the second row to the first keeps both pivots but puts a 1
    # above the second pivot
    payload["labels"]["lines"][0]["rows"] = [[x ^ y for x, y in zip(top, bottom)], bottom]
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert "pivot columns must be cleared" in err


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

@pytest.fixture
def q4_2_file(tmp_path, capsys):
    f = tmp_path / "q4_2.json"
    run(capsys, "gq", "build", "--type", "Q4", "--q", "2", "--out", str(f))
    return str(f)


def test_search_exit_codes(q4_2_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "search", "ovoids", q4_2_file, "--out", str(cert))
    assert code == EXIT_OK
    payload = json.loads(cert.read_text())
    assert payload["solution_count"] == 6
    assert payload["completed"] is True

    code, _, _ = run(capsys, "search", "partition-ovoids", q4_2_file,
                     "--out", str(cert))
    assert code == EXIT_NONEXISTENCE
    payload = json.loads(cert.read_text())
    assert payload["mode"] == "nonexistence" and payload["completed"] is True

    code, _, _ = run(capsys, "search", "ovoids", q4_2_file, "--limit", "2",
                     "--out", str(cert))
    assert code == EXIT_BUDGET
    payload = json.loads(cert.read_text())
    assert payload["completed"] is False


@pytest.mark.parametrize("flag,value", [("--limit", "-5"), ("--limit", "-1e3"),
                                        ("--limit", "1.5"), ("--limit", "nan"),
                                        ("--max-solutions", "0"), ("--max-solutions", "-2"),
                                        ("--workers", "0"), ("--workers", "-3"),
                                        ("--workers", "2.5")])
def test_search_budget_flags_reject_bad_values(flag, value, q4_2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "ovoids", q4_2_file, flag, value])
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err


def test_search_budget_flags_parse_exactly():
    args = build_parser().parse_args(["search", "ovoids", "x.json",
                                      "--limit", "9007199254740993",
                                      "--max-solutions", "1e7"])
    assert args.limit == 9007199254740993 and type(args.limit) is int
    assert args.max_solutions == 10 ** 7 and type(args.max_solutions) is int
    assert build_parser().parse_args(["search", "ovoids", "x.json", "--limit", "0"]).limit == 0


def test_search_pg_spreads_writes_spread_file(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    spread = tmp_path / "spread.json"
    code, _, _ = run(capsys, "search", "pg-spreads", "--v", "6", "--q", "2",
                     "--mode", "first", "--max-solutions", "1",
                     "--limit", "1e7", "--seed", "7",
                     "--out", str(cert), "--spread-out", str(spread))
    assert code == EXIT_OK
    blocks = json.loads(spread.read_text())
    assert blocks["v"] == 6 and blocks["k"] == 2 and len(blocks["blocks"]) == 21
    cert_payload = json.loads(cert.read_text())
    assert cert_payload["seed"] == 7


def test_search_pg_spreads_policy_budget(capsys):
    code, _, _ = run(capsys, "search", "pg-spreads", "--v", "6", "--q", "3",
                     "--mode", "first", "--max-solutions", "1")
    assert code == EXIT_BUDGET


def test_workers_env_fallback(q4_2_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QGEOM_WORKERS", "2")
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "search", "ovoids", q4_2_file, "--out", str(cert))
    assert code == EXIT_OK
    assert json.loads(cert.read_text())["solution_count"] == 6


def test_workers_env_value_is_parsed_like_the_flag(q4_2_file, capsys, monkeypatch):
    argv = ["search", "ovoids", q4_2_file]
    monkeypatch.delenv("QGEOM_WORKERS", raising=False)
    assert build_parser().parse_args(argv).workers == 1
    monkeypatch.setenv("QGEOM_WORKERS", "3")
    assert build_parser().parse_args(argv).workers == 3
    assert build_parser().parse_args(argv + ["--workers", "2"]).workers == 2
    for value in ("0", "-3", "two"):
        monkeypatch.setenv("QGEOM_WORKERS", value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "argument --workers" in capsys.readouterr().err


# ----------------------------------------------------------------------
# design
# ----------------------------------------------------------------------

def test_design_spread_gen_check_geometric_flow(tmp_path, capsys, monkeypatch):
    spread = tmp_path / "spread.json"
    code, out, err = run(capsys, "design", "spread-gen", "--v", "6", "--k", "2",
                         "--q", "2", "--out", str(spread))
    assert code == EXIT_OK
    assert "21 blocks" in err
    code, out, _ = run(capsys, "design", "geometric", str(spread))
    assert code == EXIT_OK and out.strip() == "geometric: true"
    # pipe the payload through stdin
    payload = spread.read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "design", "geometric", "-")
    assert code == EXIT_OK and out.strip() == "geometric: true"


def test_design_check_pass_and_fail(tmp_path, capsys):
    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    code, out, _ = run(capsys, "design", "check", str(spread), "--t", "1",
                       "--v", "4", "--k", "2", "--l", "1", "--q", "2")
    assert code == EXIT_OK and out.strip() == "pass: 1-(4,2,1)_2"
    # remove one block and expect failure with witnesses
    payload = json.loads(spread.read_text())
    payload["blocks"] = payload["blocks"][:-1]
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "design", "check", str(damaged), "--t", "1",
                       "--v", "4", "--k", "2", "--l", "1", "--q", "2")
    assert code == EXIT_ERROR and out.startswith("fail")


def test_design_geometric_false_with_witness(tmp_path, capsys):
    spread = tmp_path / "ng.json"
    run(capsys, "search", "pg-spreads", "--v", "6", "--q", "2",
        "--mode", "first", "--max-solutions", "1", "--seed", "7",
        "--spread-out", str(spread))
    code, out, _ = run(capsys, "design", "geometric", str(spread))
    assert code == EXIT_ERROR
    assert out.startswith("geometric: false, witness 4-subspace")


def test_design_derive_and_dual(tmp_path, capsys):
    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    code, out, _ = run(capsys, "design", "derive", str(spread), "--point", "0")
    assert code == EXIT_OK
    derived = json.loads(out)
    assert derived["v"] == 3 and derived["k"] == 1 and len(derived["blocks"]) == 1
    code, out, _ = run(capsys, "design", "dual", str(spread))
    assert code == EXIT_OK
    dual = json.loads(out)
    assert dual["k"] == 2 and len(dual["blocks"]) == 5


def test_design_alpha_via_files(tmp_path, capsys):
    # build the cone over the Desarguesian spread of PG(5,2) and check
    # its apex from the CLI; the apex (0,...,0,1) is the lexicographically
    # first point of PG(6,2)
    from qgeom.designs import blockset_to_json, cone_over, desarguesian_spread
    from qgeom.gf import field_new

    lifted, apex = cone_over(desarguesian_spread(6, 2, field_new(2)))
    assert apex.index == 0
    blocks = tmp_path / "cone.json"
    blocks.write_text(json.dumps(blockset_to_json(lifted)))
    code, out, _ = run(capsys, "design", "alpha", str(blocks),
                       "--point", str(apex.index))
    assert code == EXIT_OK and out.strip() == "alpha point: true"


def test_design_derive_point_out_of_range(tmp_path, capsys):
    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    code, _, err = run(capsys, "design", "derive", str(spread), "--point", "99")
    assert code == EXIT_ERROR and "point index" in err
