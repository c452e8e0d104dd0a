"""CLI surface tests: exit-code contract, JSON payloads, piping via '-',
and golden human renderings."""

import argparse
import ast
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import qgeom
from qgeom import designs, gf, gq, search
from qgeom.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_NONEXISTENCE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from qgeom.projspace import point_index

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


HUGE_PRIME = 2 ** 61 - 1  # trial division up to its square root takes minutes


@pytest.mark.parametrize("command", ["field", "design dual", "design geometric"])
def test_a_huge_q_is_refused_before_it_is_factored(command, tmp_path, capsys, monkeypatch):
    def no_factoring(q):
        raise AssertionError(f"factored q={q}")

    monkeypatch.setattr(gf, "prime_power_decomposition", no_factoring)
    monkeypatch.setattr(designs, "prime_power_decomposition", no_factoring)
    if command == "field":
        argv = ["field", "--q", str(HUGE_PRIME)]
    else:
        block = {"v": 2, "k": 1, "q": HUGE_PRIME, "rows": [[1, 0]]}
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps({"v": 2, "k": 1, "q": HUGE_PRIME, "blocks": [block]}))
        argv = [*command.split(), str(path)]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert err == f"error: q={HUGE_PRIME} exceeds the supported maximum 16\n"


@pytest.mark.parametrize("argv", [
    ["lambda", "--t", "1", "--v", "2", "--k", "1", "--l", "1", "--q", str(HUGE_PRIME)],
    ["design", "check", "blocks.json", "--t", "1", "--v", "4", "--k", "2", "--l", "1",
     "--q", str(HUGE_PRIME)],
], ids=["lambda", "design check"])
def test_a_huge_prime_q_ends_in_one_error_line(argv, tmp_path):
    """Trial division stops at 2^16, so a huge prime q is refused at once.
    The command runs in its own process with a timeout, so a return of
    the endless factoring fails the test instead of hanging the suite."""
    (tmp_path / "blocks.json").write_text(json.dumps({"v": 4, "k": 2, "q": 2, "blocks": []}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "qgeom.cli", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
    assert proc.stderr == (f"error: q={HUGE_PRIME} has no prime factor up to 2^16 "
                           "and is too large to factor\n")


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


# Runs the paper's pipeline through cli.main in one fresh interpreter
# (argv[1] is a scratch directory) and prints which heavy modules each
# stage left loaded; the pytest process itself already holds numpy.
LAZY_IMPORT_RUNNER = """\
import json, sys
from pathlib import Path
from qgeom import cli, gq
d = Path(sys.argv[1])
loaded = lambda: sorted({"numpy", "multiprocessing"} & sys.modules.keys())
after_import = loaded()
codes = [cli.main(argv) for argv in (
    ["gq", "build", "--type", "Q4", "--q", "3", "--out", str(d / "q4.json")],
    ["gq", "build", "--type", "W", "--q", "3", "--out", str(d / "w.json")],
    ["gq", "check", str(d / "q4.json")],
    ["search", "ovoids", str(d / "q4.json"), "--out", str(d / "ovoids.json")],
    ["search", "partition-ovoids", str(d / "q4.json"), "--out", str(d / "part.json")],
    ["gq", "dual", str(d / "w.json"), "--out", str(d / "dual.json")])]
with open(d / "dual.json") as sys.stdin:
    codes.append(cli.main(["gq", "iso", "-", str(d / "q4.json")]))
after_pipeline = loaded()
ovoid = json.loads((d / "ovoids.json").read_text())["solutions"][0]
elliptic = gq.is_elliptic_quadric_ovoid(gq.build_q4(3), ovoid)
print(json.dumps([after_import, codes, after_pipeline, elliptic, loaded()]))
"""


def test_cli_pipeline_loads_neither_numpy_nor_multiprocessing(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORT_RUNNER, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, codes, after_pipeline, elliptic, after_elliptic = \
        json.loads(proc.stdout.splitlines()[-1])
    assert after_import == after_pipeline == []
    assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_NONEXISTENCE, EXIT_OK, EXIT_OK]
    # the elliptic test runs on bit-packed label rows, without numpy
    assert elliptic is True and after_elliptic == []


def test_only_search_imports_numpy():
    """numpy serves search.pairwise_intersection_matrix alone, so no other
    module under qgeom/ may import it."""
    importers = set()
    for path in sorted((REPO / "src" / "qgeom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.add(path.name)
    assert importers == {"search.py"}


def test_only_projspace_imports_dot():
    """The convention b(x, y) = x . (G y) lives in projspace, so no other
    module under qgeom/ may import gf.dot to evaluate a form itself."""
    importers = set()
    for path in sorted((REPO / "src" / "qgeom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "gf"
                    and any(alias.name == "dot" for alias in node.names)):
                importers.add(path.name)
    assert importers <= {"projspace.py"}


def test_designs_does_not_import_the_point_table():
    """The design predicates read containment off the blocks' own rows, so
    designs may not import the table of every point of PG(v-1, q)."""
    path = REPO / "src" / "qgeom" / "designs.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "_point_ids" not in imported


def test_every_import_is_used():
    """Each name a module under qgeom/ imports is read in that module;
    __init__ imports to re-export, and __future__ imports bind nothing."""
    unused = []
    for path in sorted((REPO / "src" / "qgeom").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_no_module_reads_the_process_environment():
    """argv alone decides a payload, so nothing under qgeom/ may read
    os.environ, os.getenv or their bytes twins."""
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted((REPO / "src" / "qgeom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in readers
                    or isinstance(node, ast.ImportFrom)
                    and any(alias.name in readers for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_touches_an_instance_dict():
    """On CPython 3.11 and later, reading an instance's __dict__ builds a
    dict next to its inline attribute values, so nothing under qgeom/ may
    name __dict__ or call vars."""
    found = []
    for path in sorted((REPO / "src" / "qgeom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                    or isinstance(node, ast.Name) and node.id in {"__dict__", "vars"}
                    or isinstance(node, ast.Constant) and node.value == "__dict__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_canonical_builds_a_subspace_unchecked():
    """tuple.__new__ skips Subspace's validating __new__, so under qgeom/
    it may be called only in projspace._canonical, on Subspace itself."""
    found = []
    for path in sorted((REPO / "src" / "qgeom").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # each node to its innermost function: ast.walk goes outside in
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__"
                    and getattr(node.func.value, "id", None) == "tuple"):
                found.append((path.name, owner.get(node, "<module>"),
                              ast.unparse(node.args[0]) if node.args else None))
    assert found == [("projspace.py", "_canonical", "Subspace")]


# Every process-lifetime cache in qgeom/ and the key that bounds it.  A
# cache keyed by anything larger, such as a Grassmannian per (v, k, q),
# would pin what its callers drop; a new cache joins this list on purpose.
PROCESS_CACHES = {
    "gf.field_new": "q <= 16",
    "gf.arith": "one FieldSpec per q",
    "gf.ops_for_order": "q <= 16",
    "gq.build_w": "q <= 16",
    "gq.build_q4": "q <= 16",
    "projspace._point_ids": "(v, q), the point ids of PG(v-1, q)",
    "projspace._gram_rank": "(form, q)",
    "cli.build_parser": "no argument",
}


# Every per-object cache in qgeom/.  A functools.cached_property stores its
# value in the instance dict, so it lives as long as that object and cannot
# sit on a slotted value such as projspace.Subspace; a new one joins this
# list on purpose.
OBJECT_CACHES = {
    "gq.IncidenceStructure.line_masks",
    "gq.IncidenceStructure.point_masks",
    "gq.IncidenceStructure.label_rows",
}


def _decorated(decorators):
    """module.function or module.Class.method for each function in qgeom/
    that one of the named decorators wraps."""
    found = set()
    for path in sorted((REPO / "src" / "qgeom").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {m: f"{c.name}." for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for m in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name in decorators:
                    found.add(f"{path.stem}.{owner.get(node, '')}{node.name}")
    return found


def test_every_process_lifetime_cache_is_listed():
    """functools.lru_cache and functools.cache keep their entries for the
    life of the process, so each function they decorate must be listed in
    PROCESS_CACHES."""
    assert _decorated({"lru_cache", "cache"}) == set(PROCESS_CACHES)


def test_every_per_object_cache_is_listed():
    assert _decorated({"cached_property"}) == OBJECT_CACHES


def _option_strings(parser):
    """Every option string of parser and of its subparsers, recursively."""
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _option_strings(sub)
    return flags


def test_every_flag_named_in_the_readme_is_accepted():
    """README advertises no flag that the CLI refuses; pip's
    --no-build-isolation is the one flag it names for another tool."""
    named = set(re.findall(r"--[a-z][a-z0-9-]*", (REPO / "README.md").read_text()))
    assert named - _option_strings(build_parser()) - {"--no-build-isolation"} == set()


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


@pytest.mark.parametrize("incidence,summary", [
    ([[0]], "GQ of order (0,0) (degenerate)"),  # one point on one 1-point line
    ([[0, 1], [0], [1]], "axioms hold but line size / point degree is not constant"),
])
def test_gq_check_summaries_of_valid_structures(incidence, summary, tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"schema_version": 1, "points": len(incidence),
                             "lines": 1 + max(j for ls in incidence for j in ls),
                             "incidence": incidence}))
    code, out, _ = run(capsys, "gq", "check", str(f))
    assert code == EXIT_OK and out.strip() == summary


def test_gq_iso_negative(tmp_path, capsys):
    w2 = tmp_path / "w2.json"
    w3 = tmp_path / "w3.json"
    run(capsys, "gq", "build", "--type", "W", "--q", "2", "--out", str(w2))
    run(capsys, "gq", "build", "--type", "W", "--q", "3", "--out", str(w3))
    code, out, _ = run(capsys, "gq", "iso", str(w2), str(w3))
    assert code == EXIT_ERROR and out.strip() == "not isomorphic"


def test_gq_iso_negative_found_by_the_search(tmp_path, capsys):
    # a 12-cycle and two 6-cycles agree in every count, degree and
    # perp-perp profile
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    for path, lines in ((one, [(i, (i + 1) % 12) for i in range(12)]),
                        (two, [(s + i, s + (i + 1) % 6) for s in (0, 6) for i in range(6)])):
        path.write_text(json.dumps(gq.structure_to_json(gq.incidence_from_lines(12, lines))))
    code, out, _ = run(capsys, "gq", "iso", str(one), str(two))
    assert code == EXIT_ERROR and out.strip() == "not isomorphic"


def test_gq_iso_refuses_w3_against_q43_before_the_search(tmp_path, capsys):
    w3, q43 = tmp_path / "w3.json", tmp_path / "q43.json"
    run(capsys, "gq", "build", "--type", "W", "--q", "3", "--out", str(w3))
    run(capsys, "gq", "build", "--type", "Q4", "--q", "3", "--out", str(q43))
    code, out, _ = run(capsys, "gq", "iso", str(w3), str(q43), "--limit", "1e5")
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


def test_gq_iso_refuses_stdin_for_both_inputs(monkeypatch, capsys):
    def no_read(*args):
        raise AssertionError("stdin was read")

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    monkeypatch.setattr(sys.stdin, "read", no_read)
    with pytest.raises(SystemExit) as exc:
        main(["gq", "iso", "-", "-"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument b: stdin can be read only once, "
                                 "and argument a reads it\n")


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


FIELD_SHA256 = {
    2: "bf03dd0ca2a4afbbab0daf4c3c070837e4c7631280725361c7553406aca427d9",
    3: "0e5f01f29a99bc3c0d51e6cfb78dfdf87fe9d17963df0793b28433a2f1107b0f",
    4: "132816b35028201ace0b8ee182343021414ee0f60353916ec87ad5586c88f665",
    5: "45187805ac5c30cffe29bb7bc6f47f1f7eef2b9592897d61d26795d0e82fbc3c",
    7: "a3c30f653e08e4730788c41b9183f5962bfab965d59c95b42745438355113748",
    8: "0e8612fb30a2a14cb0056cf213e38cfc85894e21bae41d5abe700a92d3e7c9fb",
    9: "6d2fd820c8ec1d38d24789cf433dbdb4381a6056cb0c56310a67141f0c40e576",
    11: "5f8ab1700679650ed6ac7b2786e1f6febf2d72832d275701b822dd34ab1a51fe",
    13: "03bd4d4073f398a083fb46e6b199573d62501f5012ca6a071cb91a4ecb596292",
    16: "34e357710be673f884f7291fb744f8593c000bf330ed1fe32f2e838b91d20786",
}


@pytest.mark.parametrize("q", sorted(FIELD_SHA256))
def test_field_payload_digest_is_pinned(q, tmp_path, capsys):
    out = tmp_path / "field.json"
    assert run(capsys, "field", "--q", str(q), "--out", str(out))[0] == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIELD_SHA256[q]


GQ_BUILD_SHA256 = {
    ("Q4", 2): "1ce2316217142ae06311c8eb48f03b4f6eac04cb4fe333cd736c56998c51206f",
    ("Q4", 3): "7380233572a30224d898fa2bb4dc427be04b2b351dcb356b72d1c29f0b4c5cac",
    ("Q4", 4): "8c64df0a229325f6c57d86a478ef985a6f67b094ae8ddba172a46733927d2067",
    ("Q4", 5): "d87372e3dd95c38b08bf844d8f3fb0b4da55599e75c0256492a346003f0a4d2d",
    ("Q4", 7): "6998488f812e0bfb35a3d578a0bf22d822bb8aa7b9b83fde05440d93dca5ac3d",
    ("Q4", 8): "e5a3c2720e55c5a9de75c0453f4c71abe8a8015ff4e432675b024821ccf80f46",
    ("Q4", 9): "a4744d681b222a1ae8d4cced140ad09f9c6fb232d8f57768e4d480574c0d5408",
    ("W", 2): "49a5da072459cdf878541bd56434a59b427600bb096392aeda5fc6ec60bbb608",
    ("W", 3): "48771c7c84899e539595a546e0a7d2b9668264f819cd24a29be0cfeb183eb67a",
    ("W", 4): "eba5776862f009a1adb729fd2a66aa01b169186a657708335b5fc0d663f5ab51",
    ("W", 5): "d9c7d06322c466037e4d9860a2585710aea794fa5771e77dc1679fa5b3794995",
    ("W", 7): "358ca44d3ebc31904e53bf9ce5840d64d9993c6a6863b530bba6e27966266ac1",
    ("W", 8): "2e51a4a6ee7fa5799412996cf110edd29247d53b0350d3f120173ef6b3cdc954",
    ("W", 9): "f1b5ef29d42d8018f56b1c5b9d0e41efdfd01401ff733d79c8221ce8b3dc29e6",
}


@pytest.mark.parametrize("kind,q", sorted(GQ_BUILD_SHA256))
def test_gq_build_payload_digest_is_pinned(kind, q, tmp_path, capsys):
    out = tmp_path / "gq.json"
    assert run(capsys, "gq", "build", "--type", kind, "--q", str(q),
               "--out", str(out))[0] == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GQ_BUILD_SHA256[kind, q]


SPREAD_GEN_SHA256 = {
    (4, 2, 2): "5ef51f29f6eba50b1e8af434b1ad49712f941ebfbf67db1e0f306538fa4250f7",
    (4, 2, 3): "3027287adb26339cf1c726989548abd58dfdecccc16442a7dd3958e23946dee5",
    (4, 2, 4): "561c84d9b91535c2b9294c416180bef09f8f73e2a642d29f02912049ecdd31a8",
    (4, 2, 5): "c0817718d9a3ff4696769905f015eb2b538d25de9dd7f253a528c61e8b77068b",
    (6, 2, 2): "e0f519ab38e3393ad629664b92d75b6462c568062e062917cc1324b69e29b885",
    (6, 3, 2): "09afac417642ffbaa45452939d4c519a302219f6683402499cc3f2d2cb26a4eb",
    (6, 2, 3): "3f634d4a7a896b28c65a9bfa5e6b4d92d05b76160cae91cf34bc02f458b5ef98",
    (12, 6, 2): "f02ff3d75b00c926bfeca203a13db816e52a40d757f1b6b336adf606c4a072f9",
}


@pytest.mark.parametrize("v,k,q", sorted(SPREAD_GEN_SHA256))
def test_design_spread_gen_payload_digest_is_pinned(v, k, q, tmp_path, capsys):
    out = tmp_path / "spread.json"
    assert run(capsys, "design", "spread-gen", "--v", str(v), "--k", str(k), "--q", str(q),
               "--out", str(out))[0] == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SPREAD_GEN_SHA256[v, k, q]


DESIGN_DUAL_SHA256 = {  # `design dual` of the `design spread-gen` payloads above
    (4, 2, 2): "5ef51f29f6eba50b1e8af434b1ad49712f941ebfbf67db1e0f306538fa4250f7",
    (4, 2, 3): "3027287adb26339cf1c726989548abd58dfdecccc16442a7dd3958e23946dee5",
    (4, 2, 4): "de00c5f5ff20b623f1987ab2691d8af7870cd9a4e2ed3263ef3e333d01c747dc",
    (4, 2, 5): "dffa9e897c037edb88bee11d1f3bbf7ef68f281734ee4ed8a54d622a55aaad56",
    (6, 3, 2): "ef9f787223f06aa85da6e48712b45b2b3c9a5ae7352afce364c56142f587c8c4",
}


@pytest.mark.parametrize("v,k,q", sorted(DESIGN_DUAL_SHA256))
def test_design_dual_payload_digest_is_pinned(v, k, q, tmp_path, capsys):
    spread, dual = tmp_path / "spread.json", tmp_path / "dual.json"
    run(capsys, "design", "spread-gen", "--v", str(v), "--k", str(k), "--q", str(q),
        "--out", str(spread))
    assert run(capsys, "design", "dual", str(spread), "--out", str(dual))[0] == EXIT_OK
    assert hashlib.sha256(dual.read_bytes()).hexdigest() == DESIGN_DUAL_SHA256[v, k, q]


GQ_ISO_SHA256 = {
    2: "8033a52b13ab30b917389ba2da859efa31c87c1758034ddd9e2553c39175169f",
    3: "d682ed0f95d7cdb6ca577eec0a6eaf25d49c57de3b560be2a1b6515cd025dc46",
    4: "41313715357d92b3b8c99bd183921e27b19c832b23a722c203e5d490a97e956c",
    5: "f707e22f5b5d447ea4d6a9808b04a2f0bbb5da6f5dc8524fd60a4311764bee58",
}


@pytest.mark.parametrize("q", sorted(GQ_ISO_SHA256))
def test_gq_iso_payload_digest_is_pinned(q, tmp_path, capsys):
    w, q4, dual, iso = (tmp_path / name for name in ("w.json", "q4.json", "dual.json",
                                                     "iso.json"))
    run(capsys, "gq", "build", "--type", "W", "--q", str(q), "--out", str(w))
    run(capsys, "gq", "build", "--type", "Q4", "--q", str(q), "--out", str(q4))
    run(capsys, "gq", "dual", str(w), "--out", str(dual))
    assert run(capsys, "gq", "iso", str(dual), str(q4), "--out", str(iso))[0] == EXIT_OK
    assert hashlib.sha256(iso.read_bytes()).hexdigest() == GQ_ISO_SHA256[q]


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


def test_gq_check_refuses_a_deeply_nested_payload(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 10_000 + "]" * 10_000)
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert "nested too deeply" in err


def test_gq_check_refuses_a_line_id_listed_twice(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"schema_version": 1, "points": 2, "lines": 2,
                             "incidence": [[0, 0], [1]]}))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert err == "error: point 0 lists line id 0 twice\n"


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
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert "labels must be" in err  # not the two points with one pencil, checked later


@pytest.mark.parametrize("labels", [[], 0, False, ""])
def test_labels_that_are_not_an_object_are_not_read_as_none(labels, tmp_path, capsys):
    """Only an absent or null key means no labels; an empty value of
    another type is refused, not dropped."""
    f, payload = _w2_payload(tmp_path, capsys)
    payload["labels"] = labels
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "dual", str(f))
    _one_error_line(code, out, err)
    assert err == f"error: labels must be a JSON object, not {type(labels).__name__}\n"


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


_POINT = {"v": 3, "k": 1, "q": 2, "rows": [[1, 0, 0]]}
_LINE = {"v": 3, "k": 2, "q": 2, "rows": [[1, 0, 0], [0, 1, 0]]}


@pytest.mark.parametrize("labels,message", [
    ({"points": [_POINT, _POINT], "lines": [_LINE, _LINE]},
     "error: point labels list 2 subspaces, 1 of them distinct\n"),
    ({"lines": [_LINE, _LINE]}, "error: line labels list 2 subspaces, 1 of them distinct\n"),
])
@pytest.mark.parametrize("argv", [("gq", "dual"), ("gq", "check")])
def test_a_label_carried_twice_is_rejected(argv, labels, message, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"schema_version": 1, "points": 2, "lines": 2,
                             "incidence": [[0], [1]], "labels": labels}))
    code, out, err = run(capsys, *argv, str(f))
    _one_error_line(code, out, err)
    assert err == message


@pytest.mark.parametrize("kind", ["points", "lines"])
def test_a_built_label_copied_over_another_is_rejected(kind, tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    payload["labels"][kind][0] = payload["labels"][kind][1]
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "dual", str(f))
    _one_error_line(code, out, err)
    assert err == f"error: {kind[:-1]} labels list 15 subspaces, 14 of them distinct\n"


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


def test_gq_check_refuses_another_schema_version(tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    payload["schema_version"] = 7
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert err == "error: structure schema_version must be 1, not 7\n"


def test_line_label_with_decreasing_pivots_is_rejected(tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    rows = payload["labels"]["lines"][0]["rows"]
    payload["labels"]["lines"][0]["rows"] = rows[::-1]
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert err == "error: basis is not in reduced row-echelon form\n"


def test_line_label_with_an_uncleared_pivot_column_is_rejected(tmp_path, capsys):
    f, payload = _w2_payload(tmp_path, capsys)
    top, bottom = payload["labels"]["lines"][0]["rows"]
    # adding the second row to the first keeps both pivots but puts a 1
    # above the second pivot
    payload["labels"]["lines"][0]["rows"] = [[x ^ y for x, y in zip(top, bottom)], bottom]
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "gq", "check", str(f))
    _one_error_line(code, out, err)
    assert err == "error: basis is not in reduced row-echelon form\n"


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


@pytest.mark.parametrize("what", ["spreads", "ovoids"])
def test_search_deeper_than_the_recursion_limit(what, tmp_path, capsys):
    f, cert = tmp_path / "deep.json", tmp_path / "cert.json"
    f.write_text(json.dumps({"schema_version": 1, "points": 1200, "lines": 1200,
                             "incidence": [[i] for i in range(1200)]}))
    code, _, err = run(capsys, "search", what, str(f), "--out", str(cert))
    assert code == EXIT_OK and err == "mode=all solutions=1 nodes=1200 completed\n"
    payload = json.loads(cert.read_text())
    assert payload["solutions"] == [list(range(1200))] and payload["nodes"] == 1200


@pytest.mark.parametrize("what,level", [("partition-ovoids", "ovoid"),
                                        ("partition-spreads", "spread")])
def test_partition_first_level_abort_emits_no_certificate(what, level, q4_2_file, tmp_path,
                                                          capsys):
    cert = tmp_path / "cert.json"
    for out_flag in ([], ["--out", str(cert)]):
        code, out, err = run(capsys, "search", what, q4_2_file, "--limit", "3", *out_flag)
        assert code == EXIT_BUDGET and out == "" and not cert.exists()
        assert err == (f"budget exceeded: first level ({level} enumeration): "
                       "node budget 3 exceeded\n")


@pytest.mark.parametrize("flag,value", [("--limit", "-5"), ("--limit", "-1e3"),
                                        ("--limit", "1.5"), ("--limit", "nan"),
                                        ("--max-solutions", "0"), ("--max-solutions", "-2")])
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


@pytest.mark.parametrize("flag", ["--limit", "--max-solutions"])
def test_search_budget_flags_stop_at_the_int_digit_limit(flag, capsys):
    """A budget may have as many digits as ``int()`` reads (4,300 by
    default), however it is spelled; a longer one, or any exponent above
    that limit, is a usage error before a power of ten is built.  A limit
    of 0 lifts the bound, as it does for ``int()``."""
    def parse(text):
        args = build_parser().parse_args(["search", "ovoids", "x.json", flag, text])
        return getattr(args, flag[2:].replace("-", "_"))

    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert parse("1e4299") == parse("1" + "0" * 4299) == 10 ** 4299
        for text in ("1e4300", "1" + "0" * 4300, "1e99999999", "1e-99999999"):
            t0 = time.monotonic()
            with pytest.raises(SystemExit) as exc:
                parse(text)
            assert exc.value.code == EXIT_USAGE and time.monotonic() - t0 < 1
            assert f"argument {flag}: expected an integer" in capsys.readouterr().err
        sys.set_int_max_str_digits(0)
        assert parse("1e4300") == parse("1" + "0" * 4300) == 10 ** 4300
    finally:
        sys.set_int_max_str_digits(saved)


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


def test_search_pg_spreads_count_mode_refuses_a_spread_file(tmp_path, capsys):
    spread = tmp_path / "spread.json"
    with pytest.raises(SystemExit) as exc:
        main(["search", "pg-spreads", "--v", "4", "--q", "2", "--mode", "count",
              "--spread-out", str(spread)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not spread.exists()
    assert captured.err.endswith("error: argument --spread-out: count mode stores "
                                 "no spread to write\n")


def test_search_pg_spreads_policy_budget(capsys):
    code, _, _ = run(capsys, "search", "pg-spreads", "--v", "6", "--q", "3",
                     "--mode", "first", "--max-solutions", "1")
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("argv", [["search", "ovoids", "FILE"],
                                  ["search", "pg-spreads", "--v", "4", "--q", "3"]])
def test_search_refuses_a_worker_count(argv, q4_2_file, capsys):
    argv = [q4_2_file if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --workers 2\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == EXIT_OK
    assert "--workers" not in capsys.readouterr().out


PG33_LIMIT_1000_SHA256 = "73abda584ea3bd4597b6b81b93c6d91e3f6ed9bb03d7541d6d11fc9f585559a5"


def test_workers_env_is_ignored(tmp_path, capsys, monkeypatch):
    """argv alone decides the payload: --limit bounds the whole tree,
    and no environment value may change that."""
    argv = ["search", "pg-spreads", "--v", "4", "--q", "3", "--limit", "1000", "--out"]
    monkeypatch.delenv("QGEOM_WORKERS", raising=False)
    plain = tmp_path / "plain.json"
    assert run(capsys, *argv, str(plain))[0] == EXIT_BUDGET
    payload = json.loads(plain.read_text())
    assert (payload["nodes"], payload["solution_count"]) == (1001, 175)
    assert hashlib.sha256(plain.read_bytes()).hexdigest() == PG33_LIMIT_1000_SHA256
    for value in ("2", "0"):
        monkeypatch.setenv("QGEOM_WORKERS", value)
        cert = tmp_path / f"env_{value}.json"
        assert run(capsys, *argv, str(cert))[0] == EXIT_BUDGET
        assert cert.read_bytes() == plain.read_bytes()


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


@pytest.mark.parametrize("argv", [("check", "--t", "1", "--v", "4", "--k", "2", "--l", "1",
                                   "--q", "2"), ("geometric",)])
def test_design_block_listed_twice_is_rejected(argv, tmp_path, capsys):
    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    payload = json.loads(spread.read_text())
    payload["blocks"].insert(1, payload["blocks"][0])
    spread.write_text(json.dumps(payload))
    code, out, err = run(capsys, "design", argv[0], str(spread), *argv[1:])
    _one_error_line(code, out, err)
    assert err == "error: block set lists 6 blocks, 5 of them distinct\n"


def _sampled_spread(tmp_path, capsys):
    spread = tmp_path / "ng.json"
    run(capsys, "search", "pg-spreads", "--v", "6", "--q", "2",
        "--mode", "first", "--max-solutions", "1", "--seed", "7",
        "--spread-out", str(spread))
    return spread


def _switched_spread(tmp_path, switched_spread):
    from qgeom.designs import blockset_to_json

    spread = tmp_path / "switched.json"
    spread.write_text(json.dumps(blockset_to_json(switched_spread)))
    return spread


# payload digests and summaries recorded from the all-pairs geometric scan
DESIGN_GEOMETRIC_FALSE = {
    "sampled": ("c23e2cb2e4f02b0f11cdced16ee87613b137b21b801e4a8a72a7b7ef95f22d86",
                "[[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], "
                "[0, 0, 0, 0, 0, 1]]"),
    "switched": ("aa0b6ba9cc5af69864f5faea322378dd2eba0d14affb5035d04eb079ad7aafd6",
                 "[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1], "
                 "[0, 0, 0, 1, 1, 0]]"),
}


def _assert_geometric_false(case, spread, tmp_path, capsys):
    payload = tmp_path / "geometric.json"
    code, out, _ = run(capsys, "design", "geometric", str(spread), "--out", str(payload))
    digest, rows = DESIGN_GEOMETRIC_FALSE[case]
    assert code == EXIT_ERROR
    assert out == f"geometric: false, witness 4-subspace {rows} holds 2 blocks\n"
    assert hashlib.sha256(payload.read_bytes()).hexdigest() == digest


def test_design_geometric_false_with_witness(tmp_path, capsys):
    _assert_geometric_false("sampled", _sampled_spread(tmp_path, capsys), tmp_path, capsys)


def test_design_geometric_false_on_a_spread_switched_in_one_solid(tmp_path, capsys,
                                                                 switched_spread):
    _assert_geometric_false("switched", _switched_spread(tmp_path, switched_spread),
                            tmp_path, capsys)


@pytest.mark.parametrize("blocks", [[], [{"v": 64, "k": 1, "q": 2, "rows": [[0] * 63 + [1]]}]],
                         ids=["empty", "one-point"])
def test_design_geometric_refuses_too_few_blocks_in_a_huge_space(blocks, tmp_path, capsys):
    # PG(63,2) has 2^64 - 1 points: neither q^v nor a mask of them may be built
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"schema_version": 1, "v": 64, "k": 1, "q": 2, "blocks": blocks}))
    code, out, err = run(capsys, "design", "geometric", str(f))
    _one_error_line(code, out, err)
    assert err == "error: block set is not a spread\n"


# (exit code, payload digest) of `design alpha` at the apex of the cone over each spread
DESIGN_ALPHA = {
    "desarguesian": (EXIT_OK, "9f629cea386cd21f144213f11700e1c68def6c31318da0d972aec46cb135f0f2"),
    "sampled": (EXIT_ERROR, "5229a94725f6f8cb818c29bce94b7c0fd04280f938a197e394f53ef98febe768"),
    "switched": (EXIT_ERROR, "5229a94725f6f8cb818c29bce94b7c0fd04280f938a197e394f53ef98febe768"),
}


@pytest.mark.parametrize("case", sorted(DESIGN_ALPHA))
def test_design_alpha_payload_digest_is_pinned(case, tmp_path, capsys, switched_spread):
    from qgeom.designs import blockset_from_json, blockset_to_json, cone_over, desarguesian_spread
    from qgeom.gf import field_new

    if case == "desarguesian":
        spread = desarguesian_spread(6, 2, field_new(2))
    else:
        path = (_sampled_spread(tmp_path, capsys) if case == "sampled"
                else _switched_spread(tmp_path, switched_spread))
        spread = blockset_from_json(json.loads(path.read_text()))
    lifted, apex = cone_over(spread)
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps(blockset_to_json(lifted)))
    payload = tmp_path / "alpha.json"
    code, out, _ = run(capsys, "design", "alpha", str(cone),
                       "--point", str(point_index(apex.basis[0], apex.v, apex.q)),
                       "--out", str(payload))
    assert (code, hashlib.sha256(payload.read_bytes()).hexdigest()) == DESIGN_ALPHA[case]
    assert out == f"alpha point: {'true' if code == EXIT_OK else 'false'}\n"


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
    assert point_index(apex.basis[0], 7, 2) == 0
    blocks = tmp_path / "cone.json"
    blocks.write_text(json.dumps(blockset_to_json(lifted)))
    code, out, _ = run(capsys, "design", "alpha", str(blocks), "--point", "0")
    assert code == EXIT_OK and out.strip() == "alpha point: true"


def test_design_derive_point_out_of_range(tmp_path, capsys):
    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    code, _, err = run(capsys, "design", "derive", str(spread), "--point", "99")
    assert code == EXIT_ERROR and "point index" in err


@pytest.mark.parametrize("command", ["derive", "alpha"])
@pytest.mark.parametrize("point", ["-1", "15"])
def test_design_point_outside_the_space_is_one_error_line(command, point, tmp_path, capsys):
    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    code, out, err = run(capsys, "design", command, str(spread), "--point", point)
    _one_error_line(code, out, err)
    assert err == f"error: point index {point} outside PG(3,2)\n"


def test_design_derive_looks_up_its_point_without_building_the_space(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"v": 40, "q": 2, "k": 1, "blocks": []}))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "design", "derive", str(f), "--point", "0")
    assert time.perf_counter() - t0 < 1.0  # PG(39,2) has 2**40 - 1 points
    assert code == EXIT_OK
    assert json.loads(out) == {"schema_version": 1, "v": 39, "q": 2, "k": 0, "blocks": []}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("command", ["derive", "alpha"])
def test_design_point_on_a_huge_empty_block_set(command, q, tmp_path, capsys):
    # a 50-byte payload: neither q^v nor a length-v vector may be built
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"v": 10 ** 7, "q": q, "k": 1, "blocks": []}))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "design", command, str(f), "--point", "0")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 10 * 2 ** 20
    if command == "derive":
        assert code == EXIT_OK
        assert json.loads(out) == {"schema_version": 1, "v": 10 ** 7 - 1, "q": q, "k": 0,
                                   "blocks": []}
    else:
        _one_error_line(code, out, err)
        assert err == "error: no block passes through the point\n"
    code, out, err = run(capsys, "design", command, str(f), "--point", "-1")
    _one_error_line(code, out, err)
    assert err == f"error: point index -1 outside PG({10 ** 7 - 1},{q})\n"


def test_design_dual_of_a_huge_empty_block_set(tmp_path, capsys):
    # a 46-byte payload: no v x v form may be built for it
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"v": 10 ** 7, "k": 1, "q": 2, "blocks": []}))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "design", "dual", str(f))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 10 * 2 ** 20
    assert code == EXIT_OK
    assert out == '{"blocks":[],"k":9999999,"q":2,"schema_version":1,"v":10000000}\n'
    assert err == "dualized 0 blocks to dimension 9999999\n"


@pytest.mark.parametrize("q,message", [(6, "q=6 is not a prime power"),
                                       (17, "q=17 exceeds the supported maximum 16")])
def test_design_dual_refuses_an_empty_block_set_over_no_field(q, message, tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"v": 3, "k": 1, "q": q, "blocks": []}))
    code, out, err = run(capsys, "design", "dual", str(f))
    _one_error_line(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_design_spread_gen_refuses_a_degree_below_one(k, capsys):
    code, out, err = run(capsys, "design", "spread-gen", "--v", "4", "--k", k, "--q", "2")
    _one_error_line(code, out, err)
    assert err == f"error: extension degree k={k} must be >= 1\n"


def test_design_spread_gen_beyond_the_enumeration_budget_stops_at_once(tmp_path, capsys):
    out_file = tmp_path / "spread.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "design", "spread-gen", "--v", "40", "--k", "2", "--q", "2",
                         "--out", str(out_file))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (EXIT_BUDGET, "") and not out_file.exists()
    assert err == ("budget exceeded: 366503875925 spread blocks exceed the enumeration "
                   "budget 10000000\n")  # (2^40 - 1) / 3 blocks


@pytest.mark.parametrize("argv", [["spread-gen", "--v", "0", "--k", "2", "--q", "2"],
                                  ["dual", "-"], ["derive", "-", "--point", "0"]])
def test_block_dimension_outside_the_space_is_one_error_line(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"v": 4, "q": 2, "k": 5, "blocks": []}'))
    code, out, err = run(capsys, "design", *argv)
    _one_error_line(code, out, err)
    assert err == ("error: need 0 <= k <= v, got k=2 in v=0\n" if argv[0] == "spread-gen"
                   else "error: need 0 <= k <= v, got k=5 in v=4\n")


@pytest.mark.parametrize("v", [3, 100])
def test_refused_search_names_its_reason(v, capsys):
    code, out, err = run(capsys, "search", "pg-spreads", "--v", str(v), "--q", "2")
    assert code == EXIT_BUDGET and out == ""
    assert err == (f"budget exceeded: line-spread search of PG({v - 1},2) is out of "
                   "the desk-scale budget\n")


# ----------------------------------------------------------------------
# one parser per process
# ----------------------------------------------------------------------

def test_parser_is_built_once_per_process(q4_2_file, capsys):
    for argv in (["field", "--q", "2"], ["gq", "check", q4_2_file],
                 ["search", "ovoids", q4_2_file], ["field", "--q", "3"]):
        assert run(capsys, *argv)[0] == EXIT_OK
    assert build_parser() is build_parser()
    assert build_parser.cache_info().misses == 1


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    triangle = ["lambda", "--t", "2", "--v", "7", "--k", "3", "--l", "1", "--q", "2"]
    code, out, _ = run(capsys, *triangle, "--json")
    assert code == EXIT_OK and json.loads(out)["outputs"]["admissible"] is True
    code, out, _ = run(capsys, *triangle)
    assert code == EXIT_OK and out.strip() == GOLDEN_TRIANGLE_Q2

    w2 = tmp_path / "w2.json"
    run(capsys, "gq", "build", "--type", "W", "--q", "2", "--out", str(w2))
    payload = w2.read_text()
    w2.unlink()
    code, out, _ = run(capsys, "gq", "build", "--type", "W", "--q", "2")
    assert code == EXIT_OK and out == payload and not w2.exists()
    w2.write_text(payload)

    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    code, out, _ = run(capsys, "design", "derive", str(spread), "--point", "3")
    assert code == EXIT_OK and len(json.loads(out)["blocks"]) == 1
    args = build_parser().parse_args(["gq", "check", str(w2)])
    assert sorted(vars(args)) == ["command", "file", "fn", "gq_command", "json", "out"]
    assert args.out is None and args.json is False
    code, out, _ = run(capsys, "gq", "check", str(w2))
    assert code == EXIT_OK and out.strip() == "GQ of order (2,2)"


# ----------------------------------------------------------------------
# no tracebacks at small integer flags
# ----------------------------------------------------------------------

SWEEP_BASELINES = [
    (["field"], {"--q": "2"}),
    (["lambda"], {"--t": "2", "--v": "7", "--k": "3", "--l": "1", "--q": "2"}),
    (["gq", "build", "--type", "W"], {"--q": "2"}),
    (["search", "pg-spreads", "--mode", "count"],
     {"--v": "4", "--q": "2", "--limit": "1e7", "--max-solutions": "100",
      "--seed": "0"}),
    (["design", "spread-gen"], {"--v": "4", "--k": "2", "--q": "2"}),
    (["design", "check", "SPREAD"], {"--t": "1", "--v": "4", "--k": "2", "--l": "1", "--q": "2"}),
    (["design", "derive", "SPREAD"], {"--point": "0"}),
    (["design", "alpha", "SPREAD"], {"--point": "0"}),
]


def test_small_integer_flags_never_escape_as_a_traceback(tmp_path, capsys):
    spread = tmp_path / "spread.json"
    run(capsys, "design", "spread-gen", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(spread))
    for head, flags in SWEEP_BASELINES:
        head = [str(spread) if a == "SPREAD" else a for a in head]
        for flag in flags:
            for value in ("-1", "0", "1"):
                argv = head + [a for f, x in {**flags, flag: value}.items() for a in (f, x)]
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                capsys.readouterr()
                assert code in (EXIT_OK, EXIT_ERROR, EXIT_BUDGET, EXIT_NONEXISTENCE,
                                EXIT_USAGE), argv
