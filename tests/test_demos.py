"""The self-asserting demos under demos/ run to completion, and the
library functions the benchmark traces by name exist."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_every_demo_exits_cleanly(tmp_path):
    assert len(DEMOS) == 7
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                              cwd=tmp_path, env=env, timeout=120)
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"


def test_every_bench_trace_target_resolves(monkeypatch):
    # bench/child.py wraps its TARGETS by (module, attribute) name, so a
    # renamed or deleted function would break only a traced bench run
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("bench_child", REPO / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # not as __main__, so no workload runs
    assert len(child.TARGETS) > 20
    missing = [f"{module}.{attr}" for module, attr, *_ in child.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


@pytest.mark.parametrize("name", ["headline", "pg-spreads", "lattice"])
def test_every_bench_workload_check_passes(name, monkeypatch, tmp_path):
    # a change that a bench run would mark outputs_incorrect fails here first
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    ctx = workloads.Context(0, tmp_path)
    workloads.WORKLOADS[name](ctx)
    assert ctx.checks
    assert [check for check, ok in ctx.checks if not ok] == []
