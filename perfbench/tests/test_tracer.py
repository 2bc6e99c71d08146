"""The benchmark's own tests: tracer install/remove, traced arithmetic,
tiny smoke runs of every workload, and the failure outside a checkout.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from blan import engine, networks
from tracer import NETWORK_METHODS, Tracer, public_ops


def _snapshot():
    owners = [engine, engine.Tensor] + [cls for _net, cls, _m in NETWORK_METHODS]
    return {owner: dict(vars(owner)) for owner in owners}


def test_install_then_uninstall_restores_every_attribute():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert engine.conv2d is not before[engine]["conv2d"]
        assert networks.Generator.forward is not before[networks.Generator]["forward"]
        assert engine.Tensor.backward is not before[engine.Tensor]["backward"]
    after = _snapshot()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[owner][name] is value, (owner, name)


def test_every_public_op_is_wrapped():
    ops = public_ops()
    assert {"conv2d", "conv_transpose2d", "batchnorm2d", "getitem", "concat",
            "matmul", "tmean", "mul"} <= set(ops)
    assert "grad_check" not in ops and "no_grad" not in ops


def test_nested_spans_count_self_time_once():
    x = engine.Tensor(np.ones((4, 5), dtype=np.float32), requires_grad=True)
    tracer = Tracer()
    with tracer.installed():
        engine.tmean(x).backward()
    names = {op: s for (op, _shapes), s in tracer.ops.items()}
    assert set(names) == {"tmean", "tsum", "scale", "mul"}
    assert all(s.calls == 1 for s in names.values())
    # tmean returns mul's node: the closures belong to tsum and mul only
    assert names["mul"].bwd_calls == 1 and names["tsum"].bwd_calls == 1
    assert names["tmean"].bwd_calls == 0 and tracer.nodes == 2


def _grads(out):
    return [g for name in ("G", "D_p", "D_f") for g in out["grads"][name]]


def test_traced_step_gives_bit_identical_gradients(tmp_path):
    plain = workloads.TrainWorkload(5, workloads.TINY, tmp_path / "a")
    traced = workloads.TrainWorkload(5, workloads.TINY, tmp_path / "b")
    expected = plain.step(3)
    tracer = Tracer()
    with tracer.installed():
        got = traced.step(3)
    assert tracer.nodes > 0 and tracer.by_category()["conv2d"].bwd_calls > 0
    assert got["terms"] == expected["terms"] and got["total_G"] == expected["total_G"]
    for a, b in zip(_grads(expected), _grads(got)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _run(workload, trace):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.3, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.run_workload(args, 0.0, workloads.TINY) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = [name for name, _unit in run.declared_metrics(section)]
    assert list(result["metrics"]) == declared
    for m in result["metrics"].values():
        assert np.isfinite(m["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
