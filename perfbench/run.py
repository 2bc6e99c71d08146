#!/usr/bin/env python3
"""BLAN benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run: half of its time untraced, half with the
op trace installed, and it reports the per-layer metrics and the tracing
overhead. ``--workload all`` runs every workload untraced, each in its own
process, and prints the summary table.

Every timing is normalized to host speed: it is multiplied by
``HOST_PROBE_REF_MS / median(host probe)``, with the probes run alongside
it (``probe.py``; each workload names its probe). The run writes its full
results, raw samples included, to
``perfbench/out/<workload>-seed<n>-trace<t>.json``; the last line of
standard output is the JSON result object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# median time of either probe on the host the benchmark was defined on
# (2 vCPU, OpenBLAS 0.3.31, one BLAS thread); only the ratio matters
HOST_PROBE_REF_MS = 20.0
# one BLAS thread: a second, spinning helper thread doubled CPU time for no
# wall-time gain and made the timings noisier
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
PROBE_EVERY = 3
DP_CONV_REPS = 20
WORKLOAD_NAMES = ("train", "verify", "remove_ref")
# (name, unit) in BENCHMARK.json order
END_TO_END = (("setup_s", "s"), ("step_ms_p50", "ms"), ("peak_rss_mb", "MB"))


def _median(xs):
    return statistics.median(xs)


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else xs[0]


def host_factor(probe_ms):
    """Multiplier that maps times measured alongside ``probe_ms`` to the reference host."""
    return HOST_PROBE_REF_MS / _median(probe_ms)


class Loop:
    """Samples of one closed-loop measuring phase."""

    def __init__(self):
        self.step_ms, self.probe_ms, self.records = [], [], []
        self.attempted = self.failed = 0

    def factor(self):
        return host_factor(self.probe_ms)


def timed_loop(workload, probe, seconds, first_step):
    """Run steps until ``seconds`` have passed; probe every PROBE_EVERY steps."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if i % PROBE_EVERY == 0:
            loop.probe_ms.append(probe())
        t0 = time.perf_counter()
        out = workload.step(first_step + i)
        loop.step_ms.append((time.perf_counter() - t0) * 1e3)
        loop.attempted += 1
        loop.failed += not workload.check(out)
        loop.records.append(workload.record(first_step + i, out))
        i += 1
    loop.probe_ms.append(probe())
    return loop


def set_up(cls, seed, scale, probe):
    """Build the workload SETUP_REPEATS times, probing the host around each build.

    Returns the last build, the build times (s), the set-up checks, the
    set-up spans and the probe times taken during set-up.
    """
    times, checks, spans, probe_ms = [], [], [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # release the previous build before making the next
        probe_ms.append(probe())
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            t0 = time.perf_counter()
            workload = cls(seed, scale, workdir)
            times.append(time.perf_counter() - t0)
        probe_ms.append(probe())
        checks += workload.setup_checks
        spans.append(workload.spans)
    return workload, times, checks, spans, probe_ms


def environment(probe, probe_ms):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(
        python=platform.python_version(),
        numpy=np.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        blas_threads_env=BLAS_ENV,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        host_probe=probe,
        host_probe_ms=probe_ms,
        host_probe_ref_ms=HOST_PROBE_REF_MS,
    )


def stage_medians(records, keys, factor):
    return {k: _median([r[k] for r in records]) * factor for k in keys if records and k in records[0]}


def end_to_end(loop, setup_s, setup_probe_ms):
    """Set-up time is normalized by the probes taken during set-up."""
    return dict(
        setup_s=setup_s * host_factor(setup_probe_ms),
        step_ms_p50=_median(loop.step_ms) * loop.factor(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


def per_layer(workload, tracer, untraced, traced, setup_spans, setup_factor, dp_conv):
    """Every per-layer figure of the traced run, keyed by metric name.

    Returns ``{name: (value, unit)}``. Times are ms per step (one
    iteration, pass or call), host-normalized with the run's probe factor.
    """
    from tracer import CATEGORIES

    probes = untraced.probe_ms + traced.probe_ms
    f = host_factor(probes)
    n = len(traced.step_ms)
    ms = 1e3 * f / n
    m = {}
    m["host.probe_ms"] = (_median(probes), "ms")
    overhead = (_median(traced.step_ms) * traced.factor()) / (_median(untraced.step_ms) * untraced.factor())
    m["trace.overhead_pct"] = ((overhead - 1.0) * 100.0, "%")
    m["step.ms_p90"] = (_p90(untraced.step_ms) * untraced.factor(), "ms")
    m["step.samples"] = (len(untraced.step_ms), "count")
    m["step.ms_raw_p50"] = (_median(untraced.step_ms), "ms")

    cats = tracer.by_category()
    total_s = tracer.walk_s
    for c in CATEGORIES + ("pointwise",):
        s = cats[c]
        total_s += s.fwd_s + s.bwd_s
        m[f"engine.{c}.fwd_ms"] = (s.fwd_s * ms, "ms")
        m[f"engine.{c}.bwd_ms"] = (s.bwd_s * ms, "ms")
        m[f"engine.{c}.ms"] = ((s.fwd_s + s.bwd_s) * ms, "ms")
        m[f"engine.{c}.calls"] = (s.calls / n, "count")
        m[f"engine.{c}.bwd_calls"] = (s.bwd_calls / n, "count")
    for c in ("conv2d", "conv_transpose2d"):
        s = cats[c]
        m[f"engine.{c}.gflop_per_s"] = (
            (s.fwd_flops + s.bwd_flops) / ((s.fwd_s + s.bwd_s) * f) / 1e9, "GFLOP/s")
    m["engine.self_ms"] = (total_s * ms, "ms")
    m["engine.backward.walk_ms"] = (tracer.walk_s * ms, "ms")
    m["engine.nodes"] = (tracer.nodes / n, "count")
    m["engine.op_out_mb"] = (tracer.out_bytes / n / 2**20, "MB")
    for net in ("G", "D_p", "D_f", "F"):
        m[f"networks.{net}.fwd_ms"] = (tracer.net_fwd_s[net] * ms, "ms")
        m[f"networks.{net}.bwd_ms"] = (tracer.net_bwd_s[net] * ms, "ms")
        m[f"networks.{net}.ms"] = ((tracer.net_fwd_s[net] + tracer.net_bwd_s[net]) * ms, "ms")
    m["losses.fwd_ms"] = (tracer.net_self_fwd_s["losses"] * ms, "ms")
    m["losses.bwd_ms"] = (tracer.net_bwd_s["losses"] * ms, "ms")

    def span(key):
        return _median([s[key] for s in setup_spans])

    sf = setup_factor
    m["synth.ms_per_pair"] = (span("synth_ms") / setup_spans[0]["pairs"] * sf, "ms")
    m["ppm.write_ms_per_image"] = (span("ppm_write_ms") / setup_spans[0]["images"] * sf, "ms")
    m["ppm.read_ms_per_image"] = (span("ppm_read_ms") / setup_spans[0]["images"] * sf, "ms")
    if "checkpoint_write_ms" in setup_spans[0]:
        m["networks.checkpoint_write_ms"] = (span("checkpoint_write_ms") * sf, "ms")
        m["networks.checkpoint_read_ms"] = (span("checkpoint_read_ms") * sf, "ms")

    uf = untraced.factor()
    if workload.name == "train":
        for k, v in stage_medians(untraced.records, ("D_p_step", "D_f_step", "G_step"), uf).items():
            m[f"train.{k}_ms"] = (v, "ms")
    if workload.name == "verify":
        st = stage_medians(untraced.records, ("G", "F", "score"), uf)
        n_probes = len(workload.probes)
        m["verify.G_ms_per_image"] = (st["G"] / n_probes, "ms")
        m["verify.F_ms_per_image"] = (st["F"] / (2 * n_probes), "ms")
        m["verify.score_ms"] = (st["score"], "ms")
    if dp_conv is not None:
        key, iso_fwd, iso_bwd = dp_conv
        s = tracer.ops.get(key)
        if s is not None and s.calls:
            m["train.dp_conv_in_iter_fwd_ms"] = (s.fwd_s * 1e3 * f / s.calls, "ms")
            m["train.dp_conv_in_iter_bwd_ms"] = (s.bwd_s * 1e3 * f / max(s.bwd_calls, 1), "ms")
        m["train.dp_conv_isolated_fwd_ms"] = (iso_fwd * f, "ms")
        m["train.dp_conv_isolated_bwd_ms"] = (iso_bwd * f, "ms")
    return m


def declared_metrics(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(e["name"], e["unit"]) for e in json.load(fh)[section]]


def print_table(title, metrics):
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.4f} {unit}")


def run_workload(args, import_s, scale=None):
    """Set up, measure and report one workload; ``scale`` defaults to DESK."""
    import workloads
    from probe import PROBES
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    scale = scale or workloads.DESK
    probe = PROBES[cls.probe]()
    workload, setup_times, checks, setup_spans, setup_probe_ms = set_up(
        cls, args.seed, scale, probe)
    setup_raw_s = import_s + _median(setup_times)
    first = workload.warmup_steps
    tracer = None
    dp_conv = None
    if args.trace:
        untraced = timed_loop(workload, probe, args.seconds / 2, first)
        tracer = Tracer()
        with tracer.installed():
            traced = timed_loop(workload, probe, args.seconds / 2, first + len(untraced.step_ms))
        if workload.name == "train":
            dp_conv = workload.isolated_dp_conv(DP_CONV_REPS)
        loops = (untraced, traced)
    else:
        loops = (timed_loop(workload, probe, args.seconds, first),)
    checks += workload.final_checks()

    attempted = sum(lp.attempted for lp in loops) + len(checks)
    failed = sum(lp.failed for lp in loops) + sum(not ok for _name, ok in checks)
    all_probes = [p for lp in loops for p in lp.probe_ms]
    result = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=environment(cls.probe, _median(all_probes)),
        setup=dict(import_s=import_s, build_s=setup_times, setup_raw_s=setup_raw_s,
                   probe_ms=setup_probe_ms, spans=setup_spans, checks=checks),
        items_per_step=workload.items_per_step,
        attempted=attempted, failed=failed, failed_frac=failed / attempted,
        loops=[dict(step_ms=lp.step_ms, probe_ms=lp.probe_ms, factor=lp.factor(),
                    records=lp.records) for lp in loops],
    )
    if args.trace:
        metrics = per_layer(workload, tracer, untraced, traced, setup_spans,
                            host_factor(setup_probe_ms), dp_conv)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["op_table"] = tracer.table(len(traced.step_ms), scale=traced.factor())
        declared = declared_metrics("per_layer")
    else:
        e2e = end_to_end(loops[0], setup_raw_s, setup_probe_ms)
        metrics = {k: (e2e[k], u) for k, u in END_TO_END}
        result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        stages = stage_medians(loops[0].records, ("D_p_step", "D_f_step", "G_step", "G", "F", "score"),
                               loops[0].factor())
        result["stages_ms_p50"] = stages
        if workload.name == "verify":
            result["G_stage_images_per_s"] = len(workload.probes) / (stages["G"] / 1e3)
        declared = END_TO_END

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=float)

    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics)
    if args.trace:
        print("== top (op, shapes) by self time, ms per step")
        for r in result["op_table"]:
            print(f"  {r['op']:<17} {r['fwd_ms']:8.3f} fwd {r['bwd_ms']:8.3f} bwd "
                  f"{r['calls']:5.1f} calls  {r['shapes']}")
    print(f"  attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f}")
    print(f"  results: {path.relative_to(ROOT)}")
    missing = [name for name, _unit in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"declared metrics not produced: {missing}")
    print(json.dumps(dict(
        correct=failed == 0, attempted=attempted, failed=failed,
        metrics={name: {"value": metrics[name][0], "unit": unit} for name, unit in declared},
    )))
    return 0


def run_all(args):
    """Each workload in its own process, untraced; the summary by name."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        with open(OUT_DIR / f"{name}-seed{args.seed}-trace0.json") as fh:
            rows[name] = json.load(fh)
    e2e = {name: {k: v["value"] for k, v in r["end_to_end"].items()} for name, r in rows.items()}
    summary = {}
    for name in WORKLOAD_NAMES:
        summary[f"setup_s[{name}]"] = (e2e[name]["setup_s"], "s")
    summary["train_iter_ms_p50"] = (e2e["train"]["step_ms_p50"], "ms")
    summary["verify_pairs_per_s"] = (
        rows["verify"]["items_per_step"] * 1e3 / e2e["verify"]["step_ms_p50"], "pairs/s")
    summary["remove_images_per_s[verify,G stage,batch 8]"] = (
        rows["verify"]["G_stage_images_per_s"], "images/s")
    summary["remove_images_per_s[remove_ref,batch 1]"] = (
        1e3 / e2e["remove_ref"]["step_ms_p50"], "images/s")
    for name in WORKLOAD_NAMES:
        summary[f"peak_rss_mb[{name}]"] = (e2e[name]["peak_rss_mb"], "MB")
    for name in WORKLOAD_NAMES:
        summary[f"failed_frac[{name}]"] = (rows[name]["failed_frac"], "ratio")
    print_table(f"all workloads seed={args.seed} seconds={args.seconds}", summary)
    failed = sum(r["failed"] for r in rows.values())
    print(json.dumps(dict(
        correct=failed == 0, attempted=sum(r["attempted"] for r in rows.values()), failed=failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
    )))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blan").is_dir():
        sys.stderr.write(f"no blan sources under {ROOT / 'src'}: run from a full checkout\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    os.environ.update(BLAS_ENV)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import blan.networks  # noqa: F401  (numpy, scipy and blan count as set-up)
    import blan.synth  # noqa: F401

    return run_workload(args, time.perf_counter() - _T0)


if __name__ == "__main__":
    sys.exit(main())
