#!/usr/bin/env python3
"""scmech benchmark.

    python3 perfbench/run.py --workload {solve,certify,cli,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/``.  Each workload is a closed loop with one client: the jobs of its
fixed list run one after another in this process (``cli``: one child
process at a time), and the list is repeated until ``--seconds`` have
passed, at least three times.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details and the environment.
"""

from __future__ import annotations

import os

# One-thread BLAS, and the optimizer's own thread pool left at its default.
BLAS_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")}
os.environ.update(BLAS_PINS)
os.environ.pop("SC_MECH_THREADS", None)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "certify", "cli")
MIN_PASSES = 3  # the median of three passes drops one disturbed pass
SETUP_PROBES = 3
IMPORT_PROBES = 3
# Times are reported in seconds at a reference machine speed: a measured
# time is scaled by CAL_REF_S over the time of a fixed calibration kernel
# run next to it.  On a shared machine whose speed swings by 2x within
# seconds, this keeps run-to-run spread near 5% instead of 20-40%; raw
# times are in the details.
CAL_REF_S = 0.02
CAL_EVERY_S = 0.5
TAIL_BEYOND = 10
CLI_SUBCOMMANDS = ("optimize", "verify", "revenue", "truncate", "multibuyer",
                   "validate-domain")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Reported in the details, not gated in BENCHMARK.json: job_s.p50 falls on
# the boundary between two kinds of job in the small solve and cli lists, and
# its run-to-run spread there (11-17%) is too close to the largest bound;
# job_s.tail needs 20 jobs; error_ratio and wrong_ratio are 0 on most
# workloads.


def _calls(span):
    return lambda agg: agg["spans"].get(span, [0])[0]


def _self_s(span):
    return lambda agg: agg["spans"].get(span, [0, 0.0])[1]


def _ratio(span, *cols):
    """Share of a span's calls counted in the given exception columns."""
    def f(agg):
        row = agg["spans"].get(span)
        return sum(row[c] for c in cols) / row[0] if row else 0.0
    return f


def _counter(name):
    return lambda agg: agg["counters"].get(name, 0)


# Per-layer metrics computed from one traced pass: name -> (unit, value).
# Which end-to-end metric each should move is in perfbench/README.md.
PER_PASS = {
    "optimize.objective_evals": ("count", _counter("optimize.objective_evals")),
    "optimize.infeasible_ratio": ("ratio", _ratio("optimize.payments_from_breakpoints", 2)),
    "optimize.solve_finite.self_s": ("s", _self_s("optimize.solve_finite")),
    "optimize.payments_from_breakpoints.self_s":
        ("s", _self_s("optimize.payments_from_breakpoints")),
    "measure.cdf.calls": ("count", _calls("measure.TypeDistribution.cdf")),
    "measure.cdf.self_s": ("s", _self_s("measure.TypeDistribution.cdf")),
    "measure.expected_revenue.calls": ("count", _calls("measure.expected_revenue")),
    "measure.expected_revenue.self_s": ("s", _self_s("measure.expected_revenue")),
    **{f"domain.special_preference.{p}.{k}":
       (u, f(f"domain.special_preference.{p}"))
       for p in ("closed", "bisect")
       for k, u, f in (("calls", "count", _calls), ("self_s", "s", _self_s))},
    **{f"domain.{m}.{k}": (u, f(f"domain.PreferenceDomain.{m}"))
       for m in ("canonical_payment_many", "curve_payment")
       for k, u, f in (("calls", "count", _calls), ("self_s", "s", _self_s))},
    "mechanism.from_range.calls": ("count", _calls("mechanism.from_range")),
    "mechanism.from_range.self_s": ("s", _self_s("mechanism.from_range")),
    "mechanism.from_range.reject_ratio": ("ratio", _ratio("mechanism.from_range", 2, 3)),
    "mechanism.evaluate.calls": ("count", _calls("mechanism.FiniteMechanism.evaluate")),
    "mechanism.evaluate.self_s": ("s", _self_s("mechanism.FiniteMechanism.evaluate")),
    # the best bundle on a line: the construction, plus the tail bundles
    # it computes lazily when the countable mechanism is first used
    "mechanism.countable_geometric.self_s":
        ("s", lambda agg: (_self_s("mechanism.countable_geometric")(agg)
                           + _self_s("mechanism.TailRule.bundle")(agg))),
    "mechanism.epsilon_truncate.self_s": ("s", _self_s("mechanism.epsilon_truncate")),
    "verify.check_strategy_proof.self_s": ("s", _self_s("verify.check_strategy_proof")),
    "verify.pairs_checked": ("count", _counter("verify.pairs_checked")),
    "verify.violations": ("count", _counter("verify.violations")),
    "verify.check_shape.self_s": ("s", _self_s("verify.check_shape")),
    "verify.check_individual_rationality.self_s":
        ("s", _self_s("verify.check_individual_rationality")),
    "verify.brute_force_optimal.self_s": ("s", _self_s("verify.brute_force_optimal")),
    "trace.spans": ("count", _counter("trace.spans")),
}
# Measured around the traced passes rather than inside one.
PER_RUN = {"cli.import_s": "s", "cli.import.scipy_s": "s",
           **{f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS},
           "trace.overhead_s": "s"}
PER_LAYER = {**{k: u for k, (u, _) in PER_PASS.items()}, **PER_RUN}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="only import scmech and build the inputs (set-up probe)")
    return p.parse_args(argv)


def fail(msg) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- environment ---------------------------------------------------------------


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "scmech").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def environment(seed):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "src_sha256": src_digest(), "seed": seed,
            "blas_pins": BLAS_PINS, "machine": platform.machine()}


# -- statistics ----------------------------------------------------------------


def tail(samples):
    """Highest of the p50..p99.9 percentiles with at least TAIL_BEYOND
    samples beyond it: (percentile, value, samples beyond), or None."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = -(-int(p * 10) * n // 1000)  # nearest rank, ceil(p n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return None


def importtime_tree(stderr: str):
    """Parse ``python -X importtime`` output into (name, self_us, cum_us,
    children) roots; lines come children first."""
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = (name.strip(), int(self_us), int(cum), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    return pending.get(0, [])


def import_times(stderr: str):
    """(scmech cumulative s, time under scipy.* in s) from -X importtime."""
    roots = importtime_tree(stderr)

    def scipy_us(node):
        name, _, cum, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cum
        return sum(scipy_us(c) for c in children)

    total = sum(cum for name, _, cum, _ in roots if name == "scmech")
    return total * 1e-6, sum(scipy_us(r) for r in roots) * 1e-6


# -- running -------------------------------------------------------------------


def timed_child(cmd, env):
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=150)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc


def calibration_kernel(n=6000):
    """Fixed interpreter-bound work in the benchmark's own code: scalar numpy
    calls, float arithmetic and small lists, the mix scmech's hot paths are
    made of.  Program changes cannot change its time; machine speed can."""
    import numpy as np

    acc = 0.0
    for i in range(n):
        x = (i % 97) / 97.0
        y = float(np.clip(np.asarray(x, dtype=float), 0.1, 0.9))
        pts = [x, y, 0.5 * (x + y)]
        acc += math.sqrt(max(pts) - min(pts) + 1e-3)
        if y > 0.5:
            acc -= y * y
    return acc


def calibrate() -> float:
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


def speed(cal_before, cal_after) -> float:
    """Factor turning seconds measured between two calibrations into
    seconds at the reference speed."""
    return CAL_REF_S / (0.5 * (cal_before + cal_after))


def probe_seconds(cmd, env, n):
    """n runs of a child: (normalized wall time, speed factor, stderr) each."""
    probes = []
    for _ in range(n):
        before = calibrate()
        elapsed, proc = timed_child(cmd, env)
        factor = speed(before, calibrate())
        probes.append((elapsed * factor, factor, proc.stderr))
    return probes


def setup_seconds(workload, seed, env):
    """Median time from process start to built inputs, over probes."""
    if workload == "cli":
        cmd = [sys.executable, "-c", "import scmech"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload",
               workload, "--seed", str(seed), "--seconds", "0"]
    return statistics.median(t for t, _, _ in probe_seconds(cmd, env, SETUP_PROBES))


def run_pass(jobs, ctx, tracer=None):
    """Run the job list once and return its records; checks run later.

    The calibration kernel runs before the first job and again whenever
    CAL_EVERY_S have passed, between jobs; each job's time is normalized
    by the calibrations around it (``norm_s``).
    """
    records, pending = [], []
    ctx.setdefault("outputs", {})
    cal, t_cal = calibrate(), perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        error = None
        t0 = perf_counter()
        try:
            out = job.run(ctx)
        except job.expect as exc:
            out = {"rejected": type(exc).__name__}
        except Exception as exc:  # counted in error_ratio, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        rec = {"job": job.name, "s": perf_counter() - t0, "out": out, "error": error}
        records.append(rec)
        pending.append(rec)
        ctx["outputs"][job.name] = out
        if perf_counter() - t_cal >= CAL_EVERY_S or i == len(jobs) - 1:
            cal_next = calibrate()
            for r in pending:
                r["norm_s"] = r["s"] * speed(cal, cal_next)
            pending, cal, t_cal = [], cal_next, perf_counter()
    return records


def pass_wall(records):
    """(normalized, raw) wall time of one pass: the sum of its job times."""
    return (sum(r["norm_s"] for r in records), sum(r["s"] for r in records))


def check_pass(jobs, records, ctx, reference):
    """Attach problems to each record: failed checks, and any output that
    differs from the same job's output in the first pass."""
    for job, rec in zip(jobs, records):
        if rec["error"] is not None:
            rec["problems"] = []
            continue
        try:
            problems = job.check(rec["out"], ctx)
        except Exception as exc:  # a check that cannot read the output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        canon = json.dumps(rec["out"], sort_keys=True, default=dataclasses.astuple)
        rec["digest"] = hashlib.sha256(canon.encode()).hexdigest()
        if reference is not None and rec["digest"] != reference[job.name]:
            problems.append("output differs from the first pass with the same seed")
        rec["problems"] = problems
        # outputs can be large (the affine rule's 124,750 violations); keep
        # only what the summary needs
        rec["rejected"] = isinstance(rec["out"], dict) and "rejected" in rec["out"]
        rec["out"] = None


def run_workload(args, workdir) -> dict:
    import workloads
    from checks import KNOWN_RED

    env = workloads.child_env(ROOT)
    for _ in range(3):  # the first runs of the kernel are slower than the rest
        calibrate()
    detail = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "loadavg_start": os.getloadavg()}
    setup = None if args.trace else setup_seconds(args.workload, args.seed, env)
    jobs = workloads.build(args.workload, args.seed, ROOT, workdir)
    tracer = None
    if args.trace:
        from spans import Tracer, merge
        tracer = Tracer()
    import_probes = []
    if args.trace and args.workload == "cli":
        cmd = [sys.executable, "-X", "importtime", "-c", "import scmech"]
        import_probes = [tuple(x * factor for x in import_times(err))
                         for _, factor, err in probe_seconds(cmd, env, IMPORT_PROBES)]

    untraced, traced, records, layer_passes = [], [], [], []
    reference = None
    t_start = perf_counter()
    while (len(untraced) < (1 if args.trace else MIN_PASSES)
           or perf_counter() - t_start < args.seconds):
        recs = run_pass(jobs, {})
        untraced.append(pass_wall(recs))
        passes = [recs]
        if tracer is not None:
            ctx = {}
            if args.workload == "cli":
                ctx["trace_dir"] = workdir / f"spans-{len(traced)}"
                ctx["trace_dir"].mkdir()
            with tracer:
                recs_t = run_pass(jobs, ctx, tracer)
            traced.append(pass_wall(recs_t))
            passes.append(recs_t)
            aggs = [tracer.aggregate()]
            if args.workload == "cli":
                aggs += [json.loads(f.read_text())
                         for f in sorted(ctx["trace_dir"].glob("*.json"))]
            layer_passes.append(merge(aggs))
            if len(traced) == 1:
                save_spans(tracer, args.workload, ctx.get("trace_dir"))
            tracer.clear()
        for recs_p in passes:
            check_pass(jobs, recs_p, {"outputs": {r["job"]: r["out"] for r in recs_p}},
                       reference)
            if reference is None:
                reference = {r["job"]: r["digest"] for r in recs_p if "digest" in r}
            records += recs_p

    attempted = len(records)
    errors = [r for r in records if r["error"] is not None]
    wrong = [r for r in records if r["problems"]]
    unexpected = [r for r in wrong
                  if any(not p.startswith(KNOWN_RED) for p in r["problems"])]
    detail.update({
        "passes": len(untraced), "jobs_per_pass": len(jobs), "attempted": attempted,
        "error_ratio": len(errors) / attempted, "wrong_ratio": len(wrong) / attempted,
        "errors": sorted({f"{r['job']}: {r['error']}" for r in errors})[:20],
        "problems": sorted({f"{r['job']}: {p}" for r in wrong for p in r["problems"]})[:20],
        "rejected": sum(1 for r in records if r.get("rejected")),
        "pass_wall_s": [w for w, _ in untraced],
        "pass_wall_raw_s": [raw for _, raw in untraced],
    })
    if args.trace:
        metrics, counts_repeat = layer_metrics(layer_passes, untraced, traced,
                                               records, import_probes, len(jobs))
        detail.update({"traced_pass_wall_s": [w for w, _ in traced],
                       "counts_repeat": counts_repeat})
        if not counts_repeat:
            unexpected.append("traced counts differ between passes")
    else:
        rss_kb = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                  if args.workload == "cli"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        times = [r["norm_s"] for r in records]
        metrics = {"setup_s": setup,
                   "wall_s": statistics.median(w for w, _ in untraced),
                   "peak_rss_mb": rss_kb / 1024.0}
        t = tail(times)
        detail.update({
            "job_s.p50": statistics.median(times),
            "job_s.p50_samples": len(times),
            "job_s.tail": None if t is None else {"percentile": t[0], "value": t[1],
                                                  "beyond": t[2]},
            "raw_wall_s": statistics.median(raw for _, raw in untraced),
            "raw_job_s.p50": statistics.median(r["s"] for r in records),
        })
    detail["loadavg_end"] = os.getloadavg()
    units = PER_LAYER if args.trace else END_TO_END
    return {"detail": detail,
            "result": {"correct": not errors and not unexpected,
                       "attempted": attempted, "failed": len(errors),
                       "metrics": {k: {"value": float(metrics[k]),
                                       "unit": units[k]} for k in units}}}


def layer_metrics(layer_passes, untraced, traced, records, import_probes, n_jobs):
    """Per-layer metrics: counts from the first traced pass (they must
    repeat exactly in every later one), times normalized by the traced
    pass's calibration and taken as medians over passes."""
    per_pass = []
    for agg, (norm, raw) in zip(layer_passes, traced):
        values = {k: f(agg) for k, (_, f) in PER_PASS.items()}
        per_pass.append({k: v * norm / raw if PER_PASS[k][0] == "s" else v
                         for k, v in values.items()})
    counts_repeat = all(p[k] == per_pass[0][k] for p in per_pass
                        for k, (u, _) in PER_PASS.items() if u != "s")
    metrics = {k: (statistics.median(p[k] for p in per_pass) if u == "s"
                   else per_pass[0][k]) for k, (u, _) in PER_PASS.items()}
    by_job: dict[str, list] = {}
    # untraced passes come first in each (untraced, traced) pair of records
    for i in range(0, len(records), 2 * n_jobs):
        for r in records[i:i + n_jobs]:
            by_job.setdefault(r["job"], []).append(r["norm_s"])
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = statistics.median(by_job.get(sub, [0.0]))
    metrics["cli.import_s"] = statistics.median([p[0] for p in import_probes] or [0.0])
    metrics["cli.import.scipy_s"] = statistics.median([p[1] for p in import_probes]
                                                      or [0.0])
    metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                   - statistics.median(w for w, _ in untraced))
    return metrics, counts_repeat


def save_spans(tracer, workload, child_dir):
    """Keep the raw spans of the first traced pass under .bench_build."""
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    if len(tracer.start):
        tracer.save(out / f"spans-{workload}.npz")
    if child_dir is not None:
        for f in Path(child_dir).glob("*.npz"):
            shutil.copyfile(f, out / f"spans-cli-{f.stem}.npz")


def print_human(res):
    d, m = res["detail"], res["result"]["metrics"]
    print(f"== {d['workload']} (trace {d['trace']}): {d['passes']} passes of "
          f"{d['jobs_per_pass']} jobs, correct={res['result']['correct']}")
    for k, v in m.items():
        print(f"  {k:44s} {v['value']:.6g} {v['unit']}")
    if not d["trace"]:
        print(f"  {'job_s.p50':44s} {d['job_s.p50']:.6g} s "
              f"({d['job_s.p50_samples']} samples)")
        t = d["job_s.tail"]
        print(f"  {'job_s.tail':44s} " + ("(fewer than 20 jobs)" if t is None else
              f"p{t['percentile']:g} = {t['value']:.6g} s ({t['beyond']} beyond)"))
    for k in ("error_ratio", "wrong_ratio"):
        print(f"  {k:44s} {d[k]:.6g} ratio")
    for p in d["problems"] + d["errors"]:
        print(f"  ! {p}")


def run_all(args) -> int:
    """All three workloads, each in its own process; prints every metric."""
    ok = True
    for wl in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{wl}: exited {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        print(lines[-2])
        print(lines[-1])
        ok &= json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "scmech" / "__init__.py").is_file():
        return fail(f"no scmech sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import scmech

    if Path(scmech.__file__).resolve().parent != (src / "scmech").resolve():
        return fail(f"scmech imported from {scmech.__file__}, not from {src}")
    if args.workload == "all":
        return run_all(args)
    # one CPU for this process and its children, so the calibration kernel
    # and the work it normalizes run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.probe:
        import workloads

        workloads.build(args.workload, args.seed, ROOT, ROOT)
        return 0
    work = ROOT / ".bench_build" / "perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_human(res)
    print(json.dumps({"detail": res["detail"]}))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
