"""Benchmark of the hypersteiner pipeline.

    python3 perfbench/run.py --workload dp-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One run builds a seeded corpus, solves it in whole rounds until another
round would pass --seconds (at least one round), checks every output
outside the timed region and prints one JSON object as its last line.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics.  "all" runs every
workload in its own fresh process, one after another.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# calibration time of the reference machine; see calibration_s()
CAL_REF_S = 0.0016
HS_MODULES = ("instance", "components", "simplexq", "hyperlp", "sepflow",
              "removal_matroid", "splitting", "contract_alg", "bcr_quasi", "oracles")


def import_program():
    """Import the package from this checkout's src/; None if it is absent."""
    src = ROOT / "src"
    if not (src / "hypersteiner" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import importlib
    hs = argparse.Namespace()
    for name in HS_MODULES:
        setattr(hs, name, importlib.import_module("hypersteiner." + name))
    return hs


def _calibration_chunk():
    s = Fraction(0)
    for i in range(1, 450):
        s += Fraction(i % 13 + 1, i % 97 + 1)
    return s


def calibration_s():
    """Median of three timings of a fixed pure-Python Fraction loop: how
    fast this machine runs interpreter-bound work right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_s(dt, cal_before, cal_after):
    """Raw seconds scaled to the reference machine, by the calibrations
    measured just before and just after."""
    return dt * 2 * CAL_REF_S / (cal_before + cal_after)


def timed(fn):
    """(fn(), its time in reference seconds)."""
    cal = calibration_s()
    t0 = time.perf_counter()
    out = fn()
    return out, reference_s(time.perf_counter() - t0, cal, calibration_s())


def run_rounds(wl, hs, corpus, capture, seconds, tracer=None):
    """Solve the corpus in rounds until another round would pass `seconds`
    (at least one).  Without a tracer every round is untraced; with one,
    rounds alternate untraced / traced in pairs.

    Returns (outputs, times): times["plain"] and times["traced"] hold raw
    per-instance seconds, the "_ref" lists the same times scaled to
    reference seconds, by the calibration measured before and after each
    instance."""
    outputs = []
    times = {"plain": [], "plain_ref": [], "traced": [], "traced_ref": []}
    root = tracer.name_id(layers.ROOT_SPAN) if tracer is not None else None
    spent = 0.0
    rounds = 0
    while True:
        for traced_round in ((False, True) if tracer is not None else (False,)):
            kind = "traced" if traced_round else "plain"
            if traced_round:
                for owner, attr, name, count in layers.patch_table(hs):
                    tracer.patch(owner, attr, name, count)
            try:
                cal = calibration_s()
                for i, item in enumerate(corpus):
                    if traced_round:
                        tracer.current_instance = i
                        span = tracer.open(root)
                    t0 = time.perf_counter()
                    try:
                        out = wl.solve(hs, item, capture)
                    except Exception as exc:  # a failed operation is counted, not fatal
                        out = exc
                    dt = time.perf_counter() - t0
                    if traced_round:
                        tracer.close(span)
                    after = calibration_s()
                    times[kind].append(dt)
                    times[kind + "_ref"].append(reference_s(dt, cal, after))
                    cal = after
                    spent += dt
                    outputs.append((i, out))
            finally:
                if traced_round:
                    tracer.unpatch()
        rounds += 1
        if spent + spent / rounds > seconds:
            return outputs, times


def check_outputs(wl, hs, corpus, outputs):
    """(failed count, wrong-output count, per-instance ratios, problems)."""
    memos = [dict() for _ in corpus]
    failed = wrong = 0
    ratios = {}
    problems = []
    for i, out in outputs:
        if isinstance(out, Exception):
            failed += 1
            problems.append((i, "%s: %s" % (type(out).__name__, out)))
            continue
        try:
            found, ratio = wl.check(hs, corpus[i], out, memos[i])
        except Exception as exc:  # an output the checks cannot even read is wrong
            found, ratio = ["check raised %s: %s" % (type(exc).__name__, exc)], None
        if found:
            failed += 1
            wrong += 1
            problems.append((i, "; ".join(found)))
        else:
            ratios.setdefault(i, ratio)
    return failed, wrong, ratios, problems


def import_s():
    """Time to import the package in a fresh interpreter, in reference
    seconds: the median of three runs, each scaled by the calibration
    measured around it."""
    code = "import sys; sys.path.insert(0, %r); import hypersteiner, hypersteiner.oracles" % str(
        ROOT / "src")
    return statistics.median(
        timed(lambda: subprocess.run([sys.executable, "-c", code], check=True))[1]
        for _ in range(SETUP_REPEATS))


def run_workload(args):
    hs = import_program()
    if hs is None:
        print("perfbench: no hypersteiner package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    build_s = []
    for _ in range(SETUP_REPEATS):
        corpus, t = timed(lambda: wl.build(hs, args.seed, args.instances))
        build_s.append(t)
    setup_s = import_s() + statistics.median(build_s)

    tracer = Tracer() if args.trace else None
    with workloads.Capture(hs) as capture:
        outputs, times = run_rounds(wl, hs, corpus, capture, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    failed, wrong, ratios, problems = check_outputs(wl, hs, corpus, outputs)
    check_s = time.perf_counter() - t_check
    for i, msg in problems[:20]:
        print("FAILED instance %d: %s" % (i, msg))

    n = len(corpus)
    if args.trace:
        passes = len(times["traced"]) // n
        metrics = layers.layer_metrics(tracer, passes, times)
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / ("spans-%s-seed%d.csv" % (wl.name, args.seed)))
    else:
        good = list(ratios.values()) or [(float("nan"), float("nan"))]
        metrics = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (len(times["plain_ref"]) / sum(times["plain_ref"]), "1/s"),
            "instance_p50_s": (statistics.median(times["plain_ref"]), "s"),
            "tree_ratio": (statistics.fmean(r[0] for r in good), "ratio"),
            "bound_ratio": (statistics.fmean(r[1] for r in good), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    attempted = len(outputs)
    print("workload %s seed %d: %d instances, %d rounds, %d attempted, %d failed, "
          "checks took %.1f s" % (wl.name, args.seed, n, attempted // n, attempted, failed,
                                  check_s))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    plain = times["plain"]
    print("  raw: %.6g instances/s, p50 %.6g s; reference seconds per raw second %.4f"
          % (len(plain) / sum(plain), statistics.median(plain),
             sum(times["plain_ref"]) / sum(plain)))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in a fresh process, one at a time, untraced then traced."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.instances:
                cmd += ["--instances", str(args.instances)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = proc.returncode or 1
                continue
            results["%s/trace%d" % (name, trace)] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--instances", type=int, default=None,
                   help="corpus size override (the default is the workload's own)")
    args = p.parse_args(argv)
    # single-threaded: numpy's BLAS pools are sized at import
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
