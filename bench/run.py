"""geodd benchmark: seeded plant workloads, timed end to end and per layer.

    python3 bench/run.py --workload p1-cli-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; geodd is imported from `src/`. The
workload's fixed plant corpus is set up (with its exact expectations) three
times and put in an order drawn from `--seed`; the timed phase then runs
whole passes over the plants, as many as take about `--seconds` seconds on
the reference machine, one process, BLAS pinned to one thread. The number
of passes depends only on the workload and `--seconds`, so every run
attempts the same ops with the same outcomes. Op times are stated at
nominal machine speed (see speed.py). Every op's output is checked after
the timed phase by the benchmark's own code (see checks.py).

The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. The line before it carries the details:
outcome counts, the tail percentile, unscaled times and speed factors, and
the machine and library versions. With `--trace 1` the first half of the
passes (rounded up) runs untraced and the rest traced, the spans are
written to `.bench_out/`, and `trace.overhead_pct` compares the two
halves' median op times. bench/README.md describes the workloads and metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# Wall seconds of one pass over each workload's corpus on the reference
# machine (shared 2-vCPU x86_64 VM) at its usual load, a speed factor of
# about 1.7 (see speed.py). A run makes round(--seconds / this) passes, at
# least one: a number fixed in advance, so the counts of attempted and
# failed ops are the same in every run.
PASS_SECONDS = {"p1-cli-ladder": 4.5, "p2-ladder": 9.5, "verdict-mix": 3.8}
PLACE_POLES_WARNING = "Convergence was not reached"

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("plants_per_s", "1/s"),
    ("ok_share", "fraction"),
    ("peak_rss_mb", "MB"),
)
# (metric, unit); "<layer>.<function>.ms" is self time per op, ".calls"
# calls per op, ".fail" raised calls per op.
PER_LAYER = (
    ("cli.main.ms", "ms/op"), ("cli.parse_problem.ms", "ms/op"),
    ("cli.parse_compensator.ms", "ms/op"),
    ("exact.vstar_span.ms", "ms/op"), ("exact.sstar_span.ms", "ms/op"),
    ("exact.affine_k_family.ms", "ms/op"), ("exact.det_grid_scan.ms", "ms/op"),
    ("exact.det_grid_scan.calls", "1/op"),
    ("geometry.vstar.calls", "1/op"), ("geometry.vstar.ms", "ms/op"),
    ("geometry.sstar.calls", "1/op"), ("geometry.sstar.ms", "ms/op"),
    ("geometry.friend.ms", "ms/op"),
    ("geometry.stabilizing_friend.ms", "ms/op"), ("geometry.stabilizing_friend.fail", "1/op"),
    ("geometry.place_poles.calls", "1/op"), ("geometry.place_poles.ms", "ms/op"),
    ("geometry.place_poles.warnings", "1/op"),
    ("geometry.spectral_report.ms", "ms/op"), ("geometry.vstar_g.ms", "ms/op"),
    ("geometry.sstar_g.ms", "ms/op"), ("geometry.region_stabilizable.ms", "ms/op"),
    ("lattice.vm_sM.calls", "1/op"), ("lattice.vm_sM.ms", "ms/op"),
    ("subspaces.span_of.calls", "1/op"), ("subspaces.kernel_of.calls", "1/op"),
    ("subspaces.invariant_hull.calls", "1/op"), ("subspaces.invariant_hull.ms", "ms/op"),
    ("subspaces.modal_subspace.ms", "ms/op"), ("subspaces.combine.calls", "1/op"),
    ("synthesis.analyze_p1.ms", "ms/op"), ("synthesis.analyze_p2.ms", "ms/op"),
    ("synthesis.k_affine_family.ms", "ms/op"), ("synthesis.select_wellposed.ms", "ms/op"),
    ("synthesis.synthesize.ms", "ms/op"), ("synthesis.close_loop.ms", "ms/op"),
    ("synthesis.solve.wasted_ms", "ms/op"), ("synthesis.solve.certified_ratio", "fraction"),
    ("synthesis.Ac_norm_p50", "norm"),
    ("verify.certify_decoupled.calls", "1/op"), ("verify.certify_decoupled.ms", "ms/op"),
    ("verify.certify_decoupled.invalid", "1/op"), ("verify.transfer_samples.ms", "ms/op"),
    ("verify.tzw_log10_max", "log10"),
    ("trace.overhead_pct", "%"),
)


def import_geodd():
    """Put the checkout's `src/` first on the path and import geodd from it."""
    src = ROOT / "src"
    if not (src / "geodd" / "__init__.py").is_file():
        raise SystemExit(f"error: no geodd sources under {src}")
    sys.path.insert(0, str(src))
    import geodd
    import geodd.cli  # noqa: F401  (not imported by the package itself)

    if src not in Path(geodd.__file__).resolve().parents:
        raise SystemExit(f"error: geodd imported from {geodd.__file__}, not {src}")
    return geodd


@dataclasses.dataclass
class Record:
    case: int
    seconds: float          # wall time of the op
    calibration: float      # wall time of the calibration kernel just before it
    outcome: tuple
    warnings: int
    place_poles_warnings: int
    stderr_lines: int
    scaled: float = 0.0     # `seconds` at nominal machine speed (see speed.py)


def _conditions(report):
    return ({c.label: c.passed for c in report.conditions},
            {c.label: c.note for c in report.conditions})


def make_op(workload, geodd, workdir):
    """The op of a workload: case -> outcome tuple. Exceptions become
    ("raised", type name, report or None) outcomes."""
    cli = sys.modules["geodd.cli"]

    def guarded(body):
        def op(case):
            try:
                return body(case)
            except (geodd.Infeasible, geodd.WellPosednessObstruction) as err:
                return ("raised", type(err).__name__, _conditions(err.report) + (err.report.overall,))
            except Exception as err:  # any failure is the op's outcome, counted and reported
                return ("raised", type(err).__name__, None)
        return op

    def p1_cli(case):
        result = os.path.join(workdir, case.name + ".result.json")
        verified = os.path.join(workdir, case.name + ".verify.json")
        rc_solve = cli.main(["solve", "--input", case.problem_path, "--problem", "p1",
                             "--output", result])
        if rc_solve != 0:
            return ("cli", rc_solve, result, None, verified)
        rc_verify = cli.main(["verify", "--input", case.problem_path, "--problem", "p1",
                              "--compensator", result, "--output", verified])
        return ("cli", rc_solve, result, rc_verify, verified)

    def p2_solve(case):
        comp, _ = geodd.solve(case.plant, "p2")
        return ("solved", comp.A_c, comp.B_c, comp.C_c, comp.D_c)

    def verdicts(case):
        r1 = geodd.analyze_p1(case.plant)
        r2 = geodd.analyze_p2(case.plant)
        return ("verdicts", r1.overall, _conditions(r1)[0], r2.overall) + _conditions(r2)

    return guarded({"p1-cli-ladder": p1_cli, "p2-ladder": p2_solve,
                    "verdict-mix": verdicts}[workload])


def quietly(op, case):
    """Run and time one op with its warnings recorded and its stdout and
    stderr captured. Returns (outcome, seconds, warnings, captured text)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        outcome = op(case)
        seconds = time.perf_counter() - start
    return outcome, seconds, caught, err.getvalue()


def run_pass(cases, op, tracer=None, first_op=0):
    """One op per case, each after a run of the calibration kernel. Each op
    gets its own copy of the plant, so results memoized on a plant object
    do not carry over from pass to pass. Returns (records, speed factor)."""
    import speed

    records = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op = first_op + i
        case = dataclasses.replace(case, plant=case.fresh_plant())
        calibration = speed.kernel_seconds()
        outcome, seconds, caught, err = quietly(op, case)
        if outcome[0] == "cli":
            outcome = _read_cli_outputs(outcome, err)
        poles = sum(PLACE_POLES_WARNING in str(w.message) for w in caught)
        records.append(Record(i, seconds, calibration, outcome, len(caught), poles,
                              len(err.splitlines())))
    return records, speed.factor([r.calibration for r in records])


def _read_cli_outputs(outcome, stderr):
    """The solve and verify result files, and the CLI's first stderr line
    up to any detail in parentheses."""
    _, rc_solve, result, rc_verify, verified = outcome

    def load(path, rc, written):
        if rc not in written:
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    message = stderr.splitlines()[0].split(" (")[0] if stderr else ""
    return ("cli", rc_solve, load(result, rc_solve, (0, 2, 3)),
            rc_verify, load(verified, rc_verify, (0, 2)), message)


def timed_setup(generated):
    """Draw the cases one by one, timing each after a run of the
    calibration kernel. Returns (cases, seconds per case, kernel times)."""
    import speed

    cases, seconds, kernel = [], [], []
    while True:
        kernel.append(speed.kernel_seconds())
        start = time.perf_counter()
        case = next(generated, None)
        seconds.append(time.perf_counter() - start)
        if case is None:
            return cases, seconds, kernel
        cases.append(case)


def run_phase(cases, op, passes, tracer=None):
    """`passes` whole passes over the cases. Returns (records, wall
    seconds, speed factor of each pass)."""
    start = time.perf_counter()
    records, factors = [], []
    for k in range(passes):
        more, slowdown = run_pass(cases, op, tracer, first_op=k * len(cases))
        records += more
        factors.append(slowdown)
    import speed

    for r, value in zip(records, speed.scaled([r.seconds for r in records],
                                              [r.calibration for r in records])):
        r.scaled = value
    return records, time.perf_counter() - start, factors


def check(case, outcome, checks):
    """Verdict for one op's outcome, and a short kind for the outcome counts."""
    kind = outcome[0]
    if kind == "raised":
        name, report = outcome[1], outcome[2]
        if report is None:
            return checks.Verdict.refused(), name
        conds, notes, overall = report
        verdict = (checks.check_p2_report(overall, conds, notes, case.expected)
                   if "A" in conds or "precondition" in conds
                   else checks.check_p1_report(overall, conds, case.expected))
        return (checks.Verdict(False, verdict.wrong), f"{name}:{overall}")
    if kind == "solved":
        return checks.check_compensator(case.plant, *outcome[1:], stable=True), "solved"
    if kind == "verdicts":
        _, o1, c1, o2, c2, n2 = outcome
        v1 = checks.check_p1_report(o1, c1, case.expected)
        v2 = checks.check_p2_report(o2, c2, n2, case.expected)
        wrong = v1.wrong or v2.wrong
        return checks.Verdict(v1.ok and v2.ok, wrong), f"{o1}|{o2}"
    # CLI: solve, then verify on the solve result
    _, rc_solve, result, rc_verify, verified, message = outcome
    if rc_solve in (2, 3):
        report = result["report"]
        conds = {k: v["passed"] for k, v in report["conditions"].items()}
        verdict = checks.check_p1_report(report["overall"], conds, case.expected)
        return checks.Verdict(False, verdict.wrong), f"exit{rc_solve}:{report['overall']}"
    if rc_solve != 0:
        return checks.Verdict.refused(), f"exit{rc_solve}:{message}"
    c = result["compensator"]
    verdict = checks.check_compensator(case.plant, c["A_c"], c["B_c"], c["C_c"], c["D_c"],
                                       stable=False)
    if verified is not None and verified["verdict"] == "verified":
        return verdict, "solved"
    # verify refused a compensator that solve certified: a failed op; a
    # wrong one only when solve's claim itself does not hold
    return checks.Verdict(False, verdict.wrong, verdict.ratio, verdict.ac_norm), \
        f"verify_exit{rc_verify}"


def per_plant_times(records, count, field="scaled"):
    """Each plant's median op time over the passes, sorted."""
    times = [[] for _ in range(count)]
    for r in records:
        times[r.case].append(getattr(r, field))
    return sorted(statistics.median(t) for t in times)


def tail(values):
    """(percentile, value, count beyond): the highest whole percentile that
    leaves at least ten values beyond it."""
    n = len(values)
    pct = max(0, math.floor(100.0 - 1000.0 / n)) if n > 10 else 0
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if pct else values[0]
    return pct, value, sum(v > value for v in values)


def environment(geodd):
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS[:3]},
        "geodd": geodd.__version__,
    }


def layer_metrics(tracer, traced, checked, overhead_pct):
    """Per-layer metrics of the traced passes, per op; times at nominal
    speed, each span scaled by the speed factor of its op."""
    ops = len(traced)
    totals = tracer.layer_totals([r.seconds / r.scaled for r in traced])

    def total(name, field):
        return totals[name][field] if name in totals else 0

    out = {}
    for metric, _ in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field == "ms":
            out[metric] = total(name, 1) * 1e3 / ops
        elif field == "calls":
            out[metric] = total(name, 0) / ops
        elif field == "fail":
            out[metric] = total(name, 2) / ops
    solves = total("synthesis.solve", 0)
    ratios = [v.ratio for v in checked if v.ratio is not None]
    norms = [v.ac_norm for v in checked if v.ac_norm is not None]
    out.update({
        "geometry.place_poles.warnings": sum(r.place_poles_warnings for r in traced) / ops,
        "synthesis.solve.wasted_ms": total("synthesis.solve", 3) * 1e3 / ops,
        "synthesis.solve.certified_ratio":
            (solves - total("synthesis.solve", 2)) / solves if solves else 0.0,
        "synthesis.Ac_norm_p50": statistics.median(norms) if norms else 0.0,
        "verify.certify_decoupled.invalid": tracer.flagged / ops,
        "verify.tzw_log10_max": math.log10(max(max(ratios), 1e-300)) if ratios else 0.0,
        "trace.overhead_pct": overhead_pct,
    })
    units = dict(PER_LAYER)
    return {k: {"value": out[k], "unit": units[k]} for k, _ in PER_LAYER}


def measure(workload, seed, seconds, trace, limit=None):
    """Set up, time and check one workload; returns (result line, info)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    geodd = import_geodd()
    import cases as cases_mod
    import checks
    import speed
    import tracing

    import_s = time.perf_counter() - PROCESS_START
    workdir = ROOT / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_raw, setup_scaled, setup_kernel, prints = [], [], [], set()
        for _ in range(SETUP_REPEATS):
            cases, case_times, kernel = timed_setup(
                cases_mod.generate(workload, str(workdir), limit))
            setup_raw.append(sum(case_times))
            setup_scaled.append(sum(speed.scaled(case_times, kernel)))
            setup_kernel += kernel
            prints.add(cases_mod.fingerprint(cases))
        if len(prints) != 1:
            raise SystemExit("error: repeated set-ups gave different cases")
        cases = [cases[i] for i in cases_mod.op_order(workload, seed, len(cases))]
        op = make_op(workload, geodd, str(workdir))
        # one untimed op, so lazy imports and first-call costs stay out of
        # the timed phase
        quietly(op, dataclasses.replace(cases[0], plant=cases[0].fresh_plant()))

        passes = max(1, round(seconds / PASS_SECONDS[workload]))
        # a traced run splits its passes: the first half (rounded up)
        # untraced, the rest traced, at least one
        records, wall, factors = run_phase(cases, op, (passes + 1) // 2 if trace else passes)
        traced = []
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, _, _ = run_phase(cases, op, max(1, passes // 2), tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked, kinds, wrong, by_case = [], Counter(), [], {}
    for r in records + traced:
        verdict, kind = check(cases[r.case], r.outcome, checks)
        checked.append(verdict)
        kinds[kind] += 1
        by_case.setdefault(r.case, set()).add(kind)
        if verdict.wrong and len(wrong) < 5:
            wrong.append(f"{cases[r.case].name}: {verdict.wrong}")
    n_wrong = sum(v.wrong is not None for v in checked)
    ok = sum(v.ok for v in checked[:len(records)])
    attempted = len(checked)

    times = per_plant_times(records, len(cases))
    raw_times = per_plant_times(records, len(cases), "seconds")
    pct, tail_value, beyond = tail(times)
    setup_factor = speed.factor(setup_kernel)
    info = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "plants": len(cases), "passes": len(factors), "ops": attempted,
        "op_tail_percentile": pct, "plants_beyond_tail": beyond,
        "outcomes": dict(sorted(kinds.items())),
        "wrong_outputs": n_wrong, "wrong_examples": wrong,
        "plants_with_varying_outcome": sum(len(k) > 1 for k in by_case.values()),
        "warnings": sum(r.warnings for r in records + traced),
        "stderr_lines": sum(r.stderr_lines for r in records + traced),
        "speed_factor": {"setup": setup_factor, "passes": factors},
        "unscaled": {
            "setup_s": import_s + statistics.median(setup_raw), "import_s": import_s,
            "setup_runs_s": setup_raw,
            "op_p50_ms": statistics.median(raw_times) * 1e3,
            "op_tail_ms": tail(raw_times)[1] * 1e3,
            "plants_per_s": ok / sum(r.seconds for r in records),
            "timed_phase_s": wall,
        },
        "env": environment(geodd),
    }
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-s{seed}.jsonl.gz"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        info["span_count"] = len(tracer.spans)
        traced_p50 = statistics.median(per_plant_times(traced, len(cases)))
        overhead_pct = 100.0 * (traced_p50 / statistics.median(times) - 1.0)
        metrics = layer_metrics(tracer, traced, checked[len(records):], overhead_pct)
    else:
        values = {
            "setup_s": import_s / setup_factor + statistics.median(setup_scaled),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "plants_per_s": ok / sum(r.scaled for r in records),
            "ok_share": ok / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in END_TO_END}
    result = {"correct": n_wrong == 0, "attempted": attempted,
              "failed": attempted - sum(v.ok for v in checked), "metrics": metrics}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("p1-cli-ladder", "p2-ladder", "verdict-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
