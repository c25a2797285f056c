#!/usr/bin/env python3
"""quadshadow benchmark: one workload per run, one caller in a closed loop.

    python3 bench/run.py --workload correct-lift --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  The seed's inputs are generated
and serialised to diagram documents before each pass; the timed program
then receives only those documents.  ``setup_s`` is the fastest of these
builds.

``--trace 0`` times the workload in whole passes over its pool and prints
the end-to-end metrics, taken from each operation's fastest run over the
passes (see ``run_timed``).
``--trace 1`` is the separate traced run: untraced and traced passes over
the pool, alternating, whatever ``--seconds`` says; it prints the per-layer
metrics, and its counts per diagram are exact.  ``--profile`` prints a cProfile top-10
of one pass instead.  ``--record`` rewrites the workload's entry in ``fingerprints.json``.

Every run checks every operation's result, the input fingerprint and the
output digest of a fixed canary pool, and the full-pool digests when the
seed is a recorded one.  Every metric is printed by name with its unit;
the last stdout line is the JSON result, and ``bench/out/`` receives the
full result (environment, sample counts, drift probe) and, when traced,
every span.  Any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FINGERPRINTS = BENCH / "fingerprints.json"

#: Items of the recorded seed's pool checked on every run.
CANARY = 16
#: Fresh interpreters started to time the package import.
IMPORT_REPS = 5
#: Traced and untraced passes of a traced run, alternating.
TRACE_PAIRS = 3


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def digest_inputs(items) -> str:
    return digest(part for item in items for part in item)


def digest_outputs(outputs) -> str:
    return digest(text for out in outputs for text in out)


class Checks:
    """Attempted and failed operations and checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str) -> None:
        """Mark the current attempt failed."""
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """One attempted check."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def call(self, fn, what: str):
        """One attempted operation; an exception fails it and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # the program under test failed; count it and go on
            self.fail(f"{what}: {type(e).__name__}: {e}")
            return None


def reference_rate(reps: int = 5, n: int = 4000) -> list[float]:
    """Iterations per second of a fixed stdlib-only Fraction/gcd loop."""
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for k in range(1, n + 1):
            f = Fraction(k % 97 + 1, k % 89 + 2) * Fraction(k % 13 + 3, k % 7 + 1)
            acc += gcd(f.numerator * 7919, f.denominator * 104729)
        rates.append(n / (time.perf_counter() - t0))
    return rates


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def write_docs(workdir: Path, items, prefix: str) -> list[str]:
    paths = []
    for i, (_, doc) in enumerate(items):
        path = workdir / f"{prefix}{i}.json"
        path.write_text(doc, encoding="utf-8")
        paths.append(str(path))
    return paths


def pool_outputs(w, items, paths, checks: Checks | None):
    """Reference outputs of every item; failures counted in checks, or raised."""
    outs = []
    for (kind, doc), path in zip(items, paths):
        if checks is None:
            outs.append(w.run_doc(kind, doc, path))
        else:
            outs.append(checks.call(lambda: w.run_doc(kind, doc, path), f"item {len(outs)}"))
    return outs


# ---------------------------------------------------------------------------
# the timed run


def cli_invocation(path: str, command: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "quadshadow.cli_io", command, path],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return proc.stdout


def timed_loop(build, make_ops, expected, seconds: float, checks):
    """Whole passes in a closed loop, at least four, until the time is up.

    The inputs of every pass are built again, and the build is timed, just
    before it runs, so that set-up is sampled as often as the ops are; every
    build must give the same inputs.  make_ops(items) gives the pass's ops.
    expected[k] is the output op k must return; a None entry is filled by
    the first call and compared on every later one.  Returns the latency of
    every op in every pass, the duration of every pass and of every build.
    """
    latencies: list[list[float]] = []
    pass_times: list[float] = []
    setup_times: list[float] = []
    clock = time.perf_counter
    start = clock()
    first = None
    while len(pass_times) < 4 or clock() - start < seconds:
        p = len(pass_times)
        t0 = clock()
        items = build()
        setup_times.append(clock() - t0)
        if first is None:
            first = items
        else:
            checks.check(items == first, "input generation is not deterministic")
        row = []
        p0 = clock()
        for k, op in enumerate(make_ops(items)):
            t0 = clock()
            out = checks.call(op, f"pass {p} op {k}")
            row.append(clock() - t0)
            if out is not None:
                if expected[k] is None:
                    expected[k] = out
                elif out != expected[k]:
                    checks.fail(f"pass {p} op {k}: output differs from its expected value")
        pass_times.append(clock() - p0)
        latencies.append(row)
    return latencies, pass_times, setup_times


def tail_of(sorted_values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with ten values beyond it, or the
    largest value when there are ten or fewer: (value, percentile, beyond)."""
    n = len(sorted_values)
    rank = n - 10 if n > 10 else n
    return sorted_values[rank - 1], 100 * rank / n, n - rank


def summarise(latencies: list[float]) -> tuple[float, float, float]:
    """Rate, median and tail of op latencies in seconds."""
    ordered = sorted(latencies)
    return len(ordered) / sum(ordered), statistics.median(ordered), tail_of(ordered)[0]


def run_timed(w, args, items, paths, reference, checks) -> tuple[dict, dict]:
    from workloads import CLI_COMMANDS

    if w.subprocess:
        def make_ops(_items):
            return [(lambda p=p, c=c: cli_invocation(p, c)) for p in paths for c in CLI_COMMANDS]

        expected = [text for out in reference for text in (out or (None,) * len(CLI_COMMANDS))]
    else:
        def make_ops(pass_items):
            return [
                (lambda kind=kind, doc=doc, p=p: w.run_doc(kind, doc, p))
                for (kind, doc), p in zip(pass_items, paths)
            ]

        expected = reference
    drift = reference_rate()
    latencies, pass_times, setup_times = timed_loop(
        lambda: w.inputs(args.seed, len(items)), make_ops, expected, args.seconds, checks
    )
    drift += reference_rate()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if w.subprocess else resource.RUSAGE_SELF)
    # On a shared virtual machine the speed can drift by up to 2x for
    # seconds at a time, and the share of slow and fast stretches differs
    # from run to run; other work on the machine only ever adds time.  So every op runs
    # once per pass over many passes and its latency is its fastest run,
    # which the drift moves least; set-up is the fastest build for the same
    # reason.  With one caller in a closed loop the throughput is the
    # reciprocal of the mean latency.
    fastest = [min(runs) for runs in zip(*latencies)]
    rate, p50, tail = summarise(fastest)
    _, tail_pct, beyond = tail_of(sorted(latencies[0]))
    every = [x for row in latencies for x in row]
    all_rate, all_p50, all_tail = summarise(every)
    metrics = {
        "diagrams_per_s": rate,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": min(setup_times),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    details = {
        "ops_per_pass": len(latencies[0]),
        "passes": len(pass_times),
        "tail_percentile": tail_pct,
        "tail_ops_beyond": beyond,
        "setup_runs_s": setup_times,
        "machine.ref_ops_per_s": statistics.median(drift),
        "first_pass_p50_ms": summarise(latencies[0])[1] * 1e3,
        # How much faster an op's fastest run is than its first, the first
        # being the first time the process sees that input.
        "repeat_speedup": statistics.median(r[0] / m for r, m in zip(zip(*latencies), fastest)),
        "all_runs_p50_ms": all_p50 * 1e3,
        "all_runs_tail_ms": all_tail * 1e3,
        "all_runs_rate_per_s": all_rate,
        "pass_times_s": pass_times,
        "latencies_ms": [[x * 1e3 for x in row] for row in latencies],
    }
    return metrics, details


# ---------------------------------------------------------------------------
# the traced run


def import_ms() -> float:
    code = "import time; t = time.perf_counter(); import quadshadow; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times) * 1e3


def run_traced(w, args, items, paths, reference, tracer, checks) -> tuple[dict, dict]:
    def one_pass() -> float:
        t0 = time.perf_counter()
        for k, ((kind, doc), path) in enumerate(zip(items, paths)):
            tracer.diagram_id = k
            out = checks.call(lambda: w.run_doc(kind, doc, path), f"item {k}")
            if out is not None:
                if reference[k] is None:
                    reference[k] = out
                elif out != reference[k]:
                    checks.fail(f"item {k}: traced output differs")
        return time.perf_counter() - t0

    # Traced and untraced passes alternate, so that drift reaches both alike,
    # and the overhead compares their fastest passes.  The first traced pass
    # is the first to see the inputs; a cache keyed on them would make later
    # passes do fewer calls, which the timed run, taking each op's fastest
    # run, would credit.  repeat_calls_ratio shows it.
    untraced, traced, spans_per_pass = [], [], []
    for _ in range(TRACE_PAIRS):
        tracer.install()
        before = len(tracer.name_id)
        traced.append(one_pass())
        spans_per_pass.append(len(tracer.name_id) - before)
        tracer.uninstall()
        untraced.append(one_pass())
    drift = reference_rate()

    n = len(items)
    runs = n * TRACE_PAIRS  # diagrams taken through the traced passes
    loop, setup = tracer.summary()
    gen_ns = sum(row["root_ns"] for name, row in setup.items() if name.startswith("generators.gen_"))

    def calls(name: str) -> float:
        return loop[name]["calls"] / runs

    def ms(*names: str) -> float:
        return sum(loop[name]["total_ns"] for name in names) / runs / 1e6

    run_cli_calls = loop["cli_io.run_cli"]["calls"]
    verify_calls = loop["lift.verify_witness"]["calls"]
    metrics = {
        "kernel.normalize_calls": calls("kernel.normalize"),
        "kernel.join2_calls": calls("kernel.join2"),
        "kernel.meet2_calls": calls("kernel.meet2"),
        "kernel.central_project_calls": calls("kernel.central_project"),
        "kernel.normalize_ms": ms("kernel.normalize"),
        "kernel.max_coord_bits": tracer.max_coord_bits,
        "quadrangle.sides_calls": calls("quadrangle.sides"),
        "quadrangle.diagonal_triangle_calls": calls("quadrangle.diagonal_triangle"),
        "checker.decide_calls": calls("checker.decide_depiction"),
        "checker.decide_ms": ms("checker.decide_depiction"),
        "lift.lift_collinear_centers_ms": ms("lift.lift_collinear_centers"),
        "lift.verify_witness_ms": ms("lift.verify_witness"),
        "lift.project_scene_ms": ms("lift.project_scene"),
        "lift.planarity_certificate_ms": ms("lift.planarity_certificate"),
        "lift.lift_via_axis_ms": ms("lift.lift_via_axis"),
        "lift.verify_pass_ratio": tracer.verify_passed / verify_calls if verify_calls else 0.0,
        "perspectivity.side_axes_ms": ms("perspectivity.side_axes"),
        "perspectivity.common_axis_ms": ms("perspectivity.common_axis"),
        "perspectivity.collineation_ms": ms("perspectivity.perspective_collineation"),
        "generators.gen_ms": gen_ns / n / 1e6,
        "generators.draws_per_sample": setup["generators.SplitMix64.next_u64"]["calls"] / n,
        "cli_io.parse_ms": ms("cli_io.parse_diagram"),
        "cli_io.emit_ms": ms("cli_io.emit_diagram", "cli_io.emit_verdict", "cli_io.emit_witness"),
        "cli_io.render_svg_ms": ms("cli_io.render_svg"),
        "cli_io.import_ms": import_ms() if w.subprocess else 0.0,
        "cli_io.run_cli_ms": (
            loop["cli_io.run_cli"]["total_ns"] / run_cli_calls / 1e6 if run_cli_calls else 0.0
        ),
        "machine.ref_ops_per_s": statistics.median(drift),
        "trace.overhead_pct": (min(traced) / min(untraced) - 1) * 100,
        "trace.repeat_calls_ratio": spans_per_pass[-1] / spans_per_pass[0],
    }
    if spans_per_pass[-1] != spans_per_pass[0]:
        print(
            f"warning: the last traced pass made {spans_per_pass[-1]} traced calls, the first "
            f"{spans_per_pass[0]}; the timed run credits a cache keyed on its repeated inputs",
            file=sys.stderr,
        )
    spans = OUT / f"spans-{args.workload}.tsv"
    tracer.write(spans)
    details = {
        "diagrams": n,
        "traced_diagram_runs": runs,
        "untraced_passes_s": untraced,
        "traced_passes_s": traced,
        "spans_per_traced_pass": spans_per_pass,
        "spans": len(tracer.name_id),
        "spans_file": str(spans.relative_to(ROOT)),
        "verify_witness_calls": verify_calls,
        "run_cli_calls": run_cli_calls,
        "loop_totals": loop,
        "setup_totals": setup,
    }
    return metrics, details


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", action="store_true", help="cProfile top-10 of one pass")
    p.add_argument("--record", action="store_true", help="rewrite the workload's fingerprints")
    args = p.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds < 0):
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadshadow" / "__init__.py").is_file():
        fail(f"no package source at {SRC}; run from a quadshadow checkout")
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    import quadshadow

    if Path(quadshadow.__file__).resolve().parent != (SRC / "quadshadow").resolve():
        fail(f"imported quadshadow from {quadshadow.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        if args.record:
            return record(w, workdir)
        if args.profile:
            return profile(w, args, workdir)
        return measure(w, args, spec, workdir)


def measure(w, args, spec, workdir: Path) -> int:
    n = w.pool
    checks = Checks()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()  # the build of a traced run is itself traced
    items = w.inputs(args.seed, n)
    if tracer:
        tracer.uninstall()
    paths = write_docs(workdir, items, "doc-") if w.subprocess else [""] * n

    # Input fingerprint and output digest: canary every run, full pool for recorded seeds.
    # The canary is run last, so that the measured passes are the first to see
    # their inputs; at a recorded seed the canary is a prefix of the pool.
    prints = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))["workloads"][w.name]
    canary = w.inputs(prints["seed"], CANARY)
    checks.check(
        digest_inputs(canary) == prints["canary"]["inputs"], "canary input fingerprint differs"
    )
    recorded = prints["seeds"].get(str(args.seed))
    if recorded:
        checks.check(digest_inputs(items) == recorded["inputs"], "input fingerprint differs")

    if tracer:
        reference = [None] * n
        metrics, details = run_traced(w, args, items, paths, reference, tracer, checks)
        names = spec["per_layer"]
    else:
        reference = pool_outputs(w, items, paths, checks) if w.subprocess else [None] * n
        metrics, details = run_timed(w, args, items, paths, reference, checks)
        names = spec["end_to_end"]
    if recorded:
        checks.check(
            None not in reference and digest_outputs(reference) == recorded["outputs"],
            "output digest differs",
        )
    canary_paths = write_docs(workdir, canary, "canary-") if w.subprocess else [""] * CANARY
    canary_out = pool_outputs(w, canary, canary_paths, checks)
    checks.check(
        digest_outputs(o for o in canary_out if o) == prints["canary"]["outputs"],
        "canary output digest differs",
    )

    units = {m["name"]: m["unit"] for m in names}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(units)}")
    env = environment()
    failed_ratio = checks.failed / checks.attempted
    print(f"workload {w.name} seed {args.seed} trace {args.trace} pool {n}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    if tracer:
        for name, row in details["loop_totals"].items():
            if row["calls"]:
                print(
                    f"span {name} calls {row['calls']} total_ms {row['total_ns'] / 1e6:.6g} "
                    f"self_ms {row['self_ns'] / 1e6:.6g}"
                )
    else:
        print(
            f"  fastest run of each op over {details['passes']} passes of {details['ops_per_pass']} ops; "
            f"latency_tail_ms is p{details['tail_percentile']:g} over ops, {details['tail_ops_beyond']} beyond it"
        )
        print(
            f"  over all runs: p50 {details['all_runs_p50_ms']:.6g} ms, tail {details['all_runs_tail_ms']:.6g} ms, "
            f"{details['all_runs_rate_per_s']:.6g} 1/s; first pass p50 {details['first_pass_p50_ms']:.6g} ms, "
            f"fastest runs {details['repeat_speedup']:.3g}x faster than first"
        )
        print(f"drift machine.ref_ops_per_s {details['machine.ref_ops_per_s']:.6g} 1/s")
    print(f"failed_ratio {failed_ratio:.6g} ({checks.failed} of {checks.attempted})")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    full = dict(result, workload=w.name, seed=args.seed, pool=n, env=env,
                failed_ratio=failed_ratio, failures=checks.messages, details=details)
    out_file = OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def profile(w, args, workdir: Path) -> int:
    items = w.inputs(args.seed, w.pool)
    paths = write_docs(workdir, items, "doc-")
    prof = cProfile.Profile()
    prof.runcall(pool_outputs, w, items, paths, None)
    report = OUT / f"profile-{w.name}-seed{args.seed}.txt"
    with open(report, "w", encoding="utf-8") as fh:
        pstats.Stats(prof, stream=fh).sort_stats("tottime").print_stats(10)
    print(report.read_text(encoding="utf-8"))
    return 0


def record(w, workdir: Path) -> int:
    """Fingerprint the workload's default and held-out seeds."""
    prints = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    entry = prints["workloads"][w.name]
    canary = w.inputs(entry["seed"], CANARY)
    canary_out = pool_outputs(w, canary, write_docs(workdir, canary, "canary-"), None)
    entry["pool"] = w.pool
    entry["canary"] = {"inputs": digest_inputs(canary), "outputs": digest_outputs(canary_out)}
    entry["seeds"] = {}
    for seed in (entry["seed"], entry["holdout_seed"]):
        items = w.inputs(seed, w.pool)
        outs = pool_outputs(w, items, write_docs(workdir, items, f"s{seed}-"), None)
        entry["seeds"][str(seed)] = {"inputs": digest_inputs(items), "outputs": digest_outputs(outs)}
    FINGERPRINTS.write_text(json.dumps(prints, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {w.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
