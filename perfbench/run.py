"""Benchmark of the schaudermat command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. With `--trace 0` every call is a fresh `python -m schaudermat.cli`
process, in a closed loop with one client: passes over the workload's call
list repeat until the time is spent. Each call's time is the mean over the
faster half of the passes, since the noise of a shared machine only ever
slows a call down; `pass_s` is the sum of those times. With `--trace 1` the
same calls run in this process through `schaudermat.cli.main(argv)`,
alternating untraced and traced passes, and the per-layer metrics of the
traced passes are reported.

Every report is checked (see checks.py); the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. Spans
and a results record, seed included, are written under perfbench/work/.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# BLAS reads its thread count when numpy is first imported, in this process
# and in every CLI child. One thread: on a small shared virtual machine the
# cores slow each other down when both are busy, so a second BLAS thread
# adds more noise than speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy is imported only after the thread setting)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
SETUP_PER_PASS = 2


@dataclass
class CallResult:
    stdout: bytes
    code: int
    seconds: float
    rss_mb: float = 0.0
    error: str = ""


def subprocess_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_seconds(workdir):
    """Wall time for a fresh interpreter to import schaudermat.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import schaudermat.cli"], cwd=workdir,
                   env=subprocess_env(), check=True)
    return time.perf_counter() - start


def run_subprocess(call, workdir):
    with open(workdir / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "schaudermat.cli", *call.argv],
                                cwd=workdir, env=subprocess_env(), stdout=subprocess.PIPE,
                                stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 gives this child's own resource usage, max RSS included.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode("ascii", "replace")
    return CallResult(out, proc.returncode, seconds, usage.ru_maxrss / 1024, message)


def run_in_process(call, cli):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
    except Exception:  # a crash of one call is recorded as its failure
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return CallResult(out.getvalue().encode("ascii"), code, seconds, error=err.getvalue())


def check_result(call, result):
    """(parsed report or None, problems) for one finished call."""
    if result.code != 0:
        return None, [f"{call.label}: exit code {result.code}: {result.error.strip()[-300:]}"]
    try:
        report = json.loads(result.stdout)
    except ValueError as exc:
        return None, [f"{call.label}: malformed JSON ({exc})"]
    try:
        problems = call.check(report)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        problems = [f"{call.label}: report lacks an expected field ({exc!r})"]
    return report, problems


def run_pass(calls, execute):
    """Run every call once, in order; returns a list of (result, report, problems)."""
    outcomes = []
    for call in calls:
        result = execute(call)
        report, problems = check_result(call, result)
        if report is not None and not problems and call.then:
            call.then(report)
        outcomes.append((result, report, problems))
    return outcomes


def checker_self_test(calls, outcomes):
    """Tampered copies of real reports must fail their checks."""
    problems = []
    for mode in ("LowerBoundWitness", "Exact"):
        for call, (_, report, _) in zip(calls, outcomes):
            bad = checks.tampered(report, mode) if report is not None else None
            if bad is not None:
                if not call.check(bad):
                    problems.append(f"checker self-test: tampered {mode} in {call.label} passed")
                break
        else:
            problems.append(f"checker self-test: no {mode} estimate to tamper with")
    return problems


def timed_passes(seconds, min_passes, run_one):
    """Run passes until *seconds* are spent (at least *min_passes*); a pass is
    started only when one more pass of the last pass's length still fits."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_one(len(passes)))
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - began) > seconds:
            return passes


def faster_half_mean(values):
    """Mean of the faster half of *values* (the fastest of one or two)."""
    return statistics.fmean(sorted(values)[:(len(values) + 1) // 2])


def pass_seconds(outcomes):
    return sum(result.seconds for result, _, _ in outcomes)


def end_to_end(args, calls, workdir):
    import_seconds(workdir)  # writes bytecode caches; untimed
    # The first call of a run is slower than its repeats; run it once untimed.
    run_subprocess(calls[0], workdir)
    setup = []

    def one_pass(_):
        # The set-up samples are spread over the run, since the speed of a
        # shared machine drifts over seconds to minutes.
        setup.extend(import_seconds(workdir) for _ in range(SETUP_PER_PASS))
        return run_pass(calls, lambda c: run_subprocess(c, workdir))

    passes = timed_passes(args.seconds, 2, one_pass)
    largest = next(i for i, call in enumerate(calls) if call.largest)
    call_s = [faster_half_mean([p[i][0].seconds for p in passes]) for i in range(len(calls))]
    witness_means = []
    for outcomes in passes:
        values = [v for _, report, _ in outcomes if report for v in checks.witness_values(report)]
        witness_means.append(statistics.fmean(values) if values else 0.0)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (sum(call_s), "s"),
        "max_call_s": (call_s[largest], "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r, _, _ in p) for p in passes), "MB"),
        "witness_value": (statistics.median(witness_means), "1"),
    }
    record = {"setup_s": setup, "passes": [
        {"calls": [{"label": c.label, "seconds": r.seconds, "rss_mb": r.rss_mb, "problems": pr}
                   for c, (r, _, pr) in zip(calls, p)]} for p in passes]}
    return passes, metrics, record, []


def per_layer(args, calls, workdir):
    sys.path.insert(0, str(SRC))
    import schaudermat.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "schaudermat":
        raise RuntimeError(f"schaudermat imported from {cli.__file__}, not from {SRC}")
    tracers = []

    def run_one(index):
        """Passes go untraced, traced, traced, untraced, ..."""
        if index % 3 == 0:
            return "untraced", run_pass(calls, lambda c: run_in_process(c, cli))
        tracer = tracing.Tracer()
        tracers.append(tracer)

        def execute(call):
            tracer.run = f"{args.workload}:{args.seed}:pass{index}:{call.label}"
            return run_in_process(call, cli)

        with tracing.instrumented(tracer):
            return "traced", run_pass(calls, execute)

    labelled = timed_passes(args.seconds, 3, run_one)
    passes = [outcomes for _, outcomes in labelled]
    problems = [f"{call.label}: {kind} stdout differs from the first untraced pass"
                for kind, outcomes in labelled[1:]
                for call, (r0, _, _), (r, _, _) in zip(calls, passes[0], outcomes)
                if r.stdout != r0.stdout]
    stdout_identical = not problems
    traced_metrics = [t.metrics() for t in tracers]
    counts = [{k: m[k] for k in tracing.COUNTS} for m in traced_metrics]
    if any(c != counts[0] for c in counts):
        problems.append(f"counts differ between traced passes: {counts}")

    untraced = statistics.median(pass_seconds(o) for k, o in labelled if k == "untraced")
    traced = statistics.median(pass_seconds(o) for k, o in labelled if k == "traced")
    metrics = {name: (statistics.median(m[name] for m in traced_metrics), tracing.unit(name))
               for name in tracing.METRICS}
    metrics.update((name, (value, "count")) for name, value in counts[0].items())
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.traced_pass_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")

    # Span ids and parents are numbered within a pass; `run` names the pass
    # and the call. Times are seconds from the first traced span.
    t0 = tracers[0].spans[0]["start"]
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="ascii") as fh:
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(dict(span, start=span["start"] - t0, end=span["end"] - t0))
                         + "\n")
    record = {"passes": [kind for kind, _ in labelled], "counts": counts,
              "stdout_identical": stdout_identical, "spans": str(spans_path.relative_to(ROOT))}
    return passes, metrics, record, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "schaudermat" / "cli.py").is_file():
        sys.stderr.write(f"error: no schaudermat sources under {SRC}\n")
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        calls = workloads.BUILDERS[args.workload](args.seed, workdir)
        run = per_layer if args.trace else end_to_end
        passes, metrics, record, problems = run(args, calls, workdir)
    finally:
        shutil.rmtree(workdir)
    problems += checker_self_test(calls, passes[0])
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for _, _, pr in p if pr)
    problems += [msg for p in passes for _, _, pr in p for msg in pr]
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  attempted=attempted, failed=failed, failed_share=failed / attempted,
                  problems=problems, metrics={k: v for k, (v, _) in metrics.items()})
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii")
    for msg in problems[:20]:
        print(f"problem: {msg}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"failed_share={failed / attempted:.6g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
