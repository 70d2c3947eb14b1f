"""satminors benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sentences --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and never from an installed copy.  One caller with no
think time runs the workload's operations in order, the next starting when
the previous returns.  A round is one such pass plus a start-up probe and
the CLI cases; rounds repeat while the time budget allows.  All inputs are
generated from the seed before any timing.

On a shared 2-vCPU machine the speed drifts by up to 1.5x over seconds
and minutes (other tenants share its cores), and the drift moves every raw time of a run
together.  So a fixed pure-Python reference kernel, which never touches
satminors, is timed between the operations, and every time is reported at
reference speed: multiplied by REF_NOMINAL_S over the kernel's time
alongside it (the mean of the samples just before and after an operation;
the median of its round for a probe or CLI case).  A change to the program
moves these times as it moves raw ones; the machine's drift largely
cancels out.  The summary lines also print the raw medians.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json) and installs
no instrumentation.  --trace 1 runs untraced rounds for half the budget,
then one traced pass and the CLI cases in-process under span wrappers, and
reports the per-layer metrics; its spans go to .perfbench_out/.  --quick
runs a tiny version of the workload for the benchmark's own test.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  failed / attempted is the failed share:
an exception, a cap refusal or a wrong answer each count as a failure.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import ops
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# (unit, better) per metric; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cli_p50_ms": ("ms", "lower"),
}
CLI_COMMANDS = ("solve", "reduce", "analyze", "census")
HIGHER_IS_BETTER = {"minors.hit_ratio", "census.sentences", "census.sentences_per_s"}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".slope"):
        return "exponent"
    return {"minors.hit_ratio": "ratio", "census.sentences_per_s": "1/s",
            "trace.overhead_share": "share"}.get(name, "count")


# The program does no linear algebra, but importing numpy starts OpenBLAS's
# pool of one thread per core; on 2 shared vCPUs that pool was a third of
# the import time and most of its drift.  One thread keeps the benchmark
# and its subprocesses to one runnable thread each.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1"}


def _env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=150)


# The reference kernel's time at nominal speed; a time at reference speed is
# a raw time times REF_NOMINAL_S over the kernel's time measured alongside.
REF_NOMINAL_S = 350e-6


def reference_kernel() -> int:
    """Fixed interpreter work like the library's: parse ints, build adjacency, walk it."""
    text = " ".join(str((i * 37) % 211 - 105) for i in range(320))
    lits = [int(t) for t in text.split()]
    adj: dict[int, list[int]] = {}
    for a, b in zip(lits, lits[1:]):
        adj.setdefault(-a, []).append(b)
        adj.setdefault(-b, []).append(a)
    seen = {lits[0]}
    stack = [lits[0]]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def reference_sample() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def setup_sample() -> float:
    """Seconds from `import satminors` in a fresh interpreter until it returns."""
    code = "import time; t = time.perf_counter(); import satminors; print(time.perf_counter() - t)"
    proc = _python(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import satminors failed in a fresh process: {proc.stderr}")
    return float(proc.stdout)


def cli_startup_sample() -> float:
    """Wall ms of a subprocess that only imports satminors.cli."""
    t0 = perf_counter()
    proc = _python(["-c", "import satminors.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"import satminors.cli failed: {proc.stderr}")
    return (perf_counter() - t0) * 1e3


def run_pass(sm, oplist, tracer=None, refs=None) -> tuple[float, list[float], list[str]]:
    """Every operation once, back to back; returns wall time, latencies, failures.

    With refs, reference samples are appended there: one before the first
    operation and one after each, so refs[-n-1:] brackets the n operations.
    The wall time leaves the samples out.
    """
    latencies, failures = [], []
    if refs is not None:
        refs.append(reference_sample())
    for i, op in enumerate(oplist):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            ops.run_op(sm, op)
        except Exception as exc:  # every failure is counted, none is skipped
            failures.append(f"{op.kind} {op.case.family}: {exc!r}")
        latencies.append(perf_counter() - t0)
        if refs is not None:
            refs.append(reference_sample())
    return sum(latencies), latencies, failures


def at_reference_speed(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency scaled by the mean of the reference samples around it."""
    return [t * 2 * REF_NOMINAL_S / (before + after) for t, before, after in zip(latencies, refs, refs[1:])]


def _expected(sm, cases):
    out = []
    for cc in cases:
        try:
            out.append(ops.expected_cli(sm, cc))
        except Exception as exc:
            out.append(exc)
    return out


def run_cli(cases, expected, refs) -> tuple[list[float], list[str]]:
    """Each CLI case once as a `python -m satminors.cli` subprocess, one at a time.

    Returns the wall ms of each and the failures: a stdout or exit code
    other than the in-process result's.  A reference sample precedes each.
    """
    samples, failures = [], []
    for cc, want in zip(cases, expected):
        refs.append(reference_sample())
        t0 = perf_counter()
        proc = _python(["-m", "satminors.cli", *cc.argv], stdin=cc.case.text)
        samples.append((perf_counter() - t0) * 1e3)
        if isinstance(want, Exception):
            failures.append(f"cli {cc.argv[0]} {cc.case.family}: no expected output: {want!r}")
        elif (proc.stdout, proc.returncode) != want:
            failures.append(f"cli {cc.argv[0]} {cc.case.family}: exit {proc.returncode}, "
                            f"stdout differs: {proc.stdout != want[0]}, stderr {proc.stderr[-300:]!r}")
    return samples, failures


@dataclass
class Rounds:
    """Samples from rounds of one pass, a start-up probe and every CLI case.

    Operation latencies and pass walls are at reference speed already, each
    operation scaled by the reference samples around it.  Probes and CLI
    cases run in other processes, so they are kept raw, cli[j] as (round,
    ms), and scales[r] turns round r's raw times into reference speed by
    the median of all its reference samples.
    """

    walls: list[float]
    latencies: list[list[float]]
    cli: list[list[tuple[int, float]]]
    raw_walls: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def scaled_probes(self) -> list[float]:
        return [v * k for v, k in zip(self.probes, self.scales)]

    def cli_median(self, cases) -> float:
        """The median time at reference speed over every run of the chosen CLI cases."""
        return statistics.median(ms * self.scales[r] for j in cases for r, ms in self.cli[j])


def run_rounds(sm, oplist, cli_cases, budget: float, probe) -> Rounds:
    """Repeat rounds while the next one is expected to end within the budget.

    A warm-up pass goes first and is not kept.  A round is one pass, one
    start-up probe and every CLI case once, so every kind of sample is
    spread over the whole run.
    """
    expected = _expected(sm, cli_cases)
    out = Rounds([], [[] for _ in oplist], [[] for _ in cli_cases])
    deadline = perf_counter() + budget
    run_pass(sm, oplist)
    durations = []
    while True:
        t0 = perf_counter()
        refs: list[float] = []
        wall, latencies, failures = run_pass(sm, oplist, refs=refs)
        scaled = at_reference_speed(latencies, refs)
        out.raw_walls.append(wall)
        out.walls.append(sum(scaled))
        for samples, latency in zip(out.latencies, scaled):
            samples.append(latency)
        out.failures += failures
        out.probes.append(probe())
        refs.append(reference_sample())
        times, failures = run_cli(cli_cases, expected, refs)
        for samples, ms in zip(out.cli, times):
            samples.append((len(out.scales), ms))
        out.failures += failures
        out.attempted += len(oplist) + len(cli_cases)
        out.scales.append(REF_NOMINAL_S / statistics.median(refs))
        durations.append(perf_counter() - t0)
        if perf_counter() + statistics.median(durations) > deadline:
            return out


def trace_cli(sm, cases, tracer) -> list[str]:
    """Each CLI case in-process through satminors.cli.main, under the tracer."""
    cli = sys.modules["satminors.cli"]
    failures = []
    for i, (cc, want) in enumerate(zip(cases, _expected(sm, cases))):
        tracer.op = f"cli:{i}"
        buf = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(cc.case.text)
        try:
            with redirect_stdout(buf):
                code = cli.main(list(cc.argv))
        except Exception as exc:
            failures.append(f"cli main {cc.argv[0]} {cc.case.family}: {exc!r}")
            continue
        finally:
            sys.stdin = saved
        if isinstance(want, Exception) or (buf.getvalue(), code) != want:
            failures.append(f"cli main {cc.argv[0]} {cc.case.family}: output differs")
    return failures


def bench(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Run one workload; returns the result object plus the tracers of a traced run."""
    import satminors as sm

    oplist, cli_cases = ops.build(workload, seed, quick, sm)
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    if not trace:
        r = run_rounds(sm, oplist, cli_cases, seconds, setup_sample)
        # each operation by its median over the rounds at reference speed;
        # the percentiles run over the operations
        per_op = [statistics.median(samples) for samples in r.latencies]
        metrics = {
            "setup_s": statistics.median(r.scaled_probes()),
            "wall_s": statistics.median(r.walls),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": statistics.quantiles(per_op, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_p50_ms": r.cli_median(range(len(cli_cases))),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        raw = {"setup_s": statistics.median(r.probes), "wall_s": statistics.median(r.raw_walls)}
        tracers = []
    else:
        r = run_rounds(sm, oplist, cli_cases, seconds / 2, cli_startup_sample)
        tracer = spans.Tracer()
        refs: list[float] = []
        with tracer.installed():
            traced_wall, latencies, failures = run_pass(sm, oplist, tracer, refs)
        scale = REF_NOMINAL_S / statistics.median(refs)
        cli_tracer = spans.Tracer()
        with cli_tracer.installed():
            failures += trace_cli(sm, cli_cases, cli_tracer)
        r.failures += failures
        r.attempted += len(oplist) + len(cli_cases)
        metrics = spans.layer_metrics(tracer.spans)
        metrics["cli.self_s"] = spans.layer_metrics(cli_tracer.spans)["cli.self_s"]
        # span times at the traced pass's reference speed, like the end-to-end ones
        for name in metrics:
            if per_layer_unit(name) == "s":
                metrics[name] *= scale
            elif name == "census.sentences_per_s":
                metrics[name] /= scale
        metrics["cli.startup.ms"] = statistics.median(r.scaled_probes())
        for command in CLI_COMMANDS:
            cases = [j for j, cc in enumerate(cli_cases) if cc.argv[0] == command]
            metrics[f"cli.{command}.ms"] = r.cli_median(cases) if cases else 0.0
        untraced = statistics.median(r.walls)
        metrics["trace.overhead_share"] = sum(at_reference_speed(latencies, refs)) / untraced - 1
        units = {name: per_layer_unit(name) for name in metrics}
        raw = {"wall_s": statistics.median(r.raw_walls), "traced_wall_s": traced_wall}
        tracers = [tracer, cli_tracer]
    return {
        "result": {
            "correct": not r.failures,
            "attempted": r.attempted,
            "failed": len(r.failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
        "ops": len(oplist),
        "passes": len(r.walls),
        "raw": raw,
        "speed": statistics.median(r.scales),
        "failures": r.failures,
        "tracers": tracers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "satminors" / "__init__.py").is_file():
        print(f"perfbench: no satminors sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import satminors

    if not Path(satminors.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: satminors was imported from {satminors.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    result = out["result"]
    if out["tracers"]:
        OUT.mkdir(exist_ok=True)
        for tracer, part in zip(out["tracers"], ("ops", "cli")):
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-{part}.jsonl")
    for failure in out["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {out['ops']} operations per pass, "
          f"{out['passes']} untraced passes, failed_share "
          f"{result['failed'] / result['attempted']:.4f} share ({result['failed']}/{result['attempted']})")
    print(f"  machine speed {out['speed']:.3f} x nominal (median over rounds); raw medians: "
          + ", ".join(f"{name} {value:.6f}" for name, value in out["raw"].items()))
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
