"""Benchmark of the serrinlab command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is one CLI invocation with fixed inputs, run in a fresh
interpreter as a closed loop with one client: the next invocation starts
only after the previous one has exited, so no cache survives between them.
BLAS and OpenMP pools are pinned to one thread in the child's environment.

--trace 0 reports the end-to-end metrics: CPU time of the subcommand call,
CPU time of set-up (import of serrinlab.cli plus its parser, median of
several fresh interpreters) and peak RSS of the child.  CPU time, not wall
time: on a virtual machine of a shared host, wall time also counts the time
the host runs other guests instead (steal), which is not the program's.  The
median wall time of the call is printed as well, but not in the result.

--trace 1 runs the invocation once untraced and once with the layers
wrapped (tracer.py), and reports self time and counts per layer, the
tracing overhead and the time no span covers, all in wall time.

Every invocation's reports are checked (checks.py).  The last line of
stdout is the result as one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

sys.dont_write_bytecode = True   # keep the benchmark's directory free of caches
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402

# Set-up-only interpreters per run, besides the one of each invocation.
SETUP_SAMPLES = 3
# A run must end within 180 s; children are killed past this point.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass
class Workload:
    args: object                 # seed -> CLI arguments after --out
    check: object                # (out dir, seed) -> list of problems
    inputs: dict = field(default_factory=dict)   # file name -> JSON spec
    extra_ops: tuple = ()        # report properties counted as operations


def _csv(values):
    return ",".join(str(v) for v in values)


WORKLOADS = {
    "identity-pdisk": Workload(
        args=lambda seed: [
            "convergence", "--identity", "general_1_9", "--domain", "domain.json",
            "--h-list", _csv(checks.CONVERGENCE_H),
        ],
        check=lambda out, seed: checks.check_identity_pdisk(out),
        inputs={"domain.json": {"rho0": 1.0, "modes": [[2, 0.05, 0.0]]}},
    ),
    "bounds-ellipse": Workload(
        args=lambda seed: [
            "check-bounds", "--domain", "domain.json", "--h-target", "0.05",
        ],
        check=lambda out, seed: checks.check_bounds_ellipse(out),
        inputs={"domain.json": {"ellipse": list(checks.ELLIPSE)}},
    ),
    "sweep-mode2": Workload(
        args=lambda seed: [
            "sweep", "--mode", "2", "--amplitudes", _csv(checks.SWEEP_AMPLITUDES),
            "--h-target", "0.1",
        ],
        check=lambda out, seed: checks.check_sweep_mode2(out),
        extra_ops=(checks.sweep_cells_numeric,),
    ),
    "pointwise-poly": Workload(
        args=lambda seed: [
            "--seed", str(seed), "pointwise-identity",
            "--N", _csv(checks.POINTWISE_DIMS),
            "--degree", str(checks.POINTWISE_DEGREE),
            "--cases", str(checks.POINTWISE_CASES),
        ],
        check=checks.check_pointwise_poly,
    ),
}


class BenchError(Exception):
    pass


class Runner:
    """Runs one workload's invocations and tallies operations."""

    def __init__(self, name, seed, deadline):
        self.name, self.seed, self.deadline = name, seed, deadline
        self.workload = WORKLOADS[name]
        self.work = OUT / name
        self.attempted = self.failed = 0
        self.correct = True
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env.pop("SERRINLAB_DOF_CAP", None)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for fname, spec in self.workload.inputs.items():
            (self.work / fname).write_text(json.dumps(spec))

    def child(self, mode, cli_args=()):
        """Run child.py to completion; its result dict, or None if it failed."""
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result), mode,
               *cli_args]
        with open(self.work / "child.log", "ab") as log:
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=log, stderr=log)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{self.name}: child passed the {DEADLINE_S} s deadline")
        if code != 0 or not result.exists():
            return None
        return json.loads(result.read_text())

    def setup_sample(self):
        res = self.child("setup")
        if res is None:
            raise BenchError(f"set-up failed; see {self.work / 'child.log'}")
        return res["setup_s"]

    def invoke(self, mode):
        """One CLI invocation plus its checks; the child's result or None."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        res = self.child(mode, ["--out", str(out), *self.workload.args(self.seed)])
        ops = 1 + len(self.workload.extra_ops)
        self.attempted += ops
        if res is None or res["status"] == 1:
            self.failed += ops
            print(f"{self.name}: invocation failed; see {self.work / 'child.log'}",
                  file=sys.stderr)
            return None
        problems = self.workload.check(out, self.seed)
        if res["status"] != 0:
            problems.append(f"exit status {res['status']} (contract violation)")
        if problems:
            self.correct = False
            for p in problems:
                print(f"{self.name}: check failed: {p}", file=sys.stderr)
        for op in self.workload.extra_ops:
            op_problems = op(out)
            if op_problems:
                self.failed += 1
                print(f"{self.name}: {op.__name__} failed: {op_problems[0]}"
                      f" ({len(op_problems)} problems)", file=sys.stderr)
        return res


def rounds(seconds, body):
    """Call body() at least once, and again while the last call's duration
    still fits in the remaining seconds."""
    results = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        results.append(body())
        now = time.monotonic()
        if now - start + (now - t) > seconds:
            return results


def untraced(runner, seconds):
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    res = [r for r in rounds(seconds, lambda: runner.invoke("run")) if r]
    if not res:
        raise BenchError(f"{runner.name}: every invocation failed")
    setup += [r["setup_s"] for r in res]
    wall = statistics.median(r["wall_s"] for r in res)
    print(f"{runner.name} wall time = {wall:.6g} s (not a metric: it includes steal)")
    return {
        "cpu_s": (statistics.median(r["cpu_s"] for r in res), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in res), "MB"),
    }


def traced(runner, seconds):
    def pair():
        plain, spans = runner.invoke("run"), runner.invoke("trace")
        if plain is None or spans is None:
            return None
        layers = tracer.layer_metrics(spans["spans"], spans["counts"], spans["wall_s"])
        layers[tracer.OVERHEAD] = spans["wall_s"] - plain["wall_s"]
        return layers

    res = [r for r in rounds(seconds, pair) if r]
    if not res:
        raise BenchError(f"{runner.name}: every traced invocation failed")
    metrics = {}
    for name in tracer.TIME_METRICS:
        metrics[name] = (statistics.median(r[name] for r in res), "s")
    for name in tracer.COUNT_METRICS:
        metrics[name] = (statistics.median(r[name] for r in res), "count")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the polynomial checker (pointwise-poly)")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "serrinlab" / "cli.py").is_file():
        print(f"error: no serrinlab source under {SRC}", file=sys.stderr)
        return 2
    try:
        runner = Runner(args.workload, args.seed, deadline)
        measure = traced if args.trace else untraced
        metrics = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {runner.attempted} failed = {runner.failed}"
          f" correct = {runner.correct}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
