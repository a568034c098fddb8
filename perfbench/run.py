"""Benchmark of geocycle's command line, run in-process.

    python3 perfbench/run.py --workload arrange --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: geocycle is imported from ./src and
from nowhere else. Each operation calls geocycle.cli.main(argv) with stdout
captured, and its output is checked against computations made apart from
the program (checks.py). The run repeats whole rounds of its workload's
operations until --seconds have passed.

Every timing is normalised by the reference kernel (reference.py), run
around each timed span and sampled while it runs. With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics; with --trace 1 each op runs once
untraced and once traced, and the metrics are the per-layer ones (spans.py).
Raw wall figures go to stderr for reference.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15


class SetupError(Exception):
    """The checkout holds no importable geocycle source."""


def drop_geocycle() -> None:
    """Forget an earlier import of geocycle and free what it held."""
    for name in [n for n in sys.modules if n == "geocycle" or n.startswith("geocycle.")]:
        del sys.modules[name]
    gc.collect()


def import_geocycle():
    """Import geocycle from ./src; call drop_geocycle first for a fresh one."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("geocycle.cli")
    except ImportError as e:
        raise SetupError(f"cannot import geocycle from {SRC}: {e}") from e
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"geocycle was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload, seed):
    """Import geocycle and build the workload's inputs."""
    cli = import_geocycle()
    return cli, workload.rounds(seed)


def call(cli, argv, clock_ns=time.perf_counter_ns) -> tuple[int | None, str, float]:
    """(exit code or None if it raised, captured stdout, seconds on clock_ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock_ns()
        try:
            code = cli.main(list(argv))
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            print(f"op {argv[0]} raised {type(e).__name__}: {e}", file=sys.__stderr__)
            code = None
        wall = (clock_ns() - start) / 1e9
    return code, out.getvalue(), wall


class Runner:
    """Times ops, checks their outputs and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.norm = reference.Normaliser()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.verified: dict[tuple, list[str]] = {}  # argvs -> outputs already checked

    def run(self, op) -> tuple[float, float, float, list[str] | None]:
        """(normalised s, raw wall s, normalisation factor, outputs or None
        if the op failed)."""
        self.attempted += 1
        outputs, wall, ok = [], 0.0, True
        gc.collect()  # each op starts from a collected heap, as a fresh process would
        with self.norm.sampling():
            for argv in op.argvs:
                code, text, seconds = call(self.cli, argv, self.norm.clock_ns)
                wall += seconds
                outputs.append(text)
                ok = ok and code == 0
        factor = self.norm.factor()
        if not ok:
            self.failed += 1
            return wall * factor, wall, factor, None
        if self.verified.get(op.argvs) != outputs:
            try:
                op.check(outputs)
            except (checks.CheckFailed, LookupError, TypeError, ValueError, ArithmeticError) as e:
                print(f"check failed on {op.label}: {type(e).__name__}: {e}", file=sys.stderr)
                self.failed += 1
                self.wrong += 1
                return wall * factor, wall, factor, None
            self.verified[op.argvs] = outputs
        return wall * factor, wall, factor, outputs


def measure_setup(workload, seed):
    """Set up SETUP_REPEATS times; returns the last set-up and the
    normalised and raw seconds of each."""
    norm = reference.Normaliser()
    normalised, raw = [], []
    for _ in range(SETUP_REPEATS):
        drop_geocycle()
        with norm.sampling():
            start = norm.clock_ns()
            state = set_up(workload, seed)
            wall = (norm.clock_ns() - start) / 1e9
        normalised.append(wall * norm.factor())
        raw.append(wall)
    return state, normalised, raw


def rounds_until(deadline, round_ops):
    """The ops of each round until the deadline has passed; always at least
    one round."""
    r = 0
    while True:
        yield round_ops(r)
        r += 1
        if time.perf_counter() >= deadline:
            return


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_plain(workload, seed, seconds):
    (cli, round_ops), setup_norm, setup_raw = measure_setup(workload, seed)
    runner = Runner(cli)
    normalised, raw = [], []
    deadline = time.perf_counter() + seconds
    for ops in rounds_until(deadline, round_ops):
        for op in ops:
            n, w, _, _ = runner.run(op)
            normalised.append(n)
            raw.append(w)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ops={len(raw)} raw op_ms median={statistics.median(raw) * 1e3:.3f} "
          f"spread={spread(raw):.4f}; normalised spread={spread(normalised):.4f}; "
          f"raw setup_s median={statistics.median(setup_raw):.5f}; "
          f"reference_ms median={statistics.median(runner.norm.reference_s) * 1e3:.3f}",
          file=sys.stderr)
    metrics = {
        "op_ms": {"value": statistics.median(normalised) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
        "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
    }
    return runner, metrics


def run_traced(workload, seed, seconds):
    import spans

    (cli, round_ops), _, _ = measure_setup(workload, seed)
    runner = Runner(cli)
    tracer = spans.Tracer(runner.norm.clock_ns)
    per_op, plain_s, traced_s, labels = [], [], [], {}
    deadline = time.perf_counter() + seconds
    for ops in rounds_until(deadline, round_ops):
        for op in ops:
            n_plain, _, _, plain_out = runner.run(op)
            tracer.op = len(labels)
            labels[tracer.op] = op.label
            tracer.install()
            try:
                n_traced, _, factor, traced_out = runner.run(op)
            finally:
                tracer.uninstall()
            if plain_out is None or traced_out is None:
                continue
            if [workload.stable_stdout(t) for t in plain_out] != [workload.stable_stdout(t) for t in traced_out]:
                print(f"tracing changed the stdout of {op.label}", file=sys.stderr)
                runner.failed += 1
                runner.wrong += 1
                continue
            plain_s.append(n_plain)
            traced_s.append(n_traced)
            per_op.append((tracer.op, factor))
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl", labels)
    by_op = tracer.ops()
    table = [tracer.op_metrics(op, by_op.get(op, []), factor) for op, factor in per_op]
    metrics = {}
    for metric, unit, (kind, _) in spans.METRICS:
        if kind == "overhead":
            value = (sum(traced_s) / sum(plain_s) - 1) * 100 if plain_s else 0.0
        elif kind == "max_bits":
            value = max((row[metric] for row in table), default=0)
        else:
            value = statistics.fmean(row[metric] for row in table) if table else 0.0
        metrics[metric] = {"value": value, "unit": unit}
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    run = run_traced if args.trace else run_plain
    try:
        runner, metrics = run(workload, args.seed, args.seconds)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
