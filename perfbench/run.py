"""Benchmark of the orbimorse command line on three workloads.

    python3 perfbench/run.py --workload gq-sphere --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One operation is one in-process ``orbimorse.cli.main([...])``
call on an instance file written during set-up, with stdout captured and
checked against the answer the instance's construction implies.  A closed
loop in one thread runs whole rounds over the workload's instances, smallest
first, for about --seconds seconds; in each timed round the smallest
instance runs once more after every instance, timed apart, to sample its
latency all through the run.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's
layers (see tracer.py), reports per-layer metrics instead and writes the
spans to .perfbench/.  The last line of stdout is one JSON object with
correct, attempted, failed and metrics.  An operation fails when it raises
or when its output disagrees with its oracle; a wrong output also makes
correct false.  The exit code is 0 only when no operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import pathlib
import shutil
import statistics
import sys
import traceback
import tracemalloc
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "orbimorse" / "corpus"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import instances  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402

#: Failure messages printed per run before the rest are only counted.
SHOW_FAILURES = 5

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "largest_s": "s",
                    "smallest_ms": "ms", "peak_heap_mb": "MB"}


def _program_modules():
    return [n for n in sys.modules
            if n == "orbimorse" or n.startswith("orbimorse.")]


def _import_cli():
    """A fresh import of orbimorse.cli from the checkout's sources."""
    for name in _program_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("orbimorse.cli")


def set_up(workload, seed, workdir):
    """Import the program, build the cases and write their instance files."""
    cli = _import_cli()
    cases = instances.build(workload, seed, CORPUS)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for i, case in enumerate(cases):
        case.path = str(workdir / ("%02d_%s.json" % (i, case.name)))
        with open(case.path, "w", encoding="utf-8") as fh:
            json.dump(case.doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return cli, cases


def time_set_up(workload, seed, workdir):
    """Seconds one more set-up takes; what it made is then dropped.

    The program's modules from before are put back, so every operation of a
    run goes through one import of the program (a module imported inside a
    function is looked up in sys.modules at call time).
    """
    kept = {name: sys.modules[name] for name in _program_modules()}
    start = perf_counter()
    try:
        set_up(workload, seed, workdir)
        return perf_counter() - start
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        shutil.rmtree(workdir, ignore_errors=True)


class Runner:
    """Runs operations, checks each, and counts what was attempted.

    failed counts operations that raised or gave a wrong output; wrong
    counts the latter alone.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def _note(self, msg):
        if len(self.messages) < SHOW_FAILURES:
            self.messages.append(msg)

    def round(self, cases, probe=False):
        """One pass over cases: (summed seconds, per-case seconds, probes).

        With probe, the first case runs once more after every case, timed
        apart from the pass: its latency is then sampled all through the
        round, not at one moment of it.  probes lists those seconds.
        """
        plan = [c for case in cases
                for c in ((case, cases[0]) if probe else (case,))]
        outputs, times = [], []
        for case in plan:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(case.argv())
                except SystemExit as e:
                    code = e.code
                except Exception:
                    code = traceback.format_exc()
            times.append(perf_counter() - t0)
            outputs.append((code, out.getvalue()))
        for case, (code, text) in zip(plan, outputs):
            self.attempted += 1
            if isinstance(code, str):
                self.failed += 1
                self._note("%s raised:\n%s" % (case.name, code))
                continue
            fails = oracles.check(case, code, text)
            if fails:
                self.failed += 1
                self.wrong += 1
                self._note("%s: %s" % (case.name, "; ".join(fails)))
        if probe:
            return sum(times[::2]), times[::2], times[1::2]
        return sum(times), times, []

    def timed_rounds(self, cases, seconds, between):
        """Whole rounds until the next would end after `seconds`.

        between() runs before each round, outside its timing.
        """
        rounds = []
        start = perf_counter()
        while True:
            between()
            gc.collect()
            rounds.append(self.round(cases, probe=True))
            elapsed = perf_counter() - start
            typical = statistics.median(wall for wall, _, _ in rounds)
            if elapsed + typical > seconds:
                return rounds


def end_to_end(runner, cases, seconds, setup_times, time_setup):
    """Timed rounds, with one more set-up timed before each of them.

    Set-ups spread over the run meet the same host phases as the rounds, so
    host drift moves their median as it moves pass_s.
    """
    runner.round(cases[:1])     # the first call in a process pays one-off costs
    rounds = runner.timed_rounds(
        cases, seconds, lambda: setup_times.append(time_setup()))
    gc.collect()
    tracemalloc.start()
    try:
        runner.round(cases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(wall for wall, _, _ in rounds),
        "largest_s": statistics.median(t[-1] for _, t, _ in rounds),
        "smallest_ms": 1000 * statistics.median(
            [t[0] for _, t, _ in rounds] + [x for _, _, ps in rounds for x in ps]),
        "peak_heap_mb": peak / 1e6,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return metrics, {"rounds": len(rounds), "setups": len(setup_times),
                     "smallest_samples": sum(1 + len(ps) for _, _, ps in rounds)}


def per_layer(runner, cases, seconds, workload, seed):
    runner.round(cases[:1])
    tr = tracing.Tracer()
    tr.install()
    windows = []
    try:
        start = perf_counter()
        while True:
            gc.collect()
            tr.reset()
            tr.recording = not windows
            wall, _, _ = runner.round(cases)
            windows.append({"wall_s": wall, "self_s": dict(tr.self_s),
                            "counts": dict(tr.counts), "spans": tr.spans})
            elapsed = perf_counter() - start
            if elapsed + statistics.median(w["wall_s"] for w in windows) > seconds:
                break
    finally:
        tr.uninstall()

    metrics, steady_counts = {}, True
    for name in tracing.metric_names():
        if tracing.is_count(name):
            vals = [w["counts"].get(name, 0) for w in windows]
            steady_counts &= len(set(vals)) == 1
            metrics[name] = {"value": vals[0], "unit": "count"}
        else:
            vals = [w["self_s"].get(name[:-2], 0.0) for w in windows]
            metrics[name] = {"value": statistics.median(vals), "unit": "s"}
    layer_s = [sum(w["self_s"].values()) for w in windows]
    summary = {
        "rounds": len(windows),
        "traced_pass_s": statistics.median(w["wall_s"] for w in windows),
        "layer_coverage": statistics.median(
            s / w["wall_s"] for s, w in zip(layer_s, windows)),
        "counts_repeat_across_rounds": steady_counts,
    }
    spans = windows[0]["spans"]
    t0 = min((s[3] for s in spans), default=0.0)
    trace = dict(summary, workload=workload, seed=seed,
                 ops=[c.name for c in cases],
                 windows=[{k: w[k] for k in ("wall_s", "self_s", "counts")}
                          for w in windows],
                 first_round_spans=[
                     {"id": i, "parent": p, "name": n,
                      "start_s": s - t0, "duration_s": e - s}
                     for i, p, n, s, e in spans])
    path = OUT / ("trace-%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
    return metrics, dict(summary, trace_file=str(path.relative_to(ROOT)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "orbimorse" / "cli.py").is_file():
        print("error: no orbimorse sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%d" % os.getpid())
    spare = OUT / ("work-%d-setup" % os.getpid())
    try:
        t0 = perf_counter()
        cli, cases = set_up(args.workload, args.seed, workdir)
        setup_times = [perf_counter() - t0]
        runner = Runner(cli)
        if args.trace:
            metrics, info = per_layer(runner, cases, args.seconds,
                                      args.workload, args.seed)
        else:
            metrics, info = end_to_end(
                runner, cases, args.seconds, setup_times,
                lambda: time_set_up(args.workload, args.seed, spare))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    for msg in runner.messages:
        print("FAIL " + msg, file=sys.stderr)
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(dict(result, **info), indent=1) + "\n",
                  encoding="utf-8")
    print("workload %s  seed %d  operations %d per round  %s"
          % (args.workload, args.seed, len(cases),
             "  ".join("%s %s" % kv for kv in info.items())))
    print("attempted %d  failed %d  of which wrong output %d"
          % (runner.attempted, runner.failed, runner.wrong))
    for name, m in metrics.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
