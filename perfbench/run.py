"""Run one classgraph benchmark workload and print its metrics.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 30 --trace 0

Workloads: ``realize``, ``perm_route``, ``detector`` (see README.md), or
``all``, which runs each in a fresh process in turn.  A run measures set-up
time in fresh interpreters, warms up, then times whole rounds of the
workload's items until another round would overrun ``--seconds``.  After
the timed rounds it checks every answer apart from classgraph.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Timings are scaled
to the nominal speed of ``clock.reference_loop``; the lines before the JSON
give the raw figures beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import program
from clock import NOMINAL_REF_S, ScaledClock

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15


@dataclass(frozen=True)
class Failure:
    """An item that raised instead of answering."""

    error: str


def attempt(fn, *args):
    # Every item passes this boundary: one that raises is counted as failed
    # and the run goes on.
    try:
        return fn(*args)
    except Exception:
        return Failure(traceback.format_exc(limit=4))


class Tally:
    """Attempted and failed item runs, wrong answers and errors.

    The first round's answers are pickled to an unnamed file in this
    directory as they come, and checked after the timed work; later
    answers must pickle to the same bytes.  Only digests stay in memory,
    so the process's memory is the program's own and does not grow with
    the number of rounds a faster program fits in.
    """

    def __init__(self, workload, items) -> None:
        self.workload = workload
        self.items = items
        self.spool = tempfile.TemporaryFile(dir=HERE)
        self.digests: list[bytes] = []
        self.runs = 0
        self.differed: Counter[int] = Counter()
        self.raised: Counter[int] = Counter()
        self.replays_failed = 0
        self.replays = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    def add(self, i: int, out) -> None:
        """Record the answer of item i in the current round."""
        self.runs += 1
        data = pickle.dumps(out)
        if len(self.digests) < len(self.items):
            self.spool.write(data)
            self.digests.append(hashlib.blake2b(data).digest())
        elif isinstance(out, Failure):
            self.raised[i] += 1
            self.errors.append(f"{self.items[i]!r}: {out.error}")
        elif hashlib.blake2b(data).digest() != self.digests[i]:
            self.differed[i] += 1
            self.problems.append(f"{self.items[i]!r}: answer differs from the first round")

    def add_replays(self, agreed: list) -> None:
        for item, out in zip(self.items, agreed):
            self.replays += 1
            if isinstance(out, Failure):
                self.errors.append(f"{item!r}: {out.error}")
            elif not out:
                self.problems.append(f"{item!r}: traced replay disagrees with the report")
            else:
                continue
            self.replays_failed += 1

    def rounds(self) -> int:
        return self.runs // len(self.items)

    def finish(self) -> dict:
        """Check the first round; the result fields of the run's JSON line."""
        failed = self.replays_failed
        self.spool.seek(0)
        for i, item in enumerate(self.items):
            out = pickle.load(self.spool)
            if isinstance(out, Failure):
                self.errors.append(f"{item!r}: {out.error}")
                wrong = True
            else:
                found = self.workload.check(item, out)
                self.problems += [f"{item!r}: {p}" for p in found]
                wrong = bool(found)
            # A wrong first answer fails every round; a right one fails only
            # where a later round raised or answered differently.
            failed += self.rounds() if wrong else self.differed[i] + self.raised[i]
        self.spool.close()
        for line in self.problems[:20] + self.errors[:5]:
            print(line, file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.runs + self.replays,
            "failed": failed,
        }


def measure_setup(name: str) -> tuple[float, float, float]:
    """Median set-up cost of a fresh interpreter: interpreter start, import
    and one warm-up item.

    Returns (scaled CPU, raw CPU, raw wall) seconds.  The probe reads its
    own CPU time and the reference loop in its own process: CPU time leaves
    out the waits for a core that make wall time jump on a shared host,
    and a reference read in the parent may run on the other core.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), name]
    scaled, cpu, wall = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        wall.append(time.perf_counter() - t0)
        probe = json.loads(proc.stdout)
        cpu.append(probe["cpu_s"])
        scaled.append(probe["cpu_s"] * NOMINAL_REF_S / probe["ref_s"])
    return statistics.median(scaled), statistics.median(cpu), statistics.median(wall)


def run_rounds(seconds: float, one_round) -> None:
    """Call one_round for whole rounds until another would overrun `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            return


def timed_round(workload, items, tally: Tally, keep: bool = False):
    """One round of timed items; answers go to the tally outside the timing.

    Returns the clock, and the round's answers when `keep` is set.
    """
    clock = ScaledClock()
    kept = []
    for i, item in enumerate(items):
        out = clock.call(attempt, workload.run, item)
        tally.add(i, out)
        if keep:
            kept.append(out)
    clock.stop()
    return clock, kept


def item_figures(rounds: list[list[float]]) -> tuple[float, float, float]:
    """Items per second over all rounds, and the median and 90th percentile
    of the items' own medians over the rounds, in seconds.

    Every round runs the same items in the same order; an item's median
    over rounds damps the host's jumps within single calls.
    """
    total = sum(sum(times) for times in rounds)
    per_item = [statistics.median(times) for times in zip(*rounds)]
    return (
        sum(map(len, rounds)) / total,
        statistics.median(per_item),
        statistics.quantiles(per_item, n=10)[8],
    )


def end_to_end(name: str, workload, items, seconds: float) -> tuple[dict, dict]:
    setup_scaled, setup_cpu, setup_wall = measure_setup(name)
    workload.run(workload.warmup_item())
    tally = Tally(workload, items)
    scaled: list[list[float]] = []
    raw: list[list[float]] = []
    refs: list[float] = []
    peak_rss_mb: list[float] = []

    def one_round() -> None:
        clock, _ = timed_round(workload, items, tally)
        scaled.append(clock.scaled())
        raw.append(clock.raw)
        refs.append(clock.mean_reference())
        if not peak_rss_mb:
            # Read after the first round: later rounds repeat the same work,
            # and how many fit in depends on the program's speed.
            peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    run_rounds(seconds, one_round)
    result = tally.finish()
    rate, p50, p90 = item_figures(scaled)
    raw_rate, raw_p50, raw_p90 = item_figures(raw)
    print(
        f"{name}: {len(scaled)} round(s) of {len(items)} items; "
        f"setup_s is the median of {SETUP_REPEATS} starts; reference loop "
        f"{statistics.fmean(refs) * 1000:.4f} ms (nominal {NOMINAL_REF_S * 1000:.4f} ms)"
    )
    print(
        f"raw: items_per_s {raw_rate:.4f} 1/s, item_p50_ms {raw_p50 * 1000:.4f} ms, "
        f"item_p90_ms {raw_p90 * 1000:.4f} ms, "
        f"setup_s {setup_cpu:.4f} s CPU, {setup_wall:.4f} s wall"
    )
    metrics = {
        "items_per_s": (rate, "1/s"),
        "item_p50_ms": (p50 * 1000, "ms"),
        "item_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb[0], "MB"),
        "setup_s": (setup_scaled, "s"),
    }
    return result, metrics


def per_layer(name: str, workload, items, seconds: float) -> tuple[dict, dict]:
    """Pairs of one untraced and one traced round; per-round layer figures."""
    # Imported once program.load has put classgraph on the path.
    from layers import BUSY, COUNTS, OVERHEAD, Trace

    workload.run(workload.warmup_item())
    tally = Tally(workload, items)
    busy: defaultdict[str, float] = defaultdict(float)
    counts: Counter[str] = Counter()
    totals = {"untraced": 0.0, "traced": 0.0}

    def one_pair() -> None:
        clock, outputs = timed_round(workload, items, tally, keep=True)
        totals["untraced"] += sum(clock.scaled())
        trace = Trace()
        tclock = ScaledClock()
        agreed = [
            tclock.call(attempt, workload.traced, item, trace, out)
            for item, out in zip(items, outputs)
        ]
        tclock.stop()
        totals["traced"] += sum(tclock.scaled())
        tally.add_replays(agreed)
        factor = NOMINAL_REF_S / tclock.mean_reference()
        for layer, seconds_busy in trace.busy.items():
            busy[layer] += seconds_busy * factor
        counts.update(trace.counts)

    run_rounds(seconds, one_pair)
    result = tally.finish()
    rounds = tally.rounds()
    print(f"{name}: {rounds} pair(s) of untraced and traced rounds of {len(items)} items")
    metrics = {f"{layer}.busy_ms": (busy[layer] * 1000 / rounds, "ms") for layer in BUSY}
    metrics |= {c: (counts[c] / rounds, "count") for c in COUNTS}
    overhead = (totals["traced"] / totals["untraced"] - 1) * 100
    metrics[OVERHEAD] = (overhead, "%")
    return result, metrics


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    status = 0
    for name in program.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print(f"{name} {lines[-1] if lines else ''}")
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=program.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = program.load(args.workload)
    items = workload.items(random.Random(args.seed))
    measure = per_layer if args.trace else end_to_end
    result, metrics = measure(args.workload, workload, items, args.seconds)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    result["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
