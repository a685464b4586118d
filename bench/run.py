"""Benchmark for seriesdyn, run against the program in ``src/``.

    python3 bench/run.py --workload expand --seed 1 --seconds 25 --trace 0

``--trace 0`` times whole passes over the workload's case list and prints
the end-to-end metrics; ``--trace 1`` is the separate traced run that
prints the per-layer metrics.  Every case is checked against values the
benchmark computes itself (``oracles.py``).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Results
and spans are also written under ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
TAIL_MIN_PASSES = 40


def _load_program():
    """Import seriesdyn from this checkout's src/, never from elsewhere."""
    init = SRC / "seriesdyn" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no program to measure: {init} is missing")
    sys.path.insert(0, str(SRC))
    import seriesdyn
    if Path(seriesdyn.__file__).resolve() != init.resolve():
        sys.exit(f"bench: seriesdyn was imported from {seriesdyn.__file__}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("expand", "orbits", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import seriesdyn and build the workload's inputs "
                        "(the process whose wall time is setup_s)")
    return p.parse_args(argv)


def _workdir(workload):
    path = OUT / f"work-{workload}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def make_gauge(cold):
    from speed import cpu_gauge, process_gauge
    from workloads import spawn
    if not cold:
        return cpu_gauge()
    workdir = _workdir("gauge")
    return process_gauge(lambda argv: spawn(argv, workdir)[4])


def measure_setup(workload, seed):
    """Median time, in reference seconds, of fresh processes that import
    seriesdyn and build the workload's inputs.  One unmeasured probe first
    fills the bytecode caches, as any installed program has them."""
    from workloads import spawn
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    probe_dir = _workdir("setup-probe")
    samples = []
    gauge = None
    for _ in range(SETUP_SAMPLES + 1):
        code, _, err, _, elapsed = spawn(argv, probe_dir)
        if code != 0:
            sys.exit(f"bench: set-up probe failed: {err.decode(errors='replace')}")
        if gauge is None:
            gauge = make_gauge(cold=True)
        else:
            samples.append(gauge.scale(elapsed))
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed over whole passes."""

    def __init__(self, known_faults):
        self.known = known_faults
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, list] = {}
        self.known_seen: dict[str, list] = {}

    def add(self, judged, count=True):
        for name, problems in judged:
            if count:
                self.attempted += 1
                self.failed += bool(problems)
            if problems:
                bucket = self.known_seen if name in self.known else self.unexpected
                bucket.setdefault(name, problems)

    @property
    def correct(self):
        return not self.unexpected


def measure(cases, rec, seconds, tally, cold=False):
    """Whole passes until ``seconds`` of wall time have gone by.  Returns
    each pass's program time in reference seconds, the wall time taken and
    the reference seconds per wall second.  ``cold``: the cases run cold
    processes."""
    from workloads import check_pass, run_pass
    times = []
    gauge = make_gauge(cold)
    start = time.perf_counter()
    while True:
        elapsed, results = run_pass(cases, rec, gauge)
        times.append(elapsed)
        tally.add(check_pass(results))
        wall = time.perf_counter() - start
        if wall >= seconds:
            return times, wall, gauge.factor


def warm_up(cases, tally):
    from tracing import Recorder
    from workloads import check_pass, run_pass
    _, results = run_pass(cases, Recorder(False))
    tally.add(check_pass(results), count=False)


def timed_run(wl, seed, seconds, tally):
    from tracing import Recorder
    setup_s = measure_setup(wl.name, seed)
    cases = wl.cases(traced=False)
    warm_up(cases, tally)
    times, wall, factor = measure(cases, Recorder(False), seconds, tally,
                                  cold=wl.cold)
    rss_kib = getattr(wl, "peak_rss_kib", 0) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    notes = [f"{len(times)} passes in {wall:.3f} s wall; {sum(times):.3f} "
             f"reference s of program time at {factor:.4f} reference s per "
             f"wall s"]
    if len(times) >= TAIL_MIN_PASSES:
        ranked = sorted(times)
        tail = ranked[-11]
        pct = 100.0 * (len(times) - 10) / len(times)
        notes.append(f"job_tail_ms {tail * 1e3:.6g} ms (p{pct:.1f}: 10 of "
                     f"{len(times)} passes were slower)")
    else:
        notes.append(f"job_tail_ms not reported: {len(times)} passes, fewer "
                     f"than {TAIL_MIN_PASSES}")
    return metrics, notes, {}


def traced_run(wl, seed, seconds, tally):
    """Half the time untraced and half traced, for the overhead; the spans
    of the traced half give the per-layer metrics.  A layer this workload
    does not call is measured on one traced pass of a workload that does."""
    from tracing import OVERHEAD, PER_LAYER, Recorder, layer_metrics
    from workloads import WORKLOADS, check_pass, run_pass
    cases = wl.cases(traced=True)
    warm_up(cases, tally)
    base, _, _ = measure(cases, Recorder(False), seconds / 2, tally)
    rec = Recorder(True)
    traced, _, factor = measure(cases, rec, seconds / 2, tally)
    metrics = layer_metrics(rec.spans, len(traced), factor)
    spans = {wl.name: rec.spans}
    notes = [f"{len(base)} untraced and {len(traced)} traced passes"]
    for name, cls in WORKLOADS.items():
        missing = [m[0] for m in PER_LAYER if m[0] not in metrics]
        if name == wl.name or not missing:
            continue
        other = cls(seed, _workdir(name))
        other.prepare()
        orec = Recorder(True)
        gauge = make_gauge(cold=False)
        _, results = run_pass(other.cases(traced=True), orec, gauge)
        tally.add(check_pass(results), count=False)
        borrowed = layer_metrics(orec.spans, 1, gauge.factor)
        taken = [m for m in missing if m in borrowed]
        metrics.update({m: borrowed[m] for m in taken})
        spans[name] = orec.spans
        if taken:
            notes.append(f"from one traced {name} pass: {', '.join(taken)}")
    overhead = (1.0 - (len(traced) / sum(traced)) / (len(base) / sum(base))) * 100.0
    metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    missing = [m[0] for m in PER_LAYER if m[0] not in metrics]
    if missing:
        sys.exit(f"bench: no spans for {missing}")
    order = [m[0] for m in PER_LAYER] + [OVERHEAD[0]]
    metrics = {k: (metrics[k]["value"], metrics[k]["unit"]) for k in order}
    return metrics, notes, spans


def main(argv=None):
    args = _parse_args(argv)
    _load_program()
    from workloads import KNOWN_FAULTS, WORKLOADS
    wl = WORKLOADS[args.workload](
        args.seed, _workdir("setup-probe" if args.setup_probe else args.workload))
    if args.setup_probe:
        return 0
    wl.prepare()
    tally = Tally(KNOWN_FAULTS)
    run = traced_run if args.trace else timed_run
    metrics, notes, spans = run(wl, args.seed, args.seconds, tally)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: " + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for label, bucket in (("known fault", tally.known_seen),
                          ("UNEXPECTED", tally.unexpected)):
        for name, problems in bucket.items():
            print(f"  failed ({label}) {name}: {'; '.join(problems[:3])}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if spans:
        with open(OUT / f"trace-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
