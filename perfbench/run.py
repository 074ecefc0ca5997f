"""tempo-ncg benchmark: seeded solver workloads, answer checks, metrics.

One run::

    python3 perfbench/run.py --workload nash-verify --seed 1 --seconds 30 --trace 0

builds the workload's job list from the seed (the set-up), then runs passes
over the whole list in one closed loop, one job after the other in this
process, until ``--seconds`` is used up (at least ``MIN_PASSES`` passes).
Every answer is checked after each pass, outside the timed region. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (which alternates untraced and traced
passes, so it can report the tracing overhead). Reported times are scaled to
a nominal host speed measured by ``reference_work``; see README.md.

Parent modes run one child process per run and summarise them::

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload optimum-poa --seed 1 --repeat 5
    python3 perfbench/run.py --workload all --seeds 1-10 --json-out out.json

``--workload all`` prints every metric of every workload by name and unit.
``--repeat N`` (steadiness mode) runs N times with one seed, ``--seeds`` once
per seed. Either reports the median and quartiles of each metric, marks a
spread above the bound in ``BENCHMARK.json``, and checks that
``states_examined`` and the output digest repeat exactly between runs of one
seed.
Run it from the root of a source checkout; it imports ``src/tempo_ncg``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("nash-verify", "optimum-poa", "sweep-dynamics")
SETUP_REPEATS = 5
SETUP_REFERENCES = 20
# Reference times on each side of a job that set its host speed.
SPEED_WINDOW = 4
# While a job or a set-up build runs, the reference is also timed this often.
SAMPLE_INTERVAL_S = 0.1
# Median time of ``reference_work`` on the 2-core 2.0 GHz Xeon host the
# baseline was measured on. Reported times are scaled to this host speed.
REFERENCE_NOMINAL_S = 0.00125
MIN_PASSES = 3
OUT_DIR = ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "states_examined": "count",
    "peak_rss_mb": "MB",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_per_state")):
        return "ratio"
    return "count"


def _import_package():
    src = ROOT / "src"
    if not (src / "tempo_ncg" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no tempo_ncg package under {src}; "
                         "run from the root of a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import answers
    import jobs
    import tracing

    return answers, jobs, tracing


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass(frozen=True, order=True)
class _Edge:
    u: str
    v: str
    label: int


_NAMES = tuple(f"n{i:02d}" for i in range(24))


def reference_work() -> int:
    """Fixed pure-Python work shaped like the solvers' inner loops: small
    frozen dataclasses, grouping by label, sorting, a frozenset. It does not
    use ``tempo_ncg``. It is timed before every job to gauge how fast the
    shared host runs at that moment."""
    x = 12345
    groups: dict[int, list[_Edge]] = {}
    edges = []
    for _ in range(300):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        edge = _Edge(_NAMES[x % 24], _NAMES[(x >> 5) % 24], 1 + (x >> 10) % 5)
        edges.append(edge)
        groups.setdefault(edge.label, []).append(edge)
    grouped = tuple((label, tuple(sorted(g))) for label, g in sorted(groups.items()))
    return len(grouped) + len(frozenset(edges))


def timed_reference() -> float:
    """Time of one ``reference_work`` run, kept out of reach of the state the
    code under test leaves behind. The garbage collector is off, so no
    collection of the jobs' objects lands in the timed run; and an untimed
    run first brings the work back into the caches that a job filled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        t = time.perf_counter()
        reference_work()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def _speed(references: list[float]) -> float:
    """How much slower than nominal the host ran while these were taken."""
    return median(references) / REFERENCE_NOMINAL_S


class Sampler:
    """Times the reference every ``SAMPLE_INTERVAL_S`` while it is started,
    from a ``SIGALRM`` handler in this thread. The host's speed can change by
    a factor of two within a second, so a long job needs samples of its own,
    not only those taken between jobs. ``stop`` takes the handler's own
    time off the time it returns."""

    def __init__(self) -> None:
        self._ticks: list[tuple[float, float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        reference = timed_reference()
        self._ticks.append((t, time.perf_counter() - t, reference))

    def start(self) -> float:
        """Start sampling; returns the start time."""
        self._ticks = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return time.perf_counter()

    def stop(self, start: float) -> tuple[float, list[float]]:
        """Stop sampling. Returns the time since ``start`` less the handler's
        time, and the reference times sampled before the stop."""
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        ticks = [tick for tick in self._ticks if tick[0] < end]
        return end - start - sum(d for _, d, _ in ticks), [r for _, _, r in ticks]


def _scale(duration: float, before: float, inside: list[float]) -> float:
    """``duration`` at nominal host speed, from the reference time taken
    ``before`` it and those sampled ``inside`` it (equally spaced, so the
    mean of their speeds weighs each stretch of the duration alike)."""
    times = [before, *inside]
    return duration * sum(REFERENCE_NOMINAL_S / r for r in times) / len(times)


class Pass:
    """Timings, records and problems of one pass over the job list.

    ``scaled`` holds each job's time at nominal host speed. A job that ran
    long enough to be sampled is scaled by its own samples (see ``_scale``).
    A shorter one is divided by the host speed measured around it: the
    median of the nine reference times taken before the four jobs ahead of
    it, itself and the four after it.
    """

    def __init__(self, latencies, references, inside, records, states, problems):
        self.latencies = latencies
        self.references = references
        self.scaled = [
            _scale(t, references[i], inside[i]) if inside[i] else
            t / _speed(references[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
            for i, t in enumerate(latencies)]
        self.wall = sum(latencies)
        self.scaled_wall = sum(self.scaled)
        self.records = records
        self.states = states
        self.problems = problems


def run_pass(job_list, jobs, answers, sampler: Sampler, first: Pass | None,
             tracer=None) -> Pass:
    """Run every job once, each after a timed reference run and sampled while
    it runs, then check the answers. Later passes compare their records with
    the ``first`` pass's and keep none of their own."""
    # The library leaves cyclic garbage. Collect it before the pass, untimed,
    # so that it does not pile up over passes until the collector's oldest
    # generation happens to run: peak RSS is then one pass's memory.
    gc.collect()
    results = []
    latencies = []
    references = []
    inside = []
    for job in job_list:
        references.append(timed_reference())
        if tracer is not None:
            tracer.job = job.name
            tracer.active = True
        t = sampler.start()
        try:
            results.append(jobs.call(job))
        except Exception:  # a failed job is counted, and the pass goes on
            results.append(traceback.format_exc(limit=3))
        latency, samples = sampler.stop(t)
        latencies.append(latency)
        inside.append(samples)
        if tracer is not None:
            tracer.active = False
    records, problems, states = [], {}, 0
    for job, outcome in zip(job_list, results):
        if isinstance(outcome, str):
            records.append([job.name, {"error": True}])
            problems[job.name] = outcome.strip().splitlines()[-1]
            continue
        try:
            record, job_states, problem = answers.check(job, *outcome)
        except Exception:  # an answer the checks cannot read is a failed job
            record, job_states = {"unreadable": True}, 0
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        records.append([job.name, record])
        states += job_states
        if problem is not None:
            problems[job.name] = problem
    if first is not None:
        for (name, a), (_, b) in zip(first.records, records):
            if a != b:
                problems.setdefault(name, "answer differs between passes")
        records = None
    return Pass(latencies, references, inside, records, states, problems)


def single_run(args) -> int:
    answers, jobs, tracing = _import_package()
    import_s = time.perf_counter() - PROCESS_START
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    sampler = Sampler()
    setup_times, scaled_setup_times, construction_times = [], [], []
    for i in range(SETUP_REPEATS):
        before = median(timed_reference() for _ in range(SETUP_REFERENCES))
        if i == 0:
            scaled_import_s = import_s * REFERENCE_NOMINAL_S / before
        if tracer is not None:
            tracer.job, tracer.active = "setup", True
        t = sampler.start()
        job_list, refusals = jobs.build(args.workload, args.seed)
        build_s, samples = sampler.stop(t)
        setup_times.append(build_s)
        scaled_setup_times.append(_scale(build_s, before, samples))
        if tracer is not None:
            tracer.active = False
            construction_times.append(tracing.constructions_time(tracer.take())
                                      * scaled_setup_times[-1] / build_s)
    raw_setup_s = import_s + median(setup_times)

    deadline = time.perf_counter() + args.seconds
    untraced: list[Pass] = []
    traced: list[Pass] = []
    layer_passes: list[dict] = []
    last_spans: list[tuple] = []
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        p = run_pass(job_list, jobs, answers, sampler, untraced[0] if untraced else None,
                     tracer if use_tracer else None)
        if use_tracer:
            last_spans = tracer.take()
            pass_scale = p.scaled_wall / p.wall
            layer_passes.append({
                name: value * pass_scale if _per_layer_unit(name) == "s" else value
                for name, value in tracing.layer_metrics(last_spans).items()})
            traced.append(p)
        else:
            untraced.append(p)
        done = len(untraced) + len(traced)
        needed = MIN_PASSES if tracer is None else 2 * (MIN_PASSES - 1)
        typical = median(q.wall for q in untraced + traced)
        if done >= needed and (tracer is None or len(traced) == len(untraced)) \
                and time.perf_counter() + typical > deadline:
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = untraced + traced
    first = passes[0]
    failed = sum(len(p.problems) for p in passes)
    problems = {name: why for p in passes for name, why in p.problems.items()}
    digest = answers.digest(first.records)
    fixed = [r for job, r in zip(job_list, first.records) if not job.seeded]
    fixed_digest = answers.digest(fixed)
    pinned = answers.PINNED_DIGESTS.get(args.workload)
    if pinned is not None and fixed_digest != pinned:
        failed += len(fixed) * len(passes)
        problems["seed-independent jobs"] = "digest differs from the pinned one"
    states = {p.states for p in passes}
    if len(states) != 1:
        failed += len(passes)
        problems["states_examined"] = f"differs between passes: {sorted(states)}"
    attempted = len(job_list) * len(passes)

    speed = _speed([t for p in untraced for t in p.references])
    per_job = [median(p.scaled[i] for p in untraced) for i in range(len(job_list))]
    raw_job = [median(p.latencies[i] for p in untraced) for i in range(len(job_list))]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(job_list)} jobs per pass, {len(untraced)} untraced and "
          f"{len(traced)} traced passes")
    print(f"latency samples: {len(job_list)} jobs x {len(untraced)} untraced passes")
    print(f"host speed: reference work took {speed * REFERENCE_NOMINAL_S * 1000:.4f} ms "
          f"(nominal {REFERENCE_NOMINAL_S * 1000:.4f} ms), speed factor {speed:.4f}")
    print(f"raw: setup_s {raw_setup_s:.6f} wall_s {median(p.wall for p in untraced):.6f} "
          f"job_p50_ms {1000 * _percentile(raw_job, 0.5):.6f} "
          f"job_p90_ms {1000 * _percentile(raw_job, 0.9):.6f}")
    for refusal in refusals:
        print(f"construction refused at set-up (host redrawn): {refusal}")
    print(f"digest {digest}")
    print(f"seed-independent digest {fixed_digest}")
    print(f"error_rate {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for name, why in sorted(problems.items())[:20]:
        print(f"FAILED {name}: {why}")

    if tracer is None:
        metrics = {
            "setup_s": scaled_import_s + median(scaled_setup_times),
            "wall_s": median(p.scaled_wall for p in untraced),
            "job_p50_ms": 1000 * _percentile(per_job, 0.5),
            "job_p90_ms": 1000 * _percentile(per_job, 0.9),
            "states_examined": first.states,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = tracing.median_metrics(layer_passes)
        metrics["constructions.time_s"] = median(construction_times)
        metrics["trace.wall_s"] = median(p.scaled_wall for p in traced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - median(p.scaled_wall for p in untraced))
        # The same pass times before host normalization, and the host speed.
        metrics["raw.wall_s"] = median(p.wall for p in untraced)
        metrics["raw.trace_wall_s"] = median(p.wall for p in traced)
        metrics["host.reference_ms"] = 1000 * median(
            t for p in untraced for t in p.references)
        units = {name: _per_layer_unit(name) for name in metrics}
        out = ROOT / OUT_DIR
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracing.write(last_spans, spans_path)
        print(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<56} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _bounds() -> dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def _seed_list(text: str) -> list[int]:
    """``"3"``, ``"1,4,9"`` or ``"1-10"``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _child(workload: str, seed: int, args) -> tuple[dict, str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stderr)
        raise SystemExit(child.returncode or 1)
    for line in lines[:-1]:
        if line.startswith(("FAILED", "construction refused")):
            print(f"  [{workload} seed {seed}] {line}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def parent_run(args) -> int:
    """Run one child process per run and summarise their metrics.

    Runs go seed by seed, and within a seed workload by workload, so that a
    slow drift of the host's speed reaches every workload alike.
    """
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = _seed_list(args.seeds) if args.seeds else [args.seed]
    runs: dict[str, list[tuple[int, dict, str]]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            for _ in range(args.repeat):
                runs[workload].append((seed, *_child(workload, seed, args)))
    bounds = _bounds()
    summary: dict[str, dict] = {}
    status = 0
    for workload, done in runs.items():
        failed = sum(r["failed"] for _, r, _ in done)
        attempted = sum(r["attempted"] for _, r, _ in done)
        # Digest and states_examined must repeat between runs of one seed.
        repeats = all(
            len({(d, r["metrics"].get("states_examined", {}).get("value"))
                 for s, r, d in done if s == seed}) == 1
            for seed in seeds)
        entry = {"seeds": seeds, "runs": len(done), "error_rate": failed / attempted,
                 "repeats": repeats, "metrics": {}}
        print(f"== {workload}: {len(done)} run(s), seeds {args.seeds or args.seed}, "
              f"trace {args.trace}, error_rate {failed / attempted:.6f} ratio, "
              f"digest and states {'repeat' if repeats else 'DIFFER'}")
        if failed or not repeats:
            status = 1
        for name, first in done[0][1]["metrics"].items():
            values = [r["metrics"][name]["value"] for _, r, _ in done]
            mid = median(values)
            row = {"unit": first["unit"], "median": mid, "values": values}
            text = f"  {name:<56} {mid:>14.6g} {first['unit']:<6}"
            if len(values) >= 2:
                q1, _, q3 = quantiles(values, n=4)
                spread = (q3 - q1) / mid if mid else 0.0
                row.update(q1=q1, q3=q3, spread=spread)
                text += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                bound = bounds.get(name)
                if bound is not None:
                    text += f" bound {bound}"
                    if spread > bound:
                        text += "  SPREAD ABOVE BOUND"
            entry["metrics"][name] = row
            print(text)
        summary[workload] = entry
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(summary, indent=2) + "\n",
                                       encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="parent mode: runs per workload and seed")
    parser.add_argument("--seeds", help="parent mode: seeds to run, e.g. 1-10 or 1,4,9")
    parser.add_argument("--json-out", help="parent mode: write the summary here")
    args = parser.parse_args(argv)
    if args.workload == "all" or args.repeat > 1 or args.seeds or args.json_out:
        return parent_run(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
