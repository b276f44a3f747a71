"""oriham benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload dense-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; oriham is imported from ``src/``.
The workload seed fixes every input.  ``--trace 0`` runs a closed loop (one
caller, one graph at a time) for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` runs a fixed number of instances, each once plain
and once with every layer boundary wrapped, and prints the per-layer
metrics, the tracing overhead and a digest of all outputs and counts.
The last stdout line is the result object; the line before it, and a file
under ``.perfbench/results/``, hold the details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS, SetupError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("absorption", "cli", "conditions", "extremal", "fileio",
           "generators", "graph", "hamilton", "seeds")
IMPORT_REPEATS = 3

END_TO_END = [("setup_s", "s"), ("instances_per_s", "1/s"),
              ("latency_s.p50", "s"), ("peak_rss_mb", "MB")]


def _span_metrics(name: str, *fields: str) -> list[tuple[str, str]]:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{name}.{f}", units[f]) for f in fields]


STAGE_NAMES = ("absorbing_path", "reservoir", "cover", "stitch", "absorb", "close")
CONDITIONS = ("check_ore", "check_woodall", "check_nash_williams",
              "check_ghouila_houri", "check_semidegree_consequence")
CLI_COMMANDS = ("check", "profile", "score-partition", "absorbers")
SHARE_MODULES = ("hamilton", "absorption", "conditions", "extremal", "fileio",
                 "cli", "graph")

LAYER = [
    *_span_metrics(tracing.PIPELINE, "calls", "s", "self_s"),
    *[m for st in STAGE_NAMES for m in _span_metrics(f"hamilton.stage.{st}", "calls", "s")],
    ("hamilton.stage.stitch.failures", "count"),
    ("hamilton.stage.absorb.failures", "count"),
    *[(f"hamilton.fail.{st}", "count") for st in ("cover", "stitch", "absorb", "close")],
    ("hamilton.stitch.hit_ratio", "ratio"),
    ("hamilton.cover.calls_per_solve", "ratio"),
    ("hamilton.recall.known", "count"),
    ("hamilton.recall.verified", "count"),
    ("hamilton.pipeline_recall", "ratio"),
    *_span_metrics("hamilton.exact_dp", "calls", "s"),
    *_span_metrics("hamilton.exact_dp.cycle_found", "calls", "s"),
    *_span_metrics("hamilton.exact_dp.none_exists", "calls", "s"),
    *_span_metrics("absorption.enumerate_connectors", "calls", "s"),
    ("absorption.enumerate_connectors.tuples", "count"),
    *_span_metrics("absorption.select_disjoint_family", "calls", "s"),
    *_span_metrics("absorption.count_strong_absorbers", "calls", "s"),
    *_span_metrics("absorption.enumerate_weak_absorbers", "calls", "s"),
    *_span_metrics("absorption.connectivity_profile", "calls", "s"),
    ("absorption.reservoir.kept_per_tuple", "ratio"),
    *[m for c in CONDITIONS for m in _span_metrics(f"conditions.{c}", "calls", "s")],
    ("conditions.pairs_scanned", "count"),
    *[m for f in ("find_extremal_partition", "verify_partition", "find_sharp_pair")
      for m in _span_metrics(f"extremal.{f}", "calls", "s")],
    *_span_metrics("fileio.parse_edge_list", "calls", "s"),
    ("fileio.parse_edge_list.bytes", "B"),
    *[m for c in CLI_COMMANDS for m in _span_metrics(f"cli.{c}", "calls", "s")],
    ("cli.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("generators.random_min_semidegree.s", "s"),
    ("extremal.generate_extremal.s", "s"),
    ("fileio.emit_edge_list.s", "s"),
    ("graph.OrientedGraph.add_arc.calls", "count"),
    *_span_metrics("graph.verify_hamilton_cycle", "calls", "s"),
    *[(f"share.{m}", "ratio") for m in SHARE_MODULES],
    ("trace.instances", "count"),
    ("trace.plain_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_share", "ratio"),
]



def deterministic(name: str, unit: str) -> bool:
    """Counts and count ratios repeat exactly between runs of one seed."""
    return unit in ("count", "B") or (unit == "ratio"
                                      and not name.startswith(("share.", "trace.")))


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def _tail(samples: list[float]) -> dict:
    """Highest whole percentile, from p50 up, with at least ten samples
    beyond it; none when a run has fewer than 20 samples."""
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return {"percentile": None, "samples": n, "value": None}
    return {"percentile": p, "samples": n,
            "value": sorted(samples)[math.ceil(p / 100 * n) - 1]}


def _import_seconds() -> float:
    """Median cold import time of oriham, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import oriham.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def _environment(seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "oriham").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Bench:
    def __init__(self, o, workload, seed: int, workdir: Path):
        self.o = o
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.instances: list[dict] = []
        self.unit_s: list[float] = []

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for j in range(self.workload.units):
            start = perf_counter()
            self.instances += self.workload.setup_unit(self.o, self.seed, j, self.workdir)
            self.unit_s.append(perf_counter() - start)

    def instance(self, i: int) -> dict:
        return self.instances[i % len(self.instances)]


def run_plain(bench: Bench, seconds: float) -> dict:
    """Closed loop, one instance at a time, checked after each, in whole
    rounds until the deadline is nearer than half a round.  One warm-up
    instance runs first; it is checked but not timed."""
    outcomes = [bench.workload.run(bench.o, bench.instance(0), 0)]
    latencies = []
    start = perf_counter()
    i = 0
    while True:
        round_start = perf_counter()
        for _ in range(bench.workload.round):
            out = bench.workload.run(bench.o, bench.instance(i), i)
            latencies.append(out.seconds)
            outcomes.append(out)
            i += 1
        now = perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    return {"latencies": latencies, "outcomes": outcomes}


def run_traced(bench: Bench, count: int, tr: tracing.Tracer) -> dict:
    """Each of ``count`` instances once plain and once traced, alternating
    which goes first so that a drift in host speed cancels."""
    plain_s = traced_s = 0.0
    outcomes = []
    targets = tracing.loop_targets(bench.o)

    def traced_run(i: int, inst: dict):
        tr.instance = i
        tr.install(targets)
        try:
            return bench.workload.run(bench.o, inst, i, tracer=tr)
        finally:
            tr.restore()

    for i in range(count):
        inst = bench.instance(i)
        if i % 2:
            traced = traced_run(i, inst)
            plain = bench.workload.run(bench.o, inst, i)
        else:
            plain = bench.workload.run(bench.o, inst, i)
            traced = traced_run(i, inst)
        if plain.record != traced.record:
            traced.fail("trace", "traced run changed an output")
        plain_s += plain.seconds
        traced_s += traced.seconds
        outcomes.append(traced)
    return {"outcomes": outcomes, "plain_s": plain_s, "traced_s": traced_s}


SETUP_LAYER = {"generators.random_min_semidegree.s", "extremal.generate_extremal.s",
               "fileio.emit_edge_list.s", "graph.OrientedGraph.add_arc.calls"}


def _lookup(tr: tracing.Tracer, name: str) -> float:
    """A span field (calls, s, self_s) or a boundary counter by metric name."""
    if name in tr.counts:
        return tr.counts[name]
    base, _, field = name.rpartition(".")
    table = {"calls": tr.calls, "s": tr.s, "self_s": tr.self_s}.get(field)
    return table.get(base, 0) if table is not None else 0


def layer_metrics(tr: tracing.Tracer, setup_tr: tracing.Tracer, outcomes: list,
                  plain_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer values of the timed instances; set-up layers come from the
    separate tracer that watched input generation."""
    calls, counts = tr.calls, tr.counts
    values = {name: _lookup(setup_tr if name in SETUP_LAYER else tr, name)
              for name, _ in LAYER}
    solves = calls.get(tracing.PIPELINE, 0)
    connects = calls.get("absorption.connect_through_reservoir", 0)
    known = sum(o.known for o in outcomes)
    verified = sum(o.verified for o in outcomes)
    cli_spans = [k for k in tr.self_s if k.startswith("cli.")]
    values.update({
        "hamilton.stitch.hit_ratio": _ratio(counts.get("hamilton.stitch.hits", 0), connects),
        "hamilton.cover.calls_per_solve": _ratio(calls.get("hamilton.stage.cover", 0), solves),
        "hamilton.recall.known": known,
        "hamilton.recall.verified": verified,
        "hamilton.pipeline_recall": _ratio(verified, known),
        "absorption.reservoir.kept_per_tuple": _ratio(
            counts.get("absorption.reservoir.kept", 0),
            counts.get("absorption.reservoir.tuples", 0)),
        "cli.self_s": sum(tr.self_s[k] for k in cli_spans),
        "cli.out_bytes": sum(o.out_bytes for o in outcomes),
        "trace.instances": len(outcomes),
        "trace.plain_s": plain_s,
        "trace.traced_s": traced_s,
        "trace.overhead_share": _ratio(traced_s - plain_s, plain_s),
    })
    for out in outcomes:
        for rec in out.record:
            if rec[0] == "pipeline" and rec[1] == "not_found":
                key = f"hamilton.fail.{rec[2]}"
                values[key] = values.get(key, 0) + 1
    for module in SHARE_MODULES:
        own = sum(v for k, v in tr.self_s.items() if k.split(".", 1)[0] == module)
        values[f"share.{module}"] = _ratio(own, traced_s)
    return values


def _summary(outcomes: list) -> dict:
    attempted = sum(o.ops for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    known = sum(o.known for o in outcomes)
    verified = sum(o.verified for o in outcomes)
    failures = [f"instance {i}: {label}: {why}" for i, o in enumerate(outcomes)
                for label, why in o.failed.items()]
    op_s: dict[str, float] = {}
    for o in outcomes:
        for label, sec in o.op_s.items():
            op_s[label] = op_s.get(label, 0.0) + sec
    return {"attempted": attempted, "failed": failed,
            "error_share": _ratio(failed, attempted),
            "pipeline_recall": (None if known == 0 else
                                {"value": verified / known, "verified": verified,
                                 "known": known}),
            "failures": failures[:20], "op_s": op_s}


def _digest(outcomes: list, counts: dict) -> str:
    payload = json.dumps([[o.record for o in outcomes], counts], sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every instance, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "oriham" / "__init__.py").is_file():
        print(f"error: no oriham sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    o = importlib.import_module("oriham")
    for name in MODULES:
        importlib.import_module(f"oriham.{name}")

    workload = WORKLOADS[args.workload](o, args.scale)
    results = ROOT / ".perfbench" / "results"
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    bench = Bench(o, workload, args.seed, workdir)
    tr, setup_tr = tracing.Tracer(), tracing.Tracer()
    try:
        if args.trace:
            setup_tr.install(tracing.setup_targets(o))
            try:
                bench.setup()
            finally:
                setup_tr.restore()
            # whole rounds, about --seconds for the plain and traced pass together
            rounds = round(args.seconds / (2 * workload.nominal_s * workload.round))
            count = max(2, workload.round * max(1, rounds))
            ran = run_traced(bench, count, tr)
        else:
            import_s = _import_seconds()
            bench.setup()
            ran = run_plain(bench, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = ran["outcomes"]
    summary = _summary(outcomes)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "environment": _environment(args.seed), **summary}
    if args.trace:
        values = layer_metrics(tr, setup_tr, outcomes, ran["plain_s"], ran["traced_s"])
        units = dict(LAYER)
        counts = {k: v for k, v in values.items() if deterministic(k, units[k])}
        detail["digest"] = _digest(outcomes, counts)
        detail["counts"] = counts
        detail["tracing_overhead"] = {"plain_s": ran["plain_s"], "traced_s": ran["traced_s"],
                                      "share": values["trace.overhead_share"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER}
    else:
        lat = ran["latencies"]
        setup_s = import_s + len(bench.unit_s) * statistics.median(bench.unit_s)
        values = {
            "setup_s": setup_s,
            "instances_per_s": len(lat) / sum(lat),
            "latency_s.p50": statistics.median(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["setup"] = {"import_s": import_s, "units": len(bench.unit_s),
                           "unit_s_median": statistics.median(bench.unit_s)}
        detail["latency_s.tail"] = _tail(lat)
        detail["digest"] = _digest(outcomes, {})
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({**detail, "metrics": metrics, "latencies": ran.get("latencies", []),
                   "spans": tr.spans}, fh, default=str)
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
