"""roofpairs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/roofpairs``).  One
client drives the program in a closed loop and every output is checked by an
oracle that does not use roofpairs.  A run is a fixed number of blocks,
``round(S * blocks_per_s)`` of the workload, sized to take about S seconds on
a 2-vCPU host; so the ops a run attempts, and those that fail, depend on the
seed and S only, never on the host's speed.  The last line of stdout is the
JSON result; the lines before it are a readable report with provenance.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs the first half of those blocks untraced, then the same blocks again
with every public function of the program wrapped, and reports the per-layer
metrics; the ratio of the two run times is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import calibrate as cal
import tracer as tr
from workloads import WORKLOADS

SETUP_REPEATS = 5
# No block starts this long after start-up, so a run that has become very slow
# still ends within the contract's 180 s; a cut run says so in its report.
DEADLINE_S = 140.0
STARTED = perf_counter()
VERDICT = object()
# the tracer self-test: call counts of one traced verify-all
VERIFY_ALL_COUNTS = {"latticecore.det": 4088, "latticecore.smith_normal_form": 1020,
                     "roofcalc.reduce": 3794, "roofcalc.middle_lattice": 44,
                     "latticecore.isotropic_pair_solve": 5}


class Run:
    """Outcome of one measured pass: latency (scaled to the reference speed),
    raw latency, label and block of every op."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.raw: list[float] = []
        self.calibration: list[float] = []
        self.label: list[str] = []
        self.block: list[int] = []
        self.failed = 0
        self.wrong = 0
        self.verdicts = 0
        self.failures: dict[str, dict] = {}
        self.cut = False

    def fail(self, cls: str, replay) -> None:
        self.failed += 1
        rec = self.failures.setdefault(cls, {"count": 0, "first_input": replay})
        rec["count"] += 1


def _escape_class(exc: BaseException) -> str:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    where = getattr(code, "co_qualname", code.co_name)
    return f"escaped {type(exc).__name__}: {exc} (in {where})"


def measure(wl, blocks: int, tracer=None) -> Run:
    run = Run()
    clock = wl.clock()
    clock.sample()
    brackets = []
    for i in range(blocks):
        if i and perf_counter() - STARTED > DEADLINE_S:
            run.cut = True
            break
        for op in wl.block(i):
            if clock.due():
                clock.sample()
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                out = op.run()
            except wl.verdicts:
                out = VERDICT
            except Exception as exc:  # noqa: BLE001 - an escaped exception is a failed op
                out = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            run.raw.append(dt)
            brackets.append(len(clock.samples) - 1)
            run.label.append(op.label)
            run.block.append(i)
            if out is VERDICT:
                run.verdicts += 1
            elif isinstance(out, Exception):
                run.fail(_escape_class(out), op.replay)
            else:
                try:
                    bad = op.check(out)
                except Exception as exc:  # noqa: BLE001 - output the oracle cannot read
                    bad = f"unreadable output ({type(exc).__name__})"
                if isinstance(bad, Exception):
                    run.fail(_escape_class(bad), op.replay)
                elif bad is not None:
                    run.wrong += 1
                    run.fail(f"wrong value: {bad}", op.replay)
    clock.sample()
    run.latency = [clock.scale(dt, k) for dt, k in zip(run.raw, brackets)]
    run.calibration = clock.samples
    return run


def setup(wl, root: str) -> float:
    """Median time, at the reference speed, of SETUP_REPEATS fresh imports plus
    warm-up (a child for golden)."""
    times = []
    clock = wl.clock()
    clock.sample()
    for k in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "roofpairs" or m.startswith("roofpairs.")]:
            del sys.modules[name]
        t0 = perf_counter()
        wl.setup_once()
        wl.warmup()
        raw = perf_counter() - t0
        clock.sample()
        times.append(clock.scale(raw, k))
    if wl.in_process:
        where = os.path.dirname(sys.modules["roofpairs"].__file__)
        if os.path.realpath(where) != os.path.realpath(os.path.join(root, "src", "roofpairs")):
            raise RuntimeError(f"roofpairs imported from {where}, not from src/")
    return statistics.median(times)


def tail(latency: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond)."""
    xs = sorted(latency)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def end_to_end(wl, run: Run, setup_s: float) -> tuple[dict, dict]:
    value, pct, beyond = tail(run.latency)
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(run.latency) / sum(run.latency),
        "op_p50_ms": 1000.0 * statistics.median(run.latency),
        "op_tail_ms": 1000.0 * value,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }
    raw_tail = sorted(run.raw)[len(run.raw) - 1 - beyond]
    info = {"op_tail": {"percentile": round(pct, 3), "samples": len(run.latency),
                        "beyond": beyond},
            "raw": {"ops_per_s": len(run.raw) / sum(run.raw),
                    "op_p50_ms": 1000.0 * statistics.median(run.raw),
                    "op_tail_ms": 1000.0 * raw_tail},
            "calibration_ms": {"median": 1000.0 * statistics.median(run.calibration),
                               "min": 1000.0 * min(run.calibration),
                               "max": 1000.0 * max(run.calibration),
                               "samples": len(run.calibration)}}
    if wl.name == "golden":
        def med(pred):
            return statistics.median(t for t, lab in zip(run.latency, run.label) if pred(lab))
        info["golden"] = {
            "verify_all_s": med(lambda lab: lab == "verify-all"),
            "mukai_s": med(lambda lab: lab.startswith("mukai")),
            "query_p50_s": med(lambda lab: lab.split()[0] in ("describe", "lemma7", "bwb", "motivic")),
            "cli_start_s": med(lambda lab: lab == "--version"),
        }
    return values, info


def per_layer(summary: dict, overhead: float, specs: list[dict]) -> dict:
    ops = max(summary.get("ops", 0), 1)
    names = summary.get("names", {})
    values = {}
    for spec in specs:
        metric = spec["name"]
        prefix, _, field = metric.rpartition(".")
        rec = names.get(prefix, {})
        calls = rec.get("calls", 0)
        if metric == "trace.overhead_ratio":
            v = overhead
        elif field == "calls":
            v = calls / ops
        elif field == "self_s" and "." not in prefix:
            v = sum(r["self_s"] for n, r in names.items() if n.split(".")[0] == prefix) / ops
        elif field in ("self_s", "total_s"):
            v = rec.get(field, 0.0) / ops
        elif field == "distinct_ratio":
            v = rec.get("distinct", 0) / calls if calls else 0.0
        elif field == "underdetermined_ratio":
            v = rec.get("errors", {}).get("Underdetermined", 0) / calls if calls else 0.0
        elif field == "max_entry_bits":
            v = summary.get("max_entry_bits", 0)
        elif field == "box_vectors":
            v = summary.get("box_vectors", 0) / ops
        else:
            raise KeyError(f"no rule for per-layer metric {metric!r}")
        values[metric] = v
    return values


def self_test(summaries: list[tuple[str, dict]]) -> list[str]:
    """Traced verify-all reproduces the published call counts; counts repeat per command."""
    problems = []
    by_command: dict[str, list[dict]] = {}
    for command, summ in summaries:
        by_command.setdefault(command, []).append(
            {n: r["calls"] for n, r in summ["names"].items()})
    for command, counts in by_command.items():
        if any(c != counts[0] for c in counts[1:]):
            problems.append(f"call counts of '{command}' differ between sessions")
    for c in by_command.get("verify-all", []):
        for name, want in VERIFY_ALL_COUNTS.items():
            if c.get(name, 0) != want:
                problems.append(f"verify-all: {name} called {c.get(name, 0)} times, expected {want}")
    if len(by_command.get("verify-all", [])) < 2:
        problems.append("fewer than two traced verify-all runs")
    return problems


def overhead_ratio(untraced: Run, traced: Run) -> float:
    """Traced over untraced time of the blocks both passes completed."""
    m = min(untraced.block[-1], traced.block[-1]) + 1
    base = sum(t for t, b in zip(untraced.latency, untraced.block) if b < m)
    return sum(t for t, b in zip(traced.latency, traced.block) if b < m) / base


def block_count(wl, seconds: float) -> int:
    return max(1, round(seconds * wl.blocks_per_s))


def git_commit(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, root: str) -> dict:
    from importlib import metadata
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit(root)}


def report_run(run: Run) -> dict:
    per_label: dict[str, int] = {}
    for lab in run.label:
        per_label[lab] = per_label.get(lab, 0) + 1
    return {"attempted": len(run.latency), "failed": run.failed, "wrong_values": run.wrong,
            "verdicts": run.verdicts, "blocks": run.block[-1] + 1, "cut": run.cut,
            "ops_by_label": per_label, "failure_classes": run.failures}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "roofpairs", "__init__.py")):
        print(f"error: no roofpairs sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    # One CPU for the benchmark, the program and golden's children (which
    # inherit it), so the calibration kernel runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](root, args.seed)
    try:
        setup_s = setup(wl, root)
        blocks = block_count(wl, args.seconds)
        if not args.trace:
            run = measure(wl, blocks)
            values, info = end_to_end(wl, run, setup_s)
            specs, runs, problems = spec["end_to_end"], [run], []
        else:
            # golden's self-test compares two traced sessions
            half = max(1 if wl.in_process else 2, blocks // 2)
            untraced = measure(wl, half)
            if wl.in_process:
                tracer = tr.Tracer()
                tracer.install()
                traced = measure(wl, half, tracer)
                tracer.uninstall()
                summary, problems = tracer.summary(), []
            else:
                wl.traced = True
                traced = measure(wl, half)
                summary = {}
                for _, part in wl.summaries:
                    tr.merge(summary, part)
                problems = self_test(wl.summaries)
            values = per_layer(summary, overhead_ratio(untraced, traced), spec["per_layer"])
            specs, runs = spec["per_layer"], [untraced, traced]
            info = {"traced_ops": summary.get("ops", 0),
                    "calls": {n: r["calls"] for n, r in sorted(summary.get("names", {}).items())}}
            if wl.name == "golden":
                info["self_test"] = problems or "ok"
    finally:
        wl.close()

    attempted = sum(len(r.latency) for r in runs)
    failed = sum(r.failed for r in runs)
    correct = not problems and all(r.wrong == 0 for r in runs)
    print(f"roofpairs benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for s in specs:
        note = ""
        if s["name"] == "op_tail_ms":
            t = info["op_tail"]
            note = f" (p{t['percentile']:g} of {t['samples']} samples, {t['beyond']} beyond)"
        print(f"  {s['name']:<48} {values[s['name']]:>16.6f} {s['unit']}{note}")
    print(f"  {'failed_ratio':<48} {failed / attempted:>16.6f} ratio ({failed}/{attempted} ops)")
    for name, v in info.get("golden", {}).items():
        print(f"  {name:<48} {v:>16.6f} s")
    failures: dict[str, dict] = {}
    for r in runs:
        for cls, rec in r.failures.items():
            failures.setdefault(cls, {"count": 0, "first_input": rec["first_input"]})["count"] += rec["count"]
    for cls, rec in failures.items():
        print(f"  failure x{rec['count']}: {cls}\n    first input: {json.dumps(rec['first_input'])}")
    for pr in problems:
        print(f"  tracer self-test: {pr}")
    if any(r.cut for r in runs):
        print(f"  run cut: no block starts {DEADLINE_S:g} s after start-up")
    prov = provenance(args, root)
    prov.update(info, runs=[report_run(r) for r in runs])
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
