"""Benchmark of the sllresub flow: one client, one flow at a time, one process.

    python3 perfbench/run.py --workload {suite,chain,wide} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. The run generates the workload's BLIF inputs from the seed,
then calls the public `sllresub.flow.run_flow` on each of them, in
passes, while the next pass is expected to end within `--seconds` of
the process start, set-up included. Every flow's `post.blif` is
checked by `checker.py`. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: with
`--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics, taken by `spans.py` from outside the program. Generated inputs,
flow artifacts and span files go to `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import checker
from spans import Tracer

START = time.perf_counter()   # --seconds counts from here

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Set-up takes 0.05-0.6 s and varies by a fifth from one repeat to the
# next, so it is repeated for this long (3 times at least) and the median
# is reported.
SETUP_SECONDS = 4.0

END_TO_END_UNITS = {
    "flow_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_ratio": "fraction",
    "n_sll": "count", "n_sll_fo": "count", "lut_count": "count", "rho": "ratio",
}


@dataclass
class Pass:
    """One pass over all of a workload's netlists."""
    seconds: dict[str, float] = field(default_factory=dict)   # stem -> run_flow wall time
    failed: int = 0
    qor: dict = field(default_factory=dict)
    audit: Counter = field(default_factory=Counter)            # pivot outcomes


def write_inputs(workload, seed: int, in_dir: str) -> list[tuple[str, str, str]]:
    """Generate and write the inputs; (stem, path, text) per netlist."""
    out = []
    for stem, text in workload.inputs(seed):
        path = os.path.join(in_dir, stem + ".blif")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append((stem, path, text))
    return out


def run_pass(workload, files, seed: int, out_root: str, call) -> Pass:
    """Run `call(FlowConfig)` on every input and check each result."""
    rep = Pass()
    qor = {"n_sll": 0, "n_sll_fo": 0, "lut_count": 0, "rho": 0.0}
    for stem, path, text in files:
        config = workload.flow_config(path, os.path.join(out_root, stem))
        t0 = time.perf_counter()
        try:
            result = call(config)
        except Exception:   # a failed flow is counted, and the run goes on
            rep.seconds[stem] = time.perf_counter() - t0
            rep.failed += 1
            traceback.print_exc()
            continue
        rep.seconds[stem] = time.perf_counter() - t0
        if result.exit_code != 0:
            rep.failed += 1
            print("%s: flow exited %d" % (stem, result.exit_code), file=sys.stderr)
            continue
        with open(result.artifacts["post_blif"], encoding="utf-8") as fh:
            reason = checker.check(text, fh.read(), config.k_max, "%d:%s" % (seed, stem))
        if reason is not None:
            rep.failed += 1
            print("%s: post.blif rejected: %s" % (stem, reason), file=sys.stderr)
            continue
        with open(result.artifacts["metrics_json"], encoding="utf-8") as fh:
            after = json.load(fh)["after"]
        for key in ("n_sll", "n_sll_fo", "lut_count"):
            qor[key] += after[key]
        qor["rho"] = max(qor["rho"], after["rho"])
        with open(result.artifacts["report"], encoding="utf-8") as fh:
            rep.audit.update(a["outcome"] for a in json.load(fh)["audit"])
    rep.qor = qor
    return rep


def repeat_within(deadline: float, step):
    """Call `step()` once, then again while the next call, taking as long
    as the slowest call so far, is expected to end by `deadline`."""
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        slowest = max(slowest, now - t0)
        if now + slowest > deadline:
            return


def flow_seconds(reps: list[Pass]) -> float:
    """Sum over netlists of each netlist's median run_flow time."""
    return sum(statistics.median(r.seconds[stem] for r in reps) for stem in reps[0].seconds)


def tally(reps: list[Pass]) -> tuple[int, int, bool]:
    """(flows attempted, flows failed, whether QoR was the same on every pass)."""
    attempted = sum(len(r.seconds) for r in reps)
    return attempted, sum(r.failed for r in reps), all(r.qor == reps[0].qor for r in reps)


def end_to_end(workload, seed: int, deadline: float, work: str):
    """Time set-up and untraced passes; QoR from the first pass."""
    from sllresub.flow import run_flow

    setup = []
    files = None
    while len(setup) < 3 or sum(setup) < SETUP_SECONDS:
        t0 = time.perf_counter()
        again = write_inputs(workload, seed, work)
        setup.append(time.perf_counter() - t0)
        if files is not None and [f[2] for f in again] != [f[2] for f in files]:
            raise RuntimeError("input generation is not deterministic")
        files = again
    reps: list[Pass] = []
    repeat_within(deadline, lambda: reps.append(
        run_pass(workload, files, seed, os.path.join(work, "out"), run_flow)))
    print("pass seconds: %s" % " ".join("%.3f" % sum(r.seconds.values()) for r in reps),
          file=sys.stderr)
    attempted, failed, steady = tally(reps)
    metrics = {
        "flow_s": flow_seconds(reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
        **reps[0].qor,
    }
    return metrics, END_TO_END_UNITS, attempted, failed, steady


def trace_targets():
    """(owner, attribute, span name, observer) for every traced call site."""
    from sllresub import equiv, flow, metrics, resynth
    from sllresub.netlist import Netlist
    from sllresub.truthtab import TruthTable

    return [
        (flow, "parse_blif_file", "netlist.parse", None),
        (flow, "write_blif_file", "netlist.write", None),
        (flow, "assignment_for", "partition.assign", None),
        (flow, "resynthesize", "resynth.sweep", None),
        (flow, "check_equivalence", "equiv.final", lambda v: v.vectors_checked),
        (flow, "split_per_die", "flow.split", None),
        (metrics, "report", "metrics.report", None),
        (resynth, "build_window", "windows.build", lambda w: w and w.num_pis),
        (resynth, "WindowSim", "windows.sim", None),
        (resynth, "extract_care_set", "windows.care", None),
        (resynth, "collect_divisors", "windows.divisors", lambda d: len(d.in_die)),
        (resynth, "find_equiv_func", "resynth.find", None),
        (resynth, "exist_check", "windows.exist_check", bool),
        (resynth, "interpolate", "windows.interpolate", None),
        (resynth, "apply_resubstitution", "resynth.commit", None),
        (resynth, "count_sll_fo", "resynth.audit", None),
        # flow binds its own check_equivalence at import, so only the
        # per-commit check inside resynthesize reaches this one
        (equiv, "check_equivalence", "resynth.verify", None),
        (Netlist, "copy", "netlist.copy", None),
        (Netlist, "levels", "netlist.levels", None),
        (Netlist, "tfo", "netlist.tfo", None),
        (TruthTable, "eval_masks", "truthtab.eval_masks", None),
    ]


# per-layer metric -> (span name, field of Tracer.totals: 0 calls, 1 inclusive s, 2 self s)
SPAN_METRICS = {
    "netlist.parse_s": ("netlist.parse", 1),
    "netlist.write_s": ("netlist.write", 1),
    "netlist.copy_s": ("netlist.copy", 1),
    "netlist.copy_calls": ("netlist.copy", 0),
    "netlist.levels_s": ("netlist.levels", 1),
    "netlist.levels_calls": ("netlist.levels", 0),
    "netlist.tfo_s": ("netlist.tfo", 1),
    "netlist.tfo_calls": ("netlist.tfo", 0),
    "partition.assign_s": ("partition.assign", 1),
    "windows.build_s": ("windows.build", 1),
    "windows.build_calls": ("windows.build", 0),
    "windows.sim_s": ("windows.sim", 1),
    "windows.care_s": ("windows.care", 1),
    "windows.divisors_s": ("windows.divisors", 1),
    "windows.exist_check_s": ("windows.exist_check", 1),
    "windows.exist_check_calls": ("windows.exist_check", 0),
    "windows.interpolate_s": ("windows.interpolate", 1),
    "resynth.sweep_s": ("resynth.sweep", 1),
    "resynth.self_s": ("resynth.sweep", 2),
    "resynth.find_s": ("resynth.find", 1),
    "resynth.commit_s": ("resynth.commit", 1),
    "resynth.audit_s": ("resynth.audit", 1),
    "resynth.verify_s": ("resynth.verify", 1),
    "resynth.verify_calls": ("resynth.verify", 0),
    "equiv.final_s": ("equiv.final", 1),
    "truthtab.eval_masks_s": ("truthtab.eval_masks", 1),
    "truthtab.eval_masks_calls": ("truthtab.eval_masks", 0),
    "metrics.report_s": ("metrics.report", 1),
    "flow.split_s": ("flow.split", 1),
    "flow.self_s": ("flow.run_flow", 2),
}

PER_LAYER_UNITS = {
    **{name: ("count" if name.endswith("_calls") else "s") for name in SPAN_METRICS},
    "windows.no_window": "count",
    "windows.pis_mean": "count",
    "windows.divisors_in_die_mean": "count",
    "windows.exist_check_hit_ratio": "ratio",
    "resynth.pivots": "count",
    "resynth.commits": "count",
    "resynth.commit_ratio": "ratio",
    "resynth.no_candidate": "count",
    "resynth.cycle_rejected": "count",
    "equiv.final_vectors": "count",
    "trace_overhead_s": "s",
}


def layer_metrics(tracer, rep: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    out = {name: totals[span][col] for name, (span, col) in SPAN_METRICS.items()}
    obs = tracer.observed
    pis = [p for p in obs["windows.build"] if p is not None]
    hits = obs["windows.exist_check"]
    pivots = sum(n for outcome, n in rep.audit.items() if outcome != "skipped")
    out.update({
        "windows.no_window": len(obs["windows.build"]) - len(pis),
        "windows.pis_mean": statistics.fmean(pis) if pis else 0.0,
        "windows.divisors_in_die_mean": (statistics.fmean(obs["windows.divisors"])
                                         if obs["windows.divisors"] else 0.0),
        "windows.exist_check_hit_ratio": sum(hits) / len(hits) if hits else 0.0,
        "resynth.pivots": pivots,
        "resynth.commits": rep.audit["committed"],
        "resynth.commit_ratio": rep.audit["committed"] / pivots if pivots else 0.0,
        "resynth.no_candidate": rep.audit["no-candidate"],
        "resynth.cycle_rejected": rep.audit["cycle-rejected"],
        "equiv.final_vectors": sum(obs["equiv.final"]),
    })
    return out


def per_layer(workload, seed: int, deadline: float, work: str):
    """Alternate untraced and traced passes; per-layer medians over traced passes."""
    from sllresub.flow import run_flow

    files = write_inputs(workload, seed, work)
    plain: list[Pass] = []
    traced: list[tuple[Tracer, Pass]] = []

    def pair():
        plain.append(run_pass(workload, files, seed, os.path.join(work, "out"), run_flow))
        tracer = Tracer()
        root = tracer.wrap("flow.run_flow", run_flow)

        def call(config):
            tracer.flow_id += 1
            return root(config)

        with tracer.installed(trace_targets()):
            rep = run_pass(workload, files, seed, os.path.join(work, "out"), call)
        traced.append((tracer, rep))

    repeat_within(deadline, pair)
    for i, (tracer, _rep) in enumerate(traced):
        with open(os.path.join(work, "spans_%d.tsv" % i), "w", encoding="utf-8") as fh:
            tracer.write(fh)
    rows = [layer_metrics(tracer, rep) for tracer, rep in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace_overhead_s"] = (flow_seconds([rep for _t, rep in traced])
                                   - flow_seconds(plain))
    return (metrics, PER_LAYER_UNITS) + tally(plain + [rep for _t, rep in traced])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "sllresub")):
        print("error: no sllresub sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    measure = per_layer if args.trace else end_to_end
    metrics, units, attempted, failed, steady = measure(
        WORKLOADS[args.workload], args.seed, START + args.seconds, work)
    for name, value in metrics.items():
        print("%-32s %r %s" % (name, value, units[name]), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
