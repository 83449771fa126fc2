#!/usr/bin/env python3
"""Summaries of `bench/suite/run.py` runs, shared by record_bench.sh and
ab_bench.sh so both read a run and compute a spread the same way.

A run's output ends with its outcome_digest line and a final JSON line
({correct, attempted, failed, metrics}). A metric's spread over runs is
its median and quartiles by Python's statistics.quantiles(values, n=4),
the rule bench/suite/README.md measures noise with.

  bench_stats.py record OUT COMMIT NPROC RUN...
      writes the BENCH_<workload>.json record of the run logs RUN...
  bench_stats.py ab OUT RUNS BASE CHANGE PAIRS NPROC WORKLOAD...
      summarizes the paired logs RUNS/<workload>.<base|change>.<pair>.out
      into an A/B report; exits 1 unless it is ok
  bench_stats.py resummarize REPORT
      recomputes an A/B report's summary from the runs it holds

An A/B metric's verdict, with `gap` the change's median minus the base's
in the metric's better direction and `bound` its relative bound in
BENCHMARK.json:
  gain        the change won >= 90% of the pairs and gap > the base's IQR;
  worse       -gap > bound * |base median|;
  unresolved  neither, the base's IQR > bound * |base median| (the
              base's own spread hides a regression up to the bound), and
              not every run of the change reads better than every run
              of the base;
  same        otherwise.
A report is ok when every run of both sides completed with the same
outcome_digest and no failed operation, and no metric is worse; it lists
its unresolved metrics as "workload/metric".
"""
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def read_run(path):
    """{stamp, outcome_digest, result} of one run.py log; a field the log
    lacks (a crashed or cut run) is None."""
    with open(path) as f:
        lines = f.read().strip().splitlines()
    digest = next((line.split(":", 1)[1].strip() for line in lines
                   if line.startswith("outcome_digest:")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"stamp": next((line for line in lines
                           if line.startswith("stamp:")), None),
            "outcome_digest": digest, "result": result}


def spread(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def record(out, commit, nproc, paths):
    runs = [read_run(path) for path in paths]
    metrics = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": first["unit"], **spread(values)}
    rec = {
        "commit": commit,
        "nproc": int(nproc),
        "stamp": runs[0]["stamp"],
        "reps": len(runs),
        "correct": all(run["result"]["correct"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "outcome_digests": [run["outcome_digest"] for run in runs],
        "metrics": metrics,
        "runs": [run["result"] for run in runs],
    }
    with open(out, "w") as f:
        json.dump(rec, f, indent=1)
        f.write("\n")
    for name, m in metrics.items():
        print(f"  {name}: median {m['median']:.6g} (q1 {m['q1']:.6g}, "
              f"q3 {m['q3']:.6g}) {m['unit']}")


def verdict(m, base, change, wins, pairs, gap, iqr):
    noise_floor = m["bound"] * abs(base["median"])
    if wins >= 0.9 * pairs and gap > iqr:
        return "gain"
    if -gap > noise_floor:
        return "worse"
    separated = (max(change["values"]) < min(base["values"])
                 if m["better"] == "lower"
                 else min(change["values"]) > max(base["values"]))
    if iqr > noise_floor and not separated:
        return "unresolved"
    return "same"


def summarize(report):
    """Fills in each workload's digests_equal, failed, metrics and the
    report's ok and unresolved from its outcome_digests and runs."""
    with open(BENCHMARK) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    pairs = report["pairs"]
    ok = True
    unresolved = []
    for workload, w in report["workloads"].items():
        runs, digests = w["runs"], w["outcome_digests"]
        every = digests["base"] + digests["change"]
        digests_equal = None not in every and len(set(every)) == 1
        failed = {side: sum(r["failed"] if r else 1 for r in rs)
                  for side, rs in runs.items()}
        complete = all(r for rs in runs.values() for r in rs)
        ok = ok and digests_equal and complete and not any(failed.values())
        print(f"== {workload}: digests "
              f"{'equal' if digests_equal else 'DIFFER'} "
              f"{sorted(set(d for d in every if d))}, failed ops base "
              f"{failed['base']} change {failed['change']}")
        metrics = {}
        for name, m in spec.items() if complete else []:
            lower = m["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in runs.items()}
            base, change = spread(values["base"]), spread(values["change"])
            wins = sum((c < b) if lower else (c > b)
                       for b, c in zip(values["base"], values["change"]))
            gap = (base["median"] - change["median"] if lower
                   else change["median"] - base["median"])
            iqr = base["q3"] - base["q1"]
            v = verdict(m, base, change, wins, pairs, gap, iqr)
            ok = ok and v != "worse"
            if v == "unresolved":
                unresolved.append(f"{workload}/{name}")
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             "bound": m["bound"], "base": base,
                             "change": change, "wins": wins, "gap": gap,
                             "base_iqr": iqr, "verdict": v}
            print(f"  {name:13s} base {base['median']:.6g} "
                  f"[{base['q1']:.6g}, {base['q3']:.6g}]  change "
                  f"{change['median']:.6g} [{change['q1']:.6g}, "
                  f"{change['q3']:.6g}] {m['unit']}  wins {wins}/{pairs}  "
                  f"gap {gap:.4g} vs IQR {iqr:.4g}  {v}")
        w.update(digests_equal=digests_equal, failed=failed,
                 metrics=metrics)
    report["ok"] = ok
    report["unresolved"] = unresolved
    if unresolved:
        print("unresolved (base spread wider than the bound): " +
              ", ".join(unresolved))
    return report


def ab(out, runs_dir, base, change, pairs, nproc, workloads):
    pairs = int(pairs)
    report = {"base": base, "change": change, "pairs": pairs,
              "nproc": int(nproc), "workloads": {}}
    for workload in workloads:
        runs = {side: [read_run(os.path.join(runs_dir,
                                             f"{workload}.{side}.{p}.out"))
                       for p in range(1, pairs + 1)]
                for side in ("base", "change")}
        report["workloads"][workload] = {
            "outcome_digests": {side: [r["outcome_digest"] for r in rs]
                                for side, rs in runs.items()},
            "runs": {side: [r["result"] for r in rs]
                     for side, rs in runs.items()}}
    return write_report(out, summarize(report))


def write_report(out, report):
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")
    return 0 if report["ok"] else 1


def main(argv):
    if len(argv) >= 5 and argv[0] == "record":
        record(argv[1], argv[2], argv[3], argv[4:])
        return 0
    if len(argv) >= 8 and argv[0] == "ab":
        return ab(*argv[1:7], argv[7:])
    if len(argv) == 2 and argv[0] == "resummarize":
        with open(argv[1]) as f:
            report = json.load(f)
        return write_report(argv[1], summarize(report))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
