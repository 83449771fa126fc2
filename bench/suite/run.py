#!/usr/bin/env python3
"""Build bench_suite from source, run it, and check its metric names.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/suite/run.py --smoke
    python3 bench/suite/run.py --self-test

Run from anywhere; paths resolve from this file. Arguments go to the
bench_suite binary unchanged (bench_suite.cpp documents them), plus
--trace-dir .bench_build/traces so a traced run leaves its Chrome trace
there. The build lives in .bench_build/bench_suite at the repository root
and is reused when nothing changed. The binary's output is passed through;
when BENCHMARK.json is present, the metrics of the final JSON line must
match the names and units it lists, or the run fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "bench_suite")


def build():
    os.makedirs(OUT, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(OUT, "bench_suite_build.log")
    with open(log_path, "w") as log:
        for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: building bench_suite failed\n")
                return False
    return True


def check_metric_names(last_line, trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(last_line)["metrics"].items()}
    if got != want:
        sys.stderr.write("run.py: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}\n")
        return False
    return True


def main(args):
    if not build():
        return 1
    binary = os.path.join(BUILD, "bench_suite")
    run = subprocess.run(
        [binary] + args + ["--trace-dir", os.path.join(OUT, "traces")],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    single_run = "--workload" in args and run.returncode == 0
    if single_run:
        trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
        lines = run.stdout.strip().splitlines()
        if not lines or not check_metric_names(lines[-1], trace):
            return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
