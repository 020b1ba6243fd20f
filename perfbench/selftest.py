#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it builds through run.py. Every
workload runs twice on one short seed with a fixed op count, and the test
checks that

* the generated job/request mix is identical across the two runs, and
  every output check passes;
* plan_cold's per-job plan digests and search.configs_explored repeat
  exactly, and so do search.dp_states and estimator.calls at
  search_threads = 1 (with more sweep threads, concurrent misses on one
  cache entry may both be computed, so those two can differ slightly);
* plan_cold's plan digests at search_threads = 1 equal those at
  min(4, nproc).

Prints one line per check and exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

SEED = 7
OPS = {"plan_cold": 40, "serve_zipf": 400, "serve_calibrate": 400}
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RECORD_PREFIX = "perfbench-record "


def run(workload, search_threads=0):
    """Runs one fixed-size workload; returns (record, result line)."""
    command = [sys.executable, RUN_PY, "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", "0",
               "--ops", str(OPS[workload])]
    if search_threads:
        command += ["--search-threads", str(search_threads)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run exited with {done.returncode}")
    lines = done.stdout.splitlines()
    record = next(json.loads(line[len(RECORD_PREFIX):])
                  for line in lines if line.startswith(RECORD_PREFIX))
    return record, json.loads(lines[-1])


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in OPS:
        first, first_result = run(workload)
        second, second_result = run(workload)
        check(first_result["correct"] and second_result["correct"],
              f"{workload}: every output check passes")
        check(first["run"]["mix_digest"] == second["run"]["mix_digest"],
              f"{workload}: the generated mix repeats")
        if workload != "plan_cold":
            continue
        check(first["plan_digests"] == second["plan_digests"],
              "plan_cold: plan digests repeat")
        check(first["counters"]["search.configs_explored"] ==
              second["counters"]["search.configs_explored"],
              "plan_cold: search.configs_explored repeats")
        # With several sweep threads, two threads can miss the same cost or
        # frontier entry at once and both compute it, so estimator.calls and
        # search.dp_states repeat exactly only on one thread.
        serial, _ = run(workload, search_threads=1)
        serial_again, _ = run(workload, search_threads=1)
        check(serial["counters"] == serial_again["counters"],
              "plan_cold: deterministic counters repeat at search_threads=1 "
              f"({serial['counters']})")
        check(serial["plan_digests"] == first["plan_digests"],
              "plan_cold: plan digests at search_threads=1 equal those at "
              "min(4, nproc)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
