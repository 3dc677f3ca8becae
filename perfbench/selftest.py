#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. `cargo test` of the benchmark crate: seeded inputs reproduce, the
   percentile helper enforces the ten-beyond rule and reports n, metric
   names match `[A-Za-z0-9_.-]+`, the command line parses.
2. BENCHMARK.json is well formed.
3. Every workload, run briefly, emits exactly the metrics BENCHMARK.json
   names: the end-to-end ones untraced, the per-layer ones traced, each
   with its declared unit, with correct outputs.
4. The same seed reproduces the same escalation count.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload {w}")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"metric {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"metric {m}")
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    for n in names:
        check(NAME.match(n) is not None, f"name {n!r}")
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s present")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds")
    return bench


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(out.returncode == 0, f"{workload} trace {trace} exited {out.returncode}: "
          f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def frac_big_check(workload, seed):
    with open(os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-plain.json")) as f:
        return json.load(f)["frac_big_check"]


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "test")
    test = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                          cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target))
    check(test.returncode == 0, "cargo test of the benchmark crate")

    bench = load_benchmark()
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(name, 1, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace {trace} outputs are correct")
            check(result["attempted"] >= 1, f"{name} attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            check(set(got) == set(want),
                  f"{name} trace {trace}: missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}")
            check(got == want, f"{name} trace {trace}: units {got} != {want}")
            for k, v in result["metrics"].items():
                check(isinstance(v["value"], (int, float)), f"{name} {k} is a number")
        first = frac_big_check(name, 1)
        run(name, 1, 0)
        check(frac_big_check(name, 1) == first, f"{name}: seed 1 repeats its escalations")
        print(f"ok: {name}")
    print("selftest passed")


if __name__ == "__main__":
    main()
