#!/usr/bin/env python3
"""Build and run the perfbench benchmark; print one JSON result line.

    python3 perfbench/run.py --workload <dist|serve|wire|update> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is compiled from source with
cargo into $CARGO_TARGET_DIR (default: .bench_build). With --trace 0 the
result carries the end-to-end metrics. With --trace 1 it carries the
per-layer metrics of a traced run, plus `trace_overhead.<metric>`: the
traced run's value of each end-to-end metric minus that of an untraced
run made just before it. The exit code is non-zero when the build fails
or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def measure(binary, args, trace, extra):
    """Run the benchmark binary once; returns its parsed result line."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: no result (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["dist", "serve", "wire", "update"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    binary = build()
    if args.trace == 0:
        runs = [measure(binary, args, 0, extra)]
        metrics = runs[0]["e2e"]
    else:
        plain = measure(binary, args, 0, extra)
        traced = measure(binary, args, 1, extra)
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        for name, m in plain["e2e"].items():
            metrics["trace_overhead." + name] = {
                "value": traced["e2e"][name]["value"] - m["value"],
                "unit": m["unit"],
            }
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    sys.exit(max(r["exit_code"] for r in runs))


if __name__ == "__main__":
    main()
