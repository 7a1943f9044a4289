#!/usr/bin/env python3
"""Build and run the rectpart benchmark.

Run from the root of a rectpart checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0 --repeat 10

The first call builds two binaries from source with cargo: the default
build, which gives every end-to-end number, and an `obs` build with the
program's counters compiled in, used only for the per-layer run
(`--trace 1`). `--trace 1` first repeats the run untraced with the default
build, so the tracing overhead can be reported. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--repeat N` runs seeds N, N+1, ... and prints each metric's
median and quartiles against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VARIANTS = {"plain": [], "obs": ["--features", "obs"]}


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def binary(variant):
    return os.path.join(target_dir(), "perfbench-" + variant, "release", "perfbench")


def build():
    """Builds both variants; returns cargo's exit code on failure, else 0."""
    for variant, features in VARIANTS.items():
        cmd = [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", os.path.join(target_dir(), "perfbench-" + variant),
        ] + features
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
        if code != 0:
            print(f"perfbench: building the {variant} variant failed", file=sys.stderr)
            return code
    return 0


def measure(variant, args, seed, trace, extra=()):
    """Runs one measurement; returns (exit code, stdout text)."""
    cmd = [
        binary(variant), "run",
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--work-dir", os.path.join(ROOT, ".bench_work"),
    ] + list(extra)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def result(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def one_run(args, seed):
    """One run as the benchmark command makes it; returns (exit code, stdout text)."""
    code, out = measure("plain", args, seed, 0)
    if args.trace == 0 or code != 0:
        return code, out
    # The per-layer run: report the untraced run beside it, on stderr.
    sys.stderr.write(out)
    untraced = result(out)["metrics"]["ops_per_norm_s"]["value"]
    return measure("obs", args, seed, 1, ["--untraced-ops-per-norm-s", repr(untraced)])


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def repeat(args):
    values, failed = {}, 0
    for k in range(args.repeat):
        seed = args.seed + k
        code, out = one_run(args, seed)
        res = result(out) if code == 0 else None
        if res is None:
            failed += 1
            sys.stderr.write(out)
            print(f"seed {seed}: exit {code}")
            continue
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()))
        sys.stdout.flush()
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    limit = bounds()
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, (unit, xs) in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = limit.get(name)
        mark = ""
        if bound is not None:
            mark = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6} {mark} {unit}")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--repeat", type=int, default=0,
                   help="run seeds SEED..SEED+N-1 and print medians and quartiles")
    args = p.parse_args()
    code = build()
    if code != 0:
        return code
    if args.repeat:
        return repeat(args)
    code, out = one_run(args, args.seed)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
