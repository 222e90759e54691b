#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree: the
# protocol of /opt/skills/guides/choosing-metrics §8 (alternate which side
# runs first, report medians and quartiles, count pairs won, compare the gap
# between the medians with the parent's own spread; warn when either side's
# own p50_us runs spread too widely to be one population).
#
#   scripts/paired.sh <parent-ref> [--workload W] [--pairs N] [--seconds S] [--seed K] [--scratch DIR]
#
# Both sides are built and run from copies under the scratch directory: the
# parent from `git archive`, the change from the working tree's tracked and
# untracked-but-not-ignored files. Nothing is written inside the repository.
# Python 3 standard library only.
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"
exec python3 - "$repo" "$@" <<'PY'
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

repo = sys.argv[1]
ap = argparse.ArgumentParser(
    prog="scripts/paired.sh",
    description="Alternating parent / change runs of the benchmark, with the statistics a "
    "claimed gain is judged by. Builds both sides offline under --scratch.",
)
ap.add_argument("parent", metavar="parent-ref", help="commit the change is compared against")
ap.add_argument("--workload", default="all", help="a BENCHMARK.json workload, or all (default)")
ap.add_argument("--pairs", type=int, default=10, help="parent / change pairs (default 10)")
ap.add_argument("--seconds", type=float, help="per workload and run (default: BENCHMARK.json run_seconds)")
ap.add_argument("--seed", type=int, default=1, help="workload seed, the same on both sides (default 1)")
ap.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "gstm-paired"),
                help="where the copies, builds and reports go (default: <tmp>/gstm-paired)")
args = ap.parse_args(sys.argv[2:])
if args.pairs < 1:
    ap.error("--pairs must be at least 1")

with open(os.path.join(repo, "BENCHMARK.json")) as f:
    declared = json.load(f)
seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
end_to_end = [m["name"] for m in declared["end_to_end"]]
# A side's own p50_us quartile range, as a share of its median, above which
# the report warns that the side's runs do not look like one population.
SPREAD_WARNING = 0.15


def git(*cmd):
    return subprocess.run(("git", "-C", repo) + cmd, check=True, capture_output=True).stdout


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


sha = git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
scratch = os.path.abspath(args.scratch)
sides = {"parent": fresh_dir(os.path.join(scratch, "parent")),
         "change": fresh_dir(os.path.join(scratch, "change"))}
tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))).extractall(sides["parent"])
listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
for rel in filter(None, listed.split("\0")):
    src = os.path.join(repo, rel)
    if os.path.isfile(src):  # a tracked file deleted in the working tree is gone from the change
        dst = os.path.join(sides["change"], rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)

binaries = {}
for side, root in sides.items():
    # The target directories outlive the copies, so a second invocation
    # rebuilds only what changed (copy2 keeps the modification times).
    target = os.path.join(scratch, "target-" + side)
    print(f"building {side} ({sha[:12] if side == 'parent' else 'working tree'}) ...", flush=True)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "benchmark", "Cargo.toml")],
        check=True, env={**os.environ, "CARGO_TARGET_DIR": target})
    binaries[side] = os.path.join(target, "release", "gstm-benchmark")


def run(side):
    """One benchmark run: {workload: {metric: value}}, and whether every workload verified."""
    out = subprocess.run(
        [binaries[side], "run", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds)],
        cwd=sides[side], capture_output=True, text=True)
    # One "== name ==" header per workload as it runs, then one result line
    # per workload, in the same order, after the last of them.
    lines = out.stdout.splitlines()
    names = [l[3:-3] for l in lines if l.startswith("== ") and l.endswith(" ==")]
    results = [json.loads(l) for l in lines if l.startswith('{"correct"')]
    if not results or len(names) != len(results):
        sys.exit(f"{side}: {len(names)} workloads, {len(results)} result lines\n{out.stdout}\n{out.stderr}")
    ok = out.returncode == 0 and all(r["correct"] and r["failed"] == 0 for r in results)
    found = {name: {k: v["value"] for k, v in r["metrics"].items()}
             for name, r in zip(names, results)}
    return found, ok


runs = {"parent": [], "change": []}
for pair in range(args.pairs):
    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
    for side in order:
        found, ok = run(side)
        runs[side].append(found)
        print(f"pair {pair + 1}/{args.pairs} {side:6} {'ok' if ok else 'FAILED ITS CHECKS'}", flush=True)
        if not ok:
            sys.exit(1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print(f"\nparent {sha[:12]} against the working tree · seed {args.seed} · {seconds} s · "
      f"{args.pairs} pairs, first side alternating · {os.cpu_count()} cores")
for workload in runs["parent"][0]:
    print(f"\n== {workload} ==")
    print(f"  {'metric':42} {'parent median [q1, q3]':>38} {'change median [q1, q3]':>38} "
          f"{'change':>9} {'won':>7}  medians apart by > parent IQR")
    metrics = list(runs["parent"][0][workload])
    identical = 0
    for metric in sorted(metrics, key=lambda m: (m not in end_to_end, metrics.index(m))):
        p = [r[workload][metric] for r in runs["parent"]]
        c = [r[workload].get(metric, float("nan")) for r in runs["change"]]
        if len(set(p + c)) == 1:
            identical += 1
            continue
        sign = -1.0 if better.get(metric, "lower") == "lower" else 1.0
        won = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        lost = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
        moved = f"{100.0 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
        apart = "yes" if abs(cm - pm) > pq3 - pq1 else "no"
        direction = "" if cm == pm else (" (better)" if sign * (cm - pm) > 0 else " (worse)")
        parent_col = f"{pm:.6g} [{pq1:.6g}, {pq3:.6g}]"
        change_col = f"{cm:.6g} [{cq1:.6g}, {cq3:.6g}]"
        print(f"  {metric:42} {parent_col:>38} {change_col:>38} {moved:>9} "
              f"{won:>3}/{won + lost:<3}  {apart}{direction}")
    print(f"  ({identical} metrics read the same in every run of both sides; "
          f"'won' counts pairs the change read better, ties left out)")
    # The placement canary: the same binary's p50_us reads ~30 % lower in a
    # run whose serve threads happen to share a core for a quarter of its
    # slices (EXPERIMENTS.md, measurement notes), so a side whose own runs
    # spread this wide is two populations and its median describes neither.
    for side in ("parent", "change"):
        values = [r[workload]["p50_us"] for r in runs[side] if "p50_us" in r[workload]]
        if values:
            q1, median, q3 = quartiles(values)
            if q3 - q1 > SPREAD_WARNING * abs(median):
                print(f"  warning: {side}'s own p50_us runs spread [{q1:.6g}, {q3:.6g}] around "
                      f"{median:.6g}: a quartile range over {SPREAD_WARNING:.0%} of the median "
                      f"(bimodal thread placement?) - judge this workload pair by pair")
with open(os.path.join(scratch, "runs.json"), "w") as f:
    json.dump({"parent": sha, "seed": args.seed, "seconds": seconds, "runs": runs}, f)
print(f"\nevery run's metrics: {os.path.join(scratch, 'runs.json')}")
PY
