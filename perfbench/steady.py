#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload of BENCHMARK.json in two interleaved sets (A and B) on
one build, one run of run_seconds per seed 1..10 in each set, and prints for
every workload and end-to-end metric each set's median and quartiles, the
spread (quartile distance over the median) and how far B's median moved from
A's, against the metric's bound. The order within each seed alternates (A
then B, then B then A) so slow drift of the machine hits both sets alike.

Usage (from the repository root):

    python3 perfbench/steady.py [--out report.txt]

A spread above its bound or a move of either sign larger than the bound is
marked FAIL; a spread above a third of its bound is marked "wide". The
spread of setup_s is shown but exempt: setup_s is the median of a few
set-ups at the start of a run, each as long as a single run or a few, so it
takes the host's speed at that moment, and on a host whose speed changes
for seconds at a time it cannot be steadier than the host. Its move between
the sets is checked like every other metric's. The exit code is 1 when
anything failed.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = 10


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="", help="also write the report here")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {(w, s, m["name"]): [] for w in workloads for s in "AB"
              for m in metrics}
    failed = {(w, s): 0 for w in workloads for s in "AB"}
    for seed in range(1, SEEDS + 1):
        order = "AB" if seed % 2 else "BA"
        for w in workloads:
            for s in order:
                result = run_once(bench["command"], w, seed, seconds)
                failed[(w, s)] += result["failed"]
                for m in metrics:
                    values[(w, s, m["name"])].append(
                        result["metrics"][m["name"]]["value"])
                print("%s set %s seed %d: %s" % (
                    w, s, seed, " ".join(
                        "%s=%.6g" % (m["name"],
                                     result["metrics"][m["name"]]["value"])
                        for m in metrics)), file=sys.stderr, flush=True)

    out = ["steadiness: seeds 1..%d, %d s runs, sets A/B interleaved" %
           (SEEDS, seconds)]
    bad = False
    for w in workloads:
        out.append("")
        out.append("%s (failed runs: A %d, B %d)" % (w, failed[(w, "A")],
                                                      failed[(w, "B")]))
        out.append("  %-16s %5s  %-32s %-32s %8s  %s" % (
            "metric", "bound", "A median [q1, q3] spread",
            "B median [q1, q3] spread", "B vs A", "verdict"))
        bad |= failed[(w, "A")] + failed[(w, "B")] > 0
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sa = summarize(values[(w, "A", name)])
            sb = summarize(values[(w, "B", name)])
            moved = sb[1] / sa[1] - 1
            notes = []
            for label, s in (("A", sa), ("B", sb)):
                if s[3] > bound and name == "setup_s":
                    notes.append("over bound %s (exempt)" % label)
                elif s[3] > bound:
                    notes.append("FAIL spread %s" % label)
                elif s[3] > bound / 3:
                    notes.append("wide %s" % label)
            if abs(moved) > bound:
                notes.append("FAIL moved")
            bad |= any(n.startswith("FAIL") for n in notes)
            fmt = "%.4g [%.4g, %.4g] %.1f%%"
            out.append("  %-16s %5.2f  %-32s %-32s %+7.1f%%  %s" % (
                name, bound, fmt % (sa[1], sa[0], sa[2], 100 * sa[3]),
                fmt % (sb[1], sb[0], sb[2], 100 * sb[3]), 100 * moved,
                ", ".join(notes) or "ok"))
    text = "\n".join(out) + "\n"
    print(text, end="")
    if opts.out:
        with open(opts.out, "w") as f:
            f.write(text)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
