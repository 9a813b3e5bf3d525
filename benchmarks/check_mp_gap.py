"""Assert the multiprocess vectorized speedup has not regressed.

Compares a freshly produced ``BENCH_kernels.json`` (the *after* report)
against committed floor values: the multiprocess generic-vs-vectorized
speedup for SSSP and CC must stay at or above the floors, and every
cross-check must have passed.  CI runs this after the bench-smoke step so
a transport or runtime change that silently slows the fast path fails
the build instead of shipping::

    python benchmarks/check_mp_gap.py --report BENCH_kernels.json

The default floors are ~60 % of the medians of ten runs at the commit
that last refreshed ``BENCH_kernels.json`` (SSSP 12.96x, CC 8.2x on
powerlaw:40000, 4 fragments, AP): a ratio of two wall times of an
asynchronous schedule spreads widely (SSSP 11.8x-20.4x over those ten
runs), so the floor sits under the spread and still well above the
seed's 5.6x / 3.3x.  Move them when a change moves the medians.
``--baseline`` points
at a *before* report (e.g. the committed BENCH_kernels.json) purely for
the printed comparison — the assertion is always against the floors, so
machine-speed drift between the two runs cannot flip the verdict.

PageRank is not gated, but its vectorized wall seconds are printed per
runtime next to the ratios, so a kernel change has a committed absolute
number to compare against.
"""

import argparse
import json
import sys


def _mp_speedups(report):
    out = {}
    for row in report.get("results", []):
        if row.get("runtime") == "multiprocess":
            out[row["algorithm"]] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default="BENCH_kernels.json",
                        help="freshly generated kernel bench report")
    parser.add_argument("--baseline", default=None,
                        help="optional before-report for the printed "
                             "comparison (no effect on the verdict)")
    parser.add_argument("--min-sssp", type=float, default=7.8,
                        help="minimum multiprocess SSSP speedup")
    parser.add_argument("--min-cc", type=float, default=4.9,
                        help="minimum multiprocess CC speedup")
    args = parser.parse_args(argv)

    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    rows = _mp_speedups(report)
    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    baseline_rows = _mp_speedups(baseline)

    floors = {"sssp": args.min_sssp, "cc": args.min_cc}
    failures = []
    for algorithm, floor in floors.items():
        row = rows.get(algorithm)
        if row is None:
            failures.append(f"{algorithm}: no multiprocess row in "
                            f"{args.report}")
            continue
        speedup = row["speedup"]
        before = baseline_rows.get(algorithm, {}).get("speedup")
        drift = (f" (baseline {before}x)" if before is not None else "")
        status = "ok" if speedup >= floor and row["match"] else "FAIL"
        print(f"{algorithm}: multiprocess vectorized speedup "
              f"{speedup}x, floor {floor}x{drift} [{status}]")
        if not row["match"]:
            failures.append(f"{algorithm}: generic/vectorized answers "
                            f"diverged (max_diff={row['max_diff']})")
        if speedup < floor:
            failures.append(f"{algorithm}: speedup {speedup}x below "
                            f"floor {floor}x")

    # printed, not gated: the absolute number the next kernel change
    # compares against (a ratio hides which side of it moved)
    def pagerank_seconds(rep):
        return {row["runtime"]: row["vectorized_s"]
                for row in rep.get("results", [])
                if row.get("algorithm") == "pagerank"}

    before = pagerank_seconds(baseline)
    for runtime, seconds in pagerank_seconds(report).items():
        drift = (f" (baseline {before[runtime]} s)" if runtime in before
                 else "")
        print(f"pagerank: {runtime} vectorized {seconds} s{drift}")

    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
