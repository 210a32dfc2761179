#!/usr/bin/env python3
"""Summarize and compare benchmark records against BENCHMARK.json's bounds.

A record is the JSON file perfbench/run.py keeps per run in
.bench_build/records/ (keys: workload, seed, trace, correct, metrics).

    python3 perfbench/compare.py spread RECORD_OR_DIR...
        Per workload and end-to-end metric: run count, median, quartiles
        and the quartile spread as a share of the median. A spread above
        the metric's bound (setup_s exempt) is marked UNSTEADY.

    python3 perfbench/compare.py diff --base RECORD_OR_DIR... --head RECORD_OR_DIR...
        Per workload and metric, the head median against the base median.
        A change worse than the bound is a REGRESSION; when the base spread
        exceeds the bound the pairing is UNRESOLVED unless every head run
        beats every base run. Exit 1 on any regression.

    python3 perfbench/compare.py --self-test
        Runs both commands on the canned records in perfbench/testdata/.

Quartiles are statistics.quantiles(values, n=4), the exclusive method.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
TESTDATA = BENCH_DIR / "testdata"


def load_records(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            record = json.loads(f.read_text())
            if not record.get("trace"):
                records.append(record)
    return records


def by_workload(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def values_of(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r.get("metrics", {})]


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("inf")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def spread_rows(records, spec):
    rows = []
    for workload, runs in sorted(by_workload(records).items()):
        for metric in spec["end_to_end"]:
            values = values_of(runs, metric["name"])
            if not values:
                continue
            s = summarize(values)
            steady = (metric["name"] == "setup_s"
                      or s["spread"] <= metric["bound"])
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "bound": metric["bound"],
                         "steady": steady, **s})
    return rows


def worse_share(metric, base, head):
    """How much worse head is than base, as a share of base (<0 = better)."""
    change = (head - base) / base
    return change if metric["better"] == "lower" else -change


def diff_rows(base_records, head_records, spec):
    rows = []
    base_w = by_workload(base_records)
    head_w = by_workload(head_records)
    for workload in sorted(set(base_w) & set(head_w)):
        for metric in spec["end_to_end"]:
            base = values_of(base_w[workload], metric["name"])
            head = values_of(head_w[workload], metric["name"])
            if not base or not head:
                continue
            b, h = summarize(base), summarize(head)
            worse = worse_share(metric, b["median"], h["median"])
            if metric["better"] == "lower":
                head_wins_all = max(head) < min(base)
            else:
                head_wins_all = min(head) > max(base)
            if worse > metric["bound"]:
                verdict = "REGRESSION"
            elif b["spread"] > metric["bound"] and not head_wins_all:
                verdict = "UNRESOLVED"
            elif head_wins_all and -worse > b["spread"]:
                verdict = "better"
            else:
                verdict = "same"
            rows.append({"workload": workload, "metric": metric["name"],
                         "base": b["median"], "head": h["median"],
                         "worse": worse, "bound": metric["bound"],
                         "verdict": verdict})
    return rows


def print_spread(rows):
    print(f"{'workload':<12} {'metric':<24} {'n':>3} {'median':>12} "
          f"{'spread':>8} {'bound':>6}")
    for r in rows:
        flag = "" if r["steady"] else "  UNSTEADY"
        print(f"{r['workload']:<12} {r['metric']:<24} {r['n']:>3} "
              f"{r['median']:>12.5g} {r['spread']:>8.3f} {r['bound']:>6.2f}"
              f"{flag}")


def print_diff(rows):
    print(f"{'workload':<12} {'metric':<24} {'base':>12} {'head':>12} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<12} {r['metric']:<24} {r['base']:>12.5g} "
              f"{r['head']:>12.5g} {r['worse']:>+8.3f} {r['bound']:>6.2f}  "
              f"{r['verdict']}")


def self_test():
    spec = json.loads((TESTDATA / "spec.json").read_text())
    expected = json.loads((TESTDATA / "expected.json").read_text())
    base = load_records([TESTDATA / "base"])
    head = load_records([TESTDATA / "head"])
    failures = []
    spread = {f"{r['workload']}/{r['metric']}": r["steady"]
              for r in spread_rows(base, spec)}
    if spread != expected["steady"]:
        failures.append(f"steady: got {spread}, want {expected['steady']}")
    verdicts = {f"{r['workload']}/{r['metric']}": r["verdict"]
                for r in diff_rows(base, head, spec)}
    if verdicts != expected["verdicts"]:
        failures.append(f"verdicts: got {verdicts}, "
                        f"want {expected['verdicts']}")
    for failure in failures:
        print(f"self-test FAILED: {failure}")
    if not failures:
        print(f"self-test passed ({len(spread)} spreads, "
              f"{len(verdicts)} verdicts)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true")
    sub = parser.add_subparsers(dest="command")
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("records", nargs="+")
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("--base", nargs="+", required=True)
    p_diff.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    spec = json.loads(SPEC_PATH.read_text())
    if args.command == "spread":
        rows = spread_rows(load_records(args.records), spec)
        print_spread(rows)
        return 0 if all(r["steady"] for r in rows) else 1
    if args.command == "diff":
        rows = diff_rows(load_records(args.base), load_records(args.head),
                         spec)
        print_diff(rows)
        return 1 if any(r["verdict"] == "REGRESSION" for r in rows) else 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
