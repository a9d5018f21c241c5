"""Fold the saved perfbench runs of one change into a BENCH_<label>.json
trajectory point at the repository root.

    python3 tools/bench_trajectory.py --label LABEL \\
        --parent runs/parent-*.out --change runs/change-*.out

Each input file holds the standard output of one untraced
``perfbench/run.py`` run, whose record line and metrics line are JSON.  Runs
are paired by workload and seed, one run per side.  Per workload and
end-to-end metric the output gives each side's median, inclusive quartiles,
min, max and run count, the relative change of the median, and the number of
pairs in which the change reads lower; per workload the seeds, the failure
counts and whether the verdict digests agree; and the commits and the host
the runs were made on.

For each metric that ``BENCHMARK.json`` gates (read, never written) it also
gives the metric's ``better`` direction and ``bound``, ``within_bound`` (the
change median is worse than the parent median by at most ``bound`` of it) and
``gain_shown`` (at least ten pairs were run, the change reads better in at
least nine tenths of them, ties counting for neither, its median is better by
more than the parent's q3 - q1, and its runs of the workload fail no more
operations in all than the parent's).  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Provenance that must be the same in every run for the sides to compare.
HOST_FIELDS = ("nproc", "affinity_cpus", "python", "numpy", "blas", "threads",
               "host_note")
# Fewest same-seed pairs a gain can be shown on: with fewer, one lost pair
# decides the nine-tenths rule.
MIN_GAIN_PAIRS = 10


def read_run(path) -> dict:
    """Record, metric values and failure count of one saved run."""
    record = result = None
    for line in Path(path).read_text().splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "record" in doc:
            record = doc["record"]
        elif isinstance(doc, dict) and "metrics" in doc:
            result = doc
    if record is None or result is None:
        raise ValueError(f"{path}: no record line and metrics line")
    if record["trace"]:
        raise ValueError(f"{path}: a traced run; end-to-end metrics come "
                         "from untraced runs")
    return {"record": record, "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "min": vals[0], "max": vals[-1], "n": len(vals)}


def read_gate() -> dict[str, tuple[str, float]]:
    """{metric: (better, bound)} for the end-to-end metrics that
    BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def judge(par: list[float], chg: list[float], ps: dict, cs: dict,
          more_failed: bool, better: str, bound: float) -> dict:
    """The gate's reading of one metric over same-seed pairs; no gain shows
    on fewer than MIN_GAIN_PAIRS pairs, nor on a workload where the change
    fails more operations than the parent."""
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (ps["median"] - cs["median"])
    wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
    return {"better": better, "bound": bound,
            "within_bound": -gain <= bound * abs(ps["median"]),
            "gain_shown": len(par) >= MIN_GAIN_PAIRS
                          and 10 * wins >= 9 * len(par)
                          and gain > ps["q3"] - ps["q1"] and not more_failed}


def _same(runs: list[dict], what: str, get):
    values = {json.dumps(get(r), sort_keys=True) for r in runs}
    if len(values) != 1:
        raise ValueError(f"runs differ in {what}: {', '.join(sorted(values))}")
    return get(runs[0])


def summarize(runs: dict[str, list[dict]],
              gate: dict[str, tuple[str, float]]) -> dict:
    """The trajectory point for runs {"parent": [...], "change": [...]},
    judged by ``gate`` as read_gate returns it."""
    everything = runs["parent"] + runs["change"]
    if not runs["parent"] or not runs["change"]:
        raise ValueError("need runs of both sides")
    seconds = _same(everything, "run length", lambda r: r["record"]["seconds"])
    prov = _same(everything, "host", lambda r: {
        f: r["record"]["provenance"][f] for f in HOST_FIELDS})
    keyed = {side: {} for side in SIDES}
    for side in SIDES:
        for run in runs[side]:
            key = (run["record"]["workload"], run["record"]["provenance"]["seed"])
            if key in keyed[side]:
                raise ValueError(f"two {side} runs of {key[0]} at seed {key[1]}")
            keyed[side][key] = run
    unpaired = keyed["parent"].keys() ^ keyed["change"].keys()
    if unpaired:
        raise ValueError(f"runs without a partner: {sorted(unpaired)}")

    workloads = {}
    for name in dict.fromkeys(w for w, _ in keyed["parent"]):
        seeds = sorted(s for w, s in keyed["parent"] if w == name)
        pairs = [(keyed["parent"][name, s], keyed["change"][name, s])
                 for s in seeds]
        metric_names = _same([r for pair in pairs for r in pair],
                             f"{name} metrics", lambda r: sorted(r["metrics"]))
        failed = {side: [pair[i]["failed"] for pair in pairs]
                  for i, side in enumerate(SIDES)}
        more_failed = sum(failed["change"]) > sum(failed["parent"])
        metrics = {}
        for metric in metric_names:
            par = [p["metrics"][metric] for p, _ in pairs]
            chg = [c["metrics"][metric] for _, c in pairs]
            ps, cs = spread(par), spread(chg)
            metrics[metric] = {
                "parent": ps, "change": cs,
                "delta_median": (cs["median"] - ps["median"]) / ps["median"],
                "change_lower_pairs": sum(c < p for p, c in zip(par, chg)),
                "pairs": len(pairs)}
            if metric in gate:
                metrics[metric].update(judge(par, chg, ps, cs, more_failed,
                                             *gate[metric]))
        workloads[name] = {
            "seeds": seeds, "metrics": metrics, "failed": failed,
            "verdict_digests_match": all(
                p["record"]["verdict_digest"] == c["record"]["verdict_digest"]
                for p, c in pairs)}

    commits = {side: sorted({r["record"]["provenance"]["git_commit"]
                             for r in runs[side]}) for side in SIDES}
    commits = {side: c[0] if len(c) == 1 else c for side, c in commits.items()}
    if commits["change"] == commits["parent"]:
        commits["change"] = f"uncommitted working tree over {commits['parent']}"
    return {
        "what": f"perfbench end-to-end metrics, untraced {seconds:g} s runs, "
                "parent and change paired by seed",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "stats": "median, q1/q3 (inclusive quartiles) and min/max over the "
                 "runs of one side; delta_median is (change - parent) / "
                 "parent; change_lower_pairs counts same-seed pairs where the "
                 "change reads lower; better and bound are BENCHMARK.json's; "
                 "within_bound: the change median is worse than the parent "
                 "median by at most bound of it; gain_shown: at least "
                 f"{MIN_GAIN_PAIRS} pairs were run, the change reads better "
                 "in at least 9/10 of them (ties count for neither), its "
                 "median by more than the parent's q3 - q1, and its runs of "
                 "the workload fail no more operations in all than the "
                 "parent's",
        "commits": commits,
        "host": {"nproc": prov["nproc"], "affinity_cpus": prov["affinity_cpus"],
                 "python": prov["python"], "numpy": prov["numpy"],
                 "blas": prov["blas"], "blas_threads": prov["threads"],
                 "note": prov["host_note"]},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output BENCH_<label>.json")
    parser.add_argument("--parent", nargs="+", required=True,
                        help="saved outputs of runs on the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="saved outputs of runs on the change")
    parser.add_argument("--out", type=Path,
                        help="output path (default: BENCH_<label>.json at the "
                             "repository root)")
    args = parser.parse_args(argv)
    try:
        doc = summarize({"parent": [read_run(p) for p in args.parent],
                         "change": [read_run(p) for p in args.change]},
                        read_gate())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: a run output lacks the field {exc}", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, **doc}, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
