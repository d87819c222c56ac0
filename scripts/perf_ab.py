#!/usr/bin/env python3
"""Same-runner A/B performance gate over the repository benchmark.

Runs two builds of the benchmark binary (``perfbench``, see
``perfbench/README.md``), a base and a head, on one host and compares
them. Everything the comparison needs comes from ``BENCHMARK.json``:
the workloads, the seconds per run, the end-to-end metrics with their
``better`` direction and ``bound``.

For every workload it runs ``PAIRS`` pairs. Both runs of a pair use the
same seed, and the order alternates from pair to pair (base first,
then head first, ...), so slow drift of the host hits both sides
alike. The gate fails when, on any workload:

  * the head's median of an end-to-end metric is worse than the base's
    median by more than that metric's bound;
  * a metric is missing from a run on either side;
  * the head's share of failed operations is larger than the base's;
  * more head runs than base runs report ``correct: false``;
  * a run exits non-zero or prints no result line.

Each failure line names the workload, the metric, both medians, the
delta in percent and the base's own min..max spread.

Usage:

  scripts/perf_ab.py BASE_BIN HEAD_BIN > perf_ab.jsonl
  scripts/perf_ab.py --self-test

Standard output carries one JSON line per run (workload, side, pair,
seed, wall seconds and the run's own final JSON line): a trend log of
the runner. Progress, the comparison table and the verdict go to
standard error. Exit status: 0 pass, 1 gate failure, 2 bad usage.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time

PAIRS = 3
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
SIDES = ("base", "head")


def load_spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def parse_result(stdout):
    """The final JSON line of one benchmark run, as a dict."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    doc = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in doc:
            raise ValueError(f"result line has no {key!r}: {lines[-1]}")
    return doc


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        raise RuntimeError(f"exit {proc.returncode}: " + " | ".join(tail))
    return parse_result(proc.stdout)


def fmt(v):
    return f"{v:.4g}"


def delta_pct(base, head):
    """Signed change of head over base, percent."""
    if base == 0:
        return 0.0 if head == 0 else math.copysign(math.inf, head)
    return (head / base - 1.0) * 100.0


def worse_pct(better, base, head):
    """How much worse head is than base, percent (negative when better)."""
    d = delta_pct(base, head)
    return d if better == "lower" else -d


def compare(spec, results):
    """Compares base and head runs.

    ``results`` maps workload -> side -> list of result dicts (a dict
    with an ``error`` key stands for a run that produced none). Returns
    ``(rows, failures)``: one table row per (workload, metric) and one
    line per failure.
    """
    rows, failures = [], []
    for w in (wl["name"] for wl in spec["workloads"]):
        runs = results[w]
        bad = [(s, r["error"]) for s in SIDES for r in runs[s] if "error" in r]
        for side, err in bad:
            failures.append(f"FAIL {w} run: a {side} run produced no result (delta n/a): {err}")
        if bad:
            continue
        base, head = runs["base"], runs["head"]

        for m in spec["end_to_end"]:
            name, unit, better, bound = m["name"], m["unit"], m["better"], m["bound"]
            missing = [s for s in SIDES for r in runs[s] if name not in r["metrics"]]
            if missing:
                failures.append(
                    f"FAIL {w} {name}: missing from {len(missing)} run(s) on "
                    f"{'/'.join(sorted(set(missing)))} (delta n/a)")
                continue
            b = [r["metrics"][name]["value"] for r in base]
            h = [r["metrics"][name]["value"] for r in head]
            bm, hm = statistics.median(b), statistics.median(h)
            d = delta_pct(bm, hm)
            spread = (max(b) - min(b)) / bm * 100 if bm else 0.0
            verdict = "ok"
            line = (f"{w} {name}: head median {fmt(hm)} vs base median {fmt(bm)} {unit} "
                    f"(delta {d:+.1f}%, bound {bound * 100:.0f}%, {better} is better); "
                    f"base spread {fmt(min(b))}..{fmt(max(b))} ({spread:.1f}% of its median)")
            if worse_pct(better, bm, hm) > bound * 100:
                verdict = "FAIL"
                failures.append("FAIL " + line)
            rows.append((w, name, bm, hm, d, spread, verdict))

        share = {}
        for s in SIDES:
            failed = sum(r["failed"] for r in runs[s])
            attempted = sum(r["attempted"] for r in runs[s])
            share[s] = (failed, attempted, failed / attempted if attempted else 0.0)
        (bf, ba, bs), (hf, ha, hs) = share["base"], share["head"]
        if hs > bs:
            failures.append(
                f"FAIL {w} failed_share: head {hf}/{ha} ({hs:.4%}) vs base {bf}/{ba} "
                f"({bs:.4%}) (delta {(hs - bs) * 100:+.4f} points)")
        wrong = {s: sum(1 for r in runs[s] if not r["correct"]) for s in SIDES}
        if wrong["head"] > wrong["base"]:
            failures.append(
                f"FAIL {w} correct: {wrong['head']} of {len(head)} head runs report "
                f"correct: false vs {wrong['base']} of {len(base)} base runs "
                f"(delta {wrong['head'] - wrong['base']:+d} runs)")
    return rows, failures


def run_ab(spec, base_bin, head_bin):
    seconds = spec["run_seconds"]
    bins = {"base": base_bin, "head": head_bin}
    results = {}
    total = len(spec["workloads"]) * PAIRS * 2
    done = 0
    for wl in spec["workloads"]:
        w = wl["name"]
        results[w] = {s: [] for s in SIDES}
        for pair in range(PAIRS):
            seed = pair + 1
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                done += 1
                t0 = time.monotonic()
                try:
                    doc = run_once(bins[side], w, seed, seconds)
                except (RuntimeError, ValueError) as e:
                    doc = {"error": str(e)}
                wall = time.monotonic() - t0
                results[w][side].append(doc)
                print(json.dumps({"workload": w, "side": side, "pair": pair, "seed": seed,
                                  "wall_s": round(wall, 3), "result": doc}), flush=True)
                shown = doc.get("error") or " ".join(
                    f"{k}={fmt(v['value'])}" for k, v in doc["metrics"].items())
                print(f"[{done}/{total}] {w} pair {pair} seed {seed} {side} ({wall:.1f} s): {shown}",
                      file=sys.stderr, flush=True)
    return results


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3 or any(a.startswith("-") for a in argv[1:]):
        print("usage: perf_ab.py BASE_BIN HEAD_BIN   |   perf_ab.py --self-test", file=sys.stderr)
        return 2
    for path in argv[1:]:
        if not os.access(path, os.X_OK):
            print(f"perf_ab: {path} is not an executable", file=sys.stderr)
            return 2
    spec = load_spec()
    t0 = time.monotonic()
    results = run_ab(spec, argv[1], argv[2])
    rows, failures = compare(spec, results)
    wall = time.monotonic() - t0

    err = sys.stderr
    print(f"\n{'workload':<14} {'metric':<17} {'base':>11} {'head':>11} {'delta':>8} "
          f"{'base spread':>11}  verdict", file=err)
    for w, name, bm, hm, d, spread, verdict in rows:
        print(f"{w:<14} {name:<17} {fmt(bm):>11} {fmt(hm):>11} {d:>+7.1f}% {spread:>10.1f}%  "
              f"{verdict}", file=err)
    for line in failures:
        print(line, file=err)
    if rows:
        w, name, _, _, d, _, _ = max(rows, key=lambda r: abs(r[4]))
        print(f"largest |delta|: {abs(d):.1f}% ({w} {name})", file=err)
    verdict = "FAIL" if failures else "PASS"
    print(f"perf A/B {verdict}: {len(rows)} comparisons, {len(failures)} failure(s), "
          f"{PAIRS} pairs per workload, {wall:.0f} s", file=err)
    return 1 if failures else 0


# --- self-test ---------------------------------------------------------------


def self_test():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]
    checks = 0

    def line(jitter, scale=None, failed=0, correct=True, drop=()):
        scale = scale or {}
        metrics = {n: {"value": 100.0 * jitter * scale.get(n, 1.0), "unit": "x"}
                   for n in names if n not in drop}
        doc = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
        # Through the same parser real runs go through.
        return parse_result("human-readable line\n" + json.dumps(doc) + "\n")

    def results(where=None, **head):
        out = {}
        for w in workloads:
            kw = head if w == where else {}
            out[w] = {"base": [line(j) for j in (1.0, 0.98, 1.03)],
                      "head": [line(j, **kw) for j in (1.02, 0.99, 1.0)]}
        return out

    def expect(label, res, fail_words=None):
        nonlocal checks
        _, failures = compare(spec, res)
        if fail_words is None:
            ok = not failures
        else:
            ok = len(failures) == 1 and all(word in failures[0] for word in fail_words)
        if not ok:
            raise SystemExit(f"perf_ab self-test: {label}: got {failures}")
        checks += 1

    expect("A/A passes", results())
    expect("higher-is-better 30% down fails", results("wisync_sync", scale={"sim_instr_per_s": 0.7}),
           ["wisync_sync", "sim_instr_per_s", "-30.0%", "base spread"])
    expect("lower-is-better 30% up fails", results("compute_apps", scale={"op_ms_p90": 1.3}),
           ["compute_apps", "op_ms_p90", "+30.0%", "base spread"])
    expect("20% moves pass", results("baseline_sync", scale={"sim_events_per_s": 0.8, "setup_s": 1.2}))
    expect("improvements pass", results("baseline_sync", scale={"sim_instr_per_s": 1.5, "peak_rss_mb": 0.5}))
    expect("a larger failed share fails", results("serve_mix", failed=1),
           ["serve_mix", "failed_share", "delta"])
    expect("correct: false fails", results("lossy_mac_obs", correct=False),
           ["lossy_mac_obs", "correct", "delta"])
    expect("a metric missing on head fails", results("lossy_mac_obs", drop=("peak_rss_mb",)),
           ["lossy_mac_obs", "peak_rss_mb", "missing", "delta"])
    res = results()
    del res["serve_mix"]["base"][1]["metrics"]["setup_s"]
    expect("a metric missing on base fails", res, ["serve_mix", "setup_s", "missing", "delta"])
    res = results()
    res["compute_apps"]["head"][0] = {"error": "exit 101"}
    expect("a crashed run fails", res, ["compute_apps", "head", "exit 101"])

    print(f"perf_ab self-test: {checks} cases OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
