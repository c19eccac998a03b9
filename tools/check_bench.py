#!/usr/bin/env python3
"""Compare a fresh BENCH_parallel_step.json against the committed baseline.

Usage:
    cp BENCH_parallel_step.json /tmp/committed.json   # bench overwrites cwd
    ./build/bench/bench_parallel_step
    check_bench.py /tmp/committed.json BENCH_parallel_step.json

Checks, oversubscription-aware (stdlib only):
  * both documents parse and describe the same workload and variant;
  * simulated_cycles and simulated_steps match EXACTLY — the simulated
    machine is deterministic, so any drift is a semantics change, not noise;
  * every run row reports bit_identical (the bench's own cross-thread
    differential passed);
  * both documents cover the same host-thread counts;
  * the fresh 8-thread speedup meets the floor (default 2.0x) when the
    runner actually has >= 8 hardware threads — an oversubscribed row
    measures the host scheduler, not the engine, and is never judged;
  * wall-clock comparison against the committed row only when BOTH rows ran
    non-oversubscribed (committed baselines may come from smaller machines),
    with a generous tolerance since runners differ;
  * the streaming telemetry lane (DESIGN.md §13) is present, bit-identical,
    actually produced a stream, and its best-of-3 wall-clock overhead stays
    within --max-stream-overhead (default 5%).

Exit status 0 on success; 1 with a diagnostic on the first failure.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")
    for key in ("workload", "variant", "simulated_cycles", "simulated_steps",
                "runs"):
        if key not in doc:
            fail(f"{path}: missing '{key}'")
    if not isinstance(doc["runs"], list) or not doc["runs"]:
        fail(f"{path}: empty runs array")
    return doc


def rows_by_threads(doc: dict, path: str) -> dict:
    rows = {}
    for row in doc["runs"]:
        for key in ("host_threads", "wall_clock_s", "speedup",
                    "bit_identical", "oversubscribed"):
            if key not in row:
                fail(f"{path}: run row missing '{key}': {row}")
        rows[row["host_threads"]] = row
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("committed", help="the baseline BENCH_parallel_step.json")
    ap.add_argument("fresh", help="the just-produced BENCH_parallel_step.json")
    ap.add_argument("--tolerance", type=float, default=3.0,
                    help="allowed wall-clock slowdown factor vs the committed "
                         "row when both ran non-oversubscribed (default 3.0; "
                         "runners differ, this catches order-of-magnitude "
                         "regressions only)")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="8-thread speedup floor on non-oversubscribed "
                         "runners (default 2.0)")
    ap.add_argument("--max-stream-overhead", type=float, default=0.05,
                    help="allowed wall-clock overhead of the streaming "
                         "telemetry lane, as a fraction (default 0.05 = 5%%; "
                         "the bus promises near-zero producer-side cost)")
    args = ap.parse_args()

    committed = load(args.committed)
    fresh = load(args.fresh)

    for key in ("workload", "variant"):
        if committed[key] != fresh[key]:
            fail(f"{key} changed: committed {committed[key]!r} vs fresh "
                 f"{fresh[key]!r} — re-baseline BENCH_parallel_step.json "
                 "deliberately if the bench itself changed")

    # The simulated machine is deterministic: cycles and steps are semantics,
    # not performance, and must not move without a re-baseline.
    for key in ("simulated_cycles", "simulated_steps"):
        if committed[key] != fresh[key]:
            fail(f"{key} drifted: committed {committed[key]} vs fresh "
                 f"{fresh[key]} — the simulated schedule changed")

    crows = rows_by_threads(committed, args.committed)
    frows = rows_by_threads(fresh, args.fresh)
    if set(crows) != set(frows):
        fail(f"host-thread coverage changed: committed {sorted(crows)} vs "
             f"fresh {sorted(frows)}")

    for ht, row in sorted(frows.items()):
        if not row["bit_identical"]:
            fail(f"fresh run at {ht} host threads was not bit-identical to "
                 "the single-threaded reference")

    judged = 0
    for ht in sorted(frows):
        c, f = crows[ht], frows[ht]
        if c["oversubscribed"] or f["oversubscribed"]:
            continue  # scheduler noise, not engine performance
        judged += 1
        limit = c["wall_clock_s"] * args.tolerance
        if f["wall_clock_s"] > limit:
            fail(f"{ht}-thread wall clock regressed: {f['wall_clock_s']:.3f}s "
                 f"vs committed {c['wall_clock_s']:.3f}s "
                 f"(tolerance {args.tolerance:.1f}x)")

    # Streaming telemetry lane (DESIGN.md §13): the bus must stay within the
    # overhead budget AND leave the simulated run bit-identical. The block is
    # required — a fresh document without it means the lane silently stopped
    # running, which is itself a regression.
    streaming = fresh.get("streaming")
    if not isinstance(streaming, dict):
        fail(f"{args.fresh}: missing 'streaming' overhead lane")
    for key in ("stream_every", "baseline_wall_clock_s", "wall_clock_s",
                "overhead", "records_pushed", "records_written",
                "dropped_records", "bit_identical", "oversubscribed"):
        if key not in streaming:
            fail(f"{args.fresh}: streaming lane missing '{key}'")
    if not streaming["bit_identical"]:
        fail("streamed run was not bit-identical to the no-stream run")
    if streaming["records_written"] < 2:
        fail("streaming lane wrote fewer than header + run_end — the bus "
             "never produced a stream")
    print(f"check_bench: streaming overhead {streaming['overhead'] * 100:.2f}%"
          f" ({streaming['records_written']} records, "
          f"{streaming['dropped_records']} dropped)")
    if streaming["oversubscribed"]:
        # The sink thread had no spare core: wall clock measured the host
        # scheduler time-slicing two threads on one core, not the
        # producer-side cost — same non-judgment rule as the scaling rows.
        print("check_bench: single-core host; streaming overhead not judged")
    elif streaming["overhead"] > args.max_stream_overhead:
        fail(f"streaming overhead {streaming['overhead'] * 100:.2f}% exceeds "
             f"the {args.max_stream_overhead * 100:.1f}% budget")

    eight = frows.get(8)
    if eight is not None and not eight["oversubscribed"]:
        print(f"check_bench: 8-thread speedup {eight['speedup']:.3f}x")
        if eight["speedup"] < args.min_speedup:
            fail(f"8-thread speedup {eight['speedup']:.3f}x is below the "
                 f"{args.min_speedup:.1f}x floor")
    else:
        hc = eight["hardware_concurrency"] if eight else "?"
        print(f"check_bench: runner has {hc} hardware threads; "
              "8-thread speedup not judged")

    print(f"check_bench: OK ({fresh['simulated_cycles']} simulated cycles, "
          f"{len(frows)} thread counts, {judged} wall-clock rows judged)")


if __name__ == "__main__":
    main()
