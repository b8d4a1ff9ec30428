#!/usr/bin/env python3
"""Gate: batched writes must keep their pfence amortization.

Usage: check_fence_coalescing.py BENCH_ycsb_kv.json

For every batched row (batch > 1) of the write mixes A and F in the
multi-op sweep, asserts the deterministic kSimLatency/kNoOp-backend
invariant

    pfences/op  <=  (scalar pfences/op) / batch  +  EPSILON

where the scalar baseline is the batch=1 row of the same
(words, layout, mix): one op per call, which the store runs as a batch
of one (~1.5 pfences/op for A, ~2 for F). The bound is what the
coalesced write path guarantees by construction — one record fence plus
one publish fence per multi_put and one completion fence per multi_get,
whatever the batch size — so a batched path that fenced per element
again (~1.5-2 pfences/op, against a bound of ~0.9-1.0 at batch 4) fails
loudly while run-to-run noise (CAS retries, flush-if-tagged helping)
stays inside EPSILON.

Exit 1 on any violation or if no batched write rows are found (an empty
gate would pass vacuously).
"""

import json
import sys

EPSILON = 0.5
WRITE_MIXES = {"A", "F"}


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        data = json.load(f)
    rows = data.get("rows", [])

    scalar = {}
    for r in rows:
        if r.get("batch", 1) == 1:
            # Last batch=1 row wins; the batched sweep's own baseline rows
            # come after the scalar sweep's, and either is a valid basis.
            scalar[(r["words"], r.get("layout", ""), r["mix"])] = r

    checked = 0
    failures = []
    for r in rows:
        batch = r.get("batch", 1)
        if batch <= 1 or r["mix"] not in WRITE_MIXES:
            continue
        k = (r["words"], r.get("layout", ""), r["mix"])
        base = scalar.get(k)
        if base is None:
            failures.append(f"no batch=1 baseline for {k}")
            continue
        bound = base["pfences_per_op"] / batch + EPSILON
        ok = r["pfences_per_op"] <= bound
        checked += 1
        status = "ok " if ok else "FAIL"
        print(f"{status} {k[0]:<12} {k[1]:<8} {k[2]} batch={batch:<3} "
              f"pfences/op={r['pfences_per_op']:.3f} "
              f"<= {base['pfences_per_op']:.3f}/{batch} + {EPSILON} "
              f"= {bound:.3f}")
        if not ok:
            failures.append(
                f"{k} batch={batch}: pfences/op={r['pfences_per_op']:.3f} "
                f"> {bound:.3f} — the fence coalescing regressed")

    if checked == 0:
        failures.append("no batched write-mix rows found; gate is vacuous")
    if failures:
        print("\nfence-coalescing gate FAILED:")
        for msg in failures:
            print(f"  {msg}")
        return 1
    print(f"\nfence-coalescing gate OK ({checked} rows checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
