#!/usr/bin/env python3
"""Gate: batched writes keep their pfence amortization, and FliT fences
only when a write-back is outstanding.

Usage: check_fence_coalescing.py BENCH_ycsb_kv.json
       check_fence_coalescing.py --self-test

Three deterministic kSimLatency/kNoOp-backend invariants of the YCSB
sweep:

1. Write coalescing. For every batched row (batch > 1) of the write mixes
   A and F in the multi-op sweep,

       pfences/op  <=  (scalar pfences/op) / batch  +  EPSILON

   where the scalar baseline is the batch=1 row of the same
   (words, layout, mix): one op per call, which the store runs as a batch
   of one (~1.0 pfences/op for A and F: an overwrite's two fences, reads
   none). The bound is what the coalesced write path guarantees by
   construction — one record fence plus one publish fence per multi_put,
   whatever the batch size — so a batched path that fenced per element
   again fails loudly while run-to-run noise (CAS retries,
   flush-if-tagged helping) stays inside EPSILON.

2. No empty fences. Every flit-* row has empty_pfences/op <= EMPTY_MAX.
   The Condition-4 and completion fences are dependency fences
   (pmem::pfence_if_pending): issued only when the thread has a pwb
   outstanding, so a fence that completes nothing is a regression.

3. Reads fence nothing. Every flit-* row of the read-only mix C has
   pfences/op <= EMPTY_MAX: FliT reads of untagged words issue no pwb, so
   their completion fence is skipped. (Plain rows are exempt: their
   p-loads always pwb, so their completion fence always has work.)

Exit 1 on any violation or if no batched write rows are found (an empty
gate would pass vacuously). --self-test checks that the gate rejects a
snapshot taken before fences became conditional and accepts a current
one.
"""

import json
import sys

EPSILON = 0.5
EMPTY_MAX = 0.01
WRITE_MIXES = {"A", "F"}


def check(rows):
    """Print one line per checked row; return the list of failures."""
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

    for r in rows:
        if not r["words"].startswith("flit-"):
            continue
        k = (r["words"], r.get("layout", ""), r["mix"], r.get("batch", 1))
        empty = r.get("empty_pfences_per_op")
        if empty is None:
            failures.append(f"{k}: no empty_pfences_per_op column")
        elif empty > EMPTY_MAX:
            failures.append(
                f"{k}: empty_pfences/op={empty:.4f} > {EMPTY_MAX} — a "
                f"fence with no pwb outstanding was issued")
        if r["mix"] == "C" and r["pfences_per_op"] > EMPTY_MAX:
            failures.append(
                f"{k}: read-only pfences/op={r['pfences_per_op']:.4f} > "
                f"{EMPTY_MAX} — a read fenced without flushing anything")
    return failures


def self_test():
    """The gate must reject fences issued unconditionally and accept
    dependency fences."""
    import contextlib
    import io

    def row(mix, batch, pfences, empty):
        return {"words": "flit-ht", "layout": "hashed", "mix": mix,
                "batch": batch, "pfences_per_op": pfences,
                "empty_pfences_per_op": empty}

    # flit-ht rows as the sweep reported them while every Condition-4 and
    # completion fence was issued unconditionally.
    unconditional = [row("A", 1, 1.5009, 0.4967), row("C", 1, 1.0, 1.0),
                     row("A", 4, 0.703, 0.2275), row("C", 16, 0.0625, 0.0625),
                     {"words": "plain", "layout": "hashed", "mix": "C",
                      "batch": 1, "pfences_per_op": 1.0,
                      "empty_pfences_per_op": 0.0}]
    # The same rows with dependency fences; plain C keeps its fences.
    conditional = [row("A", 1, 1.0003, 0.0), row("C", 1, 0.0, 0.0),
                   row("A", 4, 0.4375, 0.0), row("C", 16, 0.0, 0.0),
                   unconditional[-1]]
    # A batched write path that fences per element again still fails the
    # coalescing bound.
    uncoalesced = [row("A", 1, 1.0003, 0.0), row("A", 4, 1.0, 0.0)]

    errors = []
    for name, rows, want_fail, needle in (
            ("unconditional fences", unconditional, True,
             "a fence with no pwb outstanding"),
            ("unconditional fences", unconditional, True,
             "a read fenced without flushing anything"),
            ("dependency fences", conditional, False, None),
            ("per-element write fences", uncoalesced, True,
             "the fence coalescing regressed")):
        with contextlib.redirect_stdout(io.StringIO()):
            failures = check(rows)
        if bool(failures) != want_fail:
            errors.append(f"{name}: expected "
                          f"{'a failure' if want_fail else 'a pass'}, got "
                          f"{failures or 'a pass'}")
        elif needle and not any(needle in f for f in failures):
            errors.append(f"{name}: no failure mentions {needle!r}: "
                          f"{failures}")
        if any("plain" in f for f in failures):
            errors.append(f"{name}: plain rows must be exempt: {failures}")
    if errors:
        print("check_fence_coalescing self-test FAILED:")
        for e in errors:
            print(f"  {e}")
        return 1
    print("check_fence_coalescing self-test OK")
    return 0


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    if sys.argv[1] == "--self-test":
        return self_test()
    with open(sys.argv[1]) as f:
        data = json.load(f)
    rows = data.get("rows", [])
    failures = check(rows)
    if failures:
        print("\nfence gate FAILED:")
        for msg in failures:
            print(f"  {msg}")
        return 1
    print(f"\nfence gate OK ({len(rows)} rows checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
