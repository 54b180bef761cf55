"""Single-core profile of phase 1's grammar walk, in µs per span per kind.

    python tools/walk_profile.py [--seed 1] [--cpu N]

Builds the synth input of each validate workload in memory (the
``perfbench/inputs.py`` shapes: ``validate_mixed`` and
``validate_dupskew``), pins itself to one CPU, and times, for each
grammar kind, over that kind's spans of every partition:

- ``mask``: the kind's accept mask, one call per partition as phase 1
  makes it (kinds without a mask, and a checkout from before the masks,
  read 0);
- ``leftover``: ``validate_payloads`` over the spans the mask left;
- ``walk``: ``mask + leftover``, what ``SpanValidator`` runs without
  ``round_trip``;
- ``checker``: ``validate_payloads`` over every span (the walk with no
  masks);
- ``exact``: the exact parser (``_PARSERS``) over every span.

It also counts ``n_leftover`` (the spans a mask left) and, of those,
``n_checked``: the spans the kind's checker accepts on its own, without
its exact parser (``-`` for a kind without a mask).

Each timing repeats until its two best runs agree within 3% (or 40
runs); the best run is reported, with ``spread``, the median's excess
over it. Prints a table per workload, then one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

TOL = 0.03  # two best runs this close: stable
MAX_REPS = 40


class _Fell(Exception):
    """A checker reached its exact parser."""


def stable(fn) -> tuple[float, float]:
    """(best, spread) of ``fn``'s wall time over repeated runs."""
    runs: list[float] = []
    while len(runs) < MAX_REPS:
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
        if len(runs) >= 3:
            a, b = sorted(runs)[:2]
            if b - a <= TOL * a:
                break
    best = min(runs)
    return best, statistics.median(runs) / best - 1


def checker_accepts(kind: str, texts) -> int:
    """How many of ``texts`` the kind's checker accepts with its exact
    parser swapped for one that raises."""
    from zparse_ray.functions.errors import ParseError
    from zparse_ray.stages import spancheck as S

    check = S._CHECKERS[kind]
    mod = sys.modules[check.__module__]
    name = f"parse_{kind}"
    real = getattr(mod, name)

    def fell(*args, **kw):
        raise _Fell

    setattr(mod, name, fell)
    try:
        n = 0
        for t in texts:
            try:
                check(t)
                n += 1
            except (_Fell, ParseError, RecursionError):
                pass
        return n
    finally:
        setattr(mod, name, real)


def profile(shape: dict, seed: int) -> dict:
    """Per-kind rows (see the module docstring) over one workload's input."""
    import numpy as np
    import pyarrow.compute as pc

    from zparse_ray.functions.errors import ParseError
    from zparse_ray.schema import GRAMMAR_KINDS
    from zparse_ray.stages import spancheck as S
    from zparse_ray.synth import SynthConfig, gen_partition

    cfg = SynthConfig(seed=seed, **shape)
    spans = [gen_partition(cfg, p)["spans"].combine_chunks().flatten() for p in range(cfg.n_partitions)]
    rows = {}
    for kind in GRAMMAR_KINDS:
        cols = [sv.field("text").filter(pc.equal(sv.field("kind"), kind)) for sv in spans]
        cols = [c for c in cols if len(c)]
        objs = [c.to_numpy(zero_copy_only=False) for c in cols]
        kinds = [np.full(len(c), kind, dtype=object) for c in cols]
        n = sum(len(c) for c in cols)
        if not n:
            continue
        mask = getattr(S, "_ACCEPT_MASKS", {}).get(kind)  # none before the masks existed
        left = [np.flatnonzero(~mask(c, None)) if mask else np.arange(len(c)) for c in cols]
        parse = S._PARSERS[kind]

        def exact():
            for o in objs:
                for t in o:
                    try:
                        parse(t)
                    except (ParseError, RecursionError):
                        pass

        t = {
            "mask": stable(lambda: [mask(c, None) for c in cols]) if mask else (0.0, 0.0),
            "leftover": stable(
                lambda: [S.validate_payloads(k, o, i, False) for k, o, i in zip(kinds, objs, left)]
            ),
            "checker": stable(
                lambda: [S.validate_payloads(k, o, np.arange(len(o)), False) for k, o in zip(kinds, objs)]
            ),
            "exact": stable(exact),
        }
        row = {
            "n_spans": n,
            "n_leftover": int(sum(len(i) for i in left)),
            "n_checked": checker_accepts(kind, [t for o, i in zip(objs, left) for t in o[i]]) if mask else "-",
        }
        for name, (best, spread) in t.items():
            row[f"{name}_us"] = round(best / n * 1e6, 3)
            row[f"{name}_spread"] = round(spread, 3)
        row["walk_us"] = round(row["mask_us"] + row["leftover_us"], 3)
        rows[kind] = row
    total = {
        c: round(sum(r[c] * r["n_spans"] for r in rows.values()) / 1e3, 2)
        for c in ("mask_us", "leftover_us", "walk_us", "checker_us", "exact_us")
    }
    return {"docs": cfg.n_docs, "partitions": cfg.n_partitions, "kinds": rows, "total_ms": total}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cpu", type=int, default=None, help="CPU to pin to (default: the first allowed)")
    args = ap.parse_args(argv)

    cpu = args.cpu if args.cpu is not None else min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    from perfbench.inputs import VALIDATE
    from zparse_ray.stages import spancheck as S

    S._tune_gc_once()
    out = {}
    cols = ("n_spans", "n_leftover", "n_checked", "mask_us", "leftover_us", "walk_us", "checker_us", "exact_us")
    for workload, (shape, _) in VALIDATE.items():
        res = out[workload] = profile(shape, args.seed)
        print(f"{workload}: cpu {cpu}, seed {args.seed}, {res['docs']} docs, "
              f"{res['partitions']} partitions; µs per span")
        print(f"{'kind':6s}" + "".join(f"{c:>12s}" for c in cols))
        for kind, row in res["kinds"].items():
            print(f"{kind:6s}" + "".join(f"{row[c]:>12}" for c in cols))
        print("total ms:", res["total_ms"])
    print(json.dumps({"cpu": cpu, "seed": args.seed, "workloads": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
