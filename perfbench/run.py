#!/usr/bin/env python3
"""Layer-ledger benchmark of the zparse_ray engine.

    python3 perfbench/run.py --workload validate_mixed --seed 1 --seconds 20 --trace 0

Run from the repository root. One run builds the workload's input from
the seed, computes the reference output, starts a Ray session sized to
the CPU affinity, warms it, then calls the workload's pipeline back to
back for ``--seconds``, each call into a fresh output directory under a
timeout and checked against the reference. Every call is printed as a
``call`` line; the last stdout line is the result JSON. ``--trace 1``
adds a traced window and the per-layer probes (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("validate_mixed", "validate_dupskew", "dedup_minhash")
CALL_TIMEOUT_S = 90
WORK_ROOT = os.path.join(ROOT, ".pb")  # short: Ray's socket paths live under it
# Ray puts sockets at <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
SOCKET_PATH_MAX = 107
SESSION_SUFFIX = "/session_2000-01-01_00-00-00_000000_0000000/sockets/plasma_store"

END_TO_END_UNITS = {
    "docs_per_s": "docs/s",
    "cpu_s_per_kdoc": "CPU-s/kdoc",
    "driver_peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    **{f"functions.parse.{k}.spans_per_s": "spans/s" for k in layers.GRAMMAR},
    **{f"functions.parse.{k}.walk_share": "fraction" for k in layers.GRAMMAR},
    "functions.sketches.tdigest_add_per_s": "values/s",
    "functions.sketches.hll_add_per_s": "values/s",
    "spancheck.docs_per_s_core": "docs/s",
    "spancheck.walk_share": "fraction",
    "spancheck.sink_share": "fraction",
    "spancheck.other_share": "fraction",
    "validate.plan_s": "s",
    "validate.phase1_s": "s",
    "validate.phase2a_s": "s",
    "validate.phase2b_s": "s",
    "ray.phase1.udf_busy_s": "s",
    "ray.phase1.udf_share": "fraction",
    "ray.phase1.n_tasks": "count",
    "host.cpu_busy_frac": "fraction",
    "host.steal_frac": "fraction",
    "scale.eff_1to4": "fraction",
    "validate.dup_groupby_s": "s",
    "joins.shuffle_join_s": "s",
    "validate.n_dup_ids": "count",
    "validate.n_dup_rows": "count",
    "dedup.signatures_s": "s",
    "dedup.lsh_pairs_s": "s",
    "dedup.text_join_s": "s",
    "dedup.verify_pairs_per_s": "pairs/s",
    "dedup.cc_s": "s",
    "joins.semi_mark_s": "s",
    "dedup.n_candidate_pairs": "count",
    "dedup.n_verified_edges": "count",
    "dedup.verify_yield": "fraction",
    "dedup.n_components": "count",
    "dedup.n_truncated_slots": "count",
    "trace.overhead_frac": "fraction",
    "setup.fixture_s": "s",
    "setup.ray_init_s": "s",
    "setup.warm_s": "s",
}


def _process_start() -> float:
    """perf_counter() reading at this process's start (from /proc)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return time.perf_counter() - (uptime - start_ticks / ledger.CLK_TCK)


T_START = _process_start()


class CallTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise CallTimeout in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise CallTimeout(f"call exceeded {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _descendants() -> list[int]:
    parent = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    parent[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    out, frontier = [], [os.getpid()]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out.extend(kids)
        frontier.extend(kids)
    return out


def _reap(timeout: float = 30.0) -> None:
    """Wait until every process this one started has ended; kill what is
    left after ``timeout``."""
    t_end = time.monotonic() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = _descendants()
        if not left:
            return
        if time.monotonic() > t_end:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            t_end = time.monotonic() + 5
        time.sleep(0.1)


class Session:
    """One local Ray session: workers import zparse_ray from the repository
    root whatever the working directory, and the session's files stay in
    the work root when Ray's socket paths fit there."""

    def __init__(self, ray_cpus: int):
        self.ray_cpus = ray_cpus
        self.temp_dir = WORK_ROOT if len(WORK_ROOT + SESSION_SUFFIX) <= SOCKET_PATH_MAX else None
        self._before: set[str] = set()

    def __enter__(self):
        import logging

        import ray

        if self.temp_dir is None:
            print(f"note: {WORK_ROOT} is too long for Ray's socket paths; "
                  "Ray keeps its session files in its default temp dir", file=sys.stderr)
        else:
            os.makedirs(self.temp_dir, exist_ok=True)
            self._before = set(os.listdir(self.temp_dir))
        ray.init(
            address="local",
            num_cpus=self.ray_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=768 * 1024 * 1024,
            _temp_dir=self.temp_dir,
            runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join([ROOT, HERE])}},
        )
        import ray.data as rd

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        return self

    def __exit__(self, *exc):
        """Shut Ray down and wait for its processes. The session's files are
        removed, unless the block raised."""
        import ray

        ray.shutdown()
        _reap()
        if self.temp_dir is not None and exc[0] is None:
            for d in set(os.listdir(self.temp_dir)) - self._before:
                if d.startswith("session_"):
                    shutil.rmtree(os.path.join(self.temp_dir, d), ignore_errors=True)
        return False


# -- workloads ------------------------------------------------------------------
class ValidateWorkload:
    """run_validation over a synth spans table; output checked against the
    single-process oracle."""

    pipeline = "run_validation"

    def __init__(self, name: str, seed: int, work: str):
        self.name, self.seed, self.work = name, seed, work
        self.kwargs = inputs.VALIDATE[name][1]

    def prepare(self, tracer) -> None:
        base = os.path.join(self.work, "inputs")
        with tracer.span("synth.ensure_dataset"):
            self.spans_dir = inputs.build_spans(self.name, self.seed, base)
        with tracer.span("oracle.oracle_validate"):
            self.want = inputs.build_oracle(self.spans_dir)
        self.n_docs = sum(d["n_docs"] for d in self.want[1])

    def warm(self, tracer) -> None:
        """One untimed call on the real input: starts the workers and
        finishes the engine's and Ray Data's lazy set-up."""
        out_dir = os.path.join(self.work, "warm")
        with tracer.span("run_validation", warm=True), deadline(CALL_TIMEOUT_S):
            self.call(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)

    def call(self, out_dir: str):
        from zparse_ray.pipelines.validate import run_validation

        return run_validation(self.spans_dir, out_dir, **self.kwargs)

    def check(self, out_dir: str, res: dict) -> str | None:
        from zparse_ray.oracle import read_pipeline_outputs

        if res["n_docs"] != self.n_docs:
            return f"n_docs {res['n_docs']} != {self.n_docs}"
        return ledger.check_validate(read_pipeline_outputs(out_dir), self.want)


class DedupWorkload:
    """dedup_corpus(mode="minhash") over the replica corpus; each output is
    checked against the set-up reference run."""

    pipeline = "dedup_corpus"

    def __init__(self, name: str, seed: int, work: str):
        self.name, self.seed, self.work = name, seed, work

    def prepare(self, tracer) -> None:
        self.corpus_dir = os.path.join(self.work, "inputs", "corpus")
        with tracer.span("build_corpus"):
            self.in_ids = inputs.build_corpus(self.seed, self.corpus_dir)
        self.n_docs = len(self.in_ids)

    def warm(self, tracer) -> None:
        """The reference run: warms the session and fixes the survivor set
        every later run must reproduce."""
        out_dir = os.path.join(self.work, "reference")
        with tracer.span("dedup_corpus", warm=True), deadline(CALL_TIMEOUT_S):
            stats = self.call(out_dir)
        out_ids = inputs.read_ids(out_dir)
        self.ref_digest = ledger.ids_digest(out_ids)
        reason = ledger.check_dedup(stats, self.in_ids, out_ids, self.ref_digest)
        if reason:
            raise RuntimeError(f"reference run failed its own check: {reason}")

    def call(self, out_dir: str):
        from zparse_ray.pipelines.dedup_corpus import dedup_corpus

        return dedup_corpus(self.corpus_dir, out_dir, mode="minhash")

    def check(self, out_dir: str, stats: dict) -> str | None:
        return ledger.check_dedup(stats, self.in_ids, inputs.read_ids(out_dir), self.ref_digest)


def timed_window(wl, seconds: float, tracer, tag: str, keep_last: bool = False) -> list[dict]:
    """Call the pipeline back to back until ``seconds`` have passed (at
    least once). Every call is one row; a call that raises, times out or
    fails its output check is a failed row. A timeout ends the window."""
    rows: list[dict] = []
    t_window = time.perf_counter()
    while not rows or time.perf_counter() - t_window < seconds:
        out_dir = os.path.join(wl.work, f"{tag}-{len(rows)}")
        ledger.reset_peak_rss()
        j0 = ledger.cpu_jiffies()
        t0 = time.perf_counter()
        res, error = None, None
        try:
            with deadline(CALL_TIMEOUT_S), tracer.span(wl.pipeline):
                res = wl.call(out_dir)
        except CallTimeout as e:
            error = str(e)
        except Exception:  # a failed call is counted, and the window goes on
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        host = ledger.cpu_window(j0, ledger.cpu_jiffies())
        rss = ledger.peak_rss_mb()
        if error is None:
            error = wl.check(out_dir, res)
        row = {
            "window": tag,
            "call": len(rows),
            "ok": error is None,
            "error": error,
            "wall_s": wall,
            "n_docs": wl.n_docs,
            "docs_per_s": wl.n_docs / wall,
            "cpu_s_per_kdoc": host["cpu_s"] / wl.n_docs * 1000,
            "driver_peak_rss_mb": rss,
            "steal_frac": host["steal_frac"],
            "host_cpus": os.cpu_count(),
            "result": res,
            "out_dir": out_dir,
        }
        rows.append(row)
        print("call " + json.dumps({k: v for k, v in row.items() if k != "result"}), flush=True)
        if error is not None:
            print(f"call failed: {error}", file=sys.stderr)
        if error is not None and error.startswith("call exceeded"):
            break
    last = len(rows) - 1
    for i, row in enumerate(rows):
        if not (keep_last and i == last):
            shutil.rmtree(row["out_dir"], ignore_errors=True)
    return rows


def end_to_end(rows: list[dict], setup_s: float) -> dict:
    """Medians over the calls that passed; over all calls when none did
    (the result then says ``correct: false``)."""
    ok = [r for r in rows if r["ok"]] or rows
    vals = {k: ledger.median([r[k] for r in ok]) for k in END_TO_END_UNITS if k != "setup_s"}
    vals["setup_s"] = setup_s
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in vals.items()}


# -- traced run ---------------------------------------------------------------------
def per_layer(wl, untraced: list[dict], traced: list[dict], setup_parts: dict,
              ray_cpus: int, tracer) -> tuple[dict, dict]:
    """Per-layer metrics inside the main session. Layers the workload does
    not exercise are probed on a companion input built from the same seed
    (a small spans table for dedup_minhash, a small corpus otherwise), so
    every traced run reports every layer. Returns (metrics, scale input)."""
    from zparse_ray.pipelines.validate import run_validation

    m = dict(setup_parts)
    dps_untraced = ledger.median([r["docs_per_s"] for r in untraced if r["ok"]])
    dps_traced = ledger.median([r["docs_per_s"] for r in traced if r["ok"]])
    m["trace.overhead_frac"] = 1.0 - dps_traced / dps_untraced

    if isinstance(wl, ValidateWorkload):
        spans_dir, kwargs = wl.spans_dir, wl.kwargs
        phase_runs = [(r["wall_s"], r["result"]) for r in traced if r["ok"]]
        last_out = traced[-1]["out_dir"]
        dps4 = dps_untraced
        with tracer.span("companion corpus"):
            corpus_dir = os.path.join(wl.work, "inputs", "companion_corpus")
            inputs.build_corpus(wl.seed, corpus_dir, n_base=500)
    else:
        corpus_dir = wl.corpus_dir
        with tracer.span("companion spans"):
            spans_dir = inputs.build_spans(
                "validate_mixed", wl.seed, os.path.join(wl.work, "inputs"),
                n_docs=5_000, n_partitions=4,
            )
        kwargs, phase_runs = {}, []
        for i in range(3):  # the first call warms the validate path
            out = os.path.join(wl.work, f"companion-{i}")
            with tracer.span("run_validation", companion=True):
                t0 = time.perf_counter()
                res = run_validation(spans_dir, out, **kwargs)
                wall = time.perf_counter() - t0
            if i:
                phase_runs.append((wall, res))
            last_out = out
        dps4 = ledger.median([res["n_docs"] / wall for wall, res in phase_runs])

    with tracer.span("layer functions"):
        m.update(layers.functions_layer(spans_dir, tracer))
    with tracer.span("layer spancheck"):
        m.update(layers.spancheck_layer(spans_dir, wl.work, tracer))
    m.update(layers.phase_metrics(phase_runs))
    with tracer.span("layer ray.phase1"):
        m.update(layers.ray_phase1_layer(spans_dir, wl.work, ray_cpus, tracer))
    with tracer.span("layer uniqueness"):
        m.update(layers.uniqueness_layer(last_out, tracer))
    with tracer.span("layer dedup"):
        m.update(layers.dedup_layer(corpus_dir, tracer))
    return m, {"spans_dir": spans_dir, "kwargs": kwargs, "docs_per_s_4": dps4}


def scale_1cpu(scale: dict, work: str, seconds: float, tracer) -> float:
    """Median docs/s of run_validation on the same input in a fresh
    1-CPU session, after one untimed warm call."""
    from zparse_ray.pipelines.validate import run_validation

    with tracer.span("session ray_cpus=1"), Session(1):
        rates, t0 = [], None
        while t0 is None or not rates or time.perf_counter() - t0 < seconds:
            out = os.path.join(work, f"scale-{len(rates)}")
            with tracer.span("run_validation", ray_cpus=1), deadline(CALL_TIMEOUT_S):
                t1 = time.perf_counter()
                res = run_validation(scale["spans_dir"], out, **scale["kwargs"])
                rate = res["n_docs"] / (time.perf_counter() - t1)
            shutil.rmtree(out, ignore_errors=True)
            if t0 is None:
                t0 = time.perf_counter()
            else:
                rates.append(rate)
    return ledger.median(rates)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import zparse_ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import zparse_ray from {ROOT}: {e}", file=sys.stderr)
        return 2

    ray_cpus = len(os.sched_getaffinity(0))
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(WORK_ROOT, "work", run_id)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer(run_id, enabled=bool(args.trace))
    off = Tracer(run_id, enabled=False)
    cls = DedupWorkload if args.workload == "dedup_minhash" else ValidateWorkload
    wl = cls(args.workload, args.seed, work)

    j_setup = ledger.cpu_jiffies()
    with tracer.span("fixture"):
        wl.prepare(tracer)
    t_ready = time.perf_counter()
    with tracer.span("session"), Session(ray_cpus):
        t_init = time.perf_counter() - t_ready
        wl.warm(tracer)
        setup_s = time.perf_counter() - T_START
        setup_steal = ledger.cpu_window(j_setup, ledger.cpu_jiffies())["steal_frac"]
        # a traced run splits the window between an untraced and a traced half
        window_s = args.seconds / 2 if args.trace else args.seconds
        rows = timed_window(wl, window_s, off, "untraced")
        metrics = end_to_end(rows, setup_s)
        if args.trace:
            with tracer.span("traced window"):
                traced = timed_window(wl, window_s, tracer, "traced", keep_last=True)
            setup_parts = {
                "setup.fixture_s": t_ready - T_START,
                "setup.ray_init_s": t_init,
                "setup.warm_s": setup_s - (t_ready - T_START) - t_init,
            }
            metrics, scale = per_layer(wl, rows, traced, setup_parts, ray_cpus, tracer)
            rows += traced
    if args.trace:
        dps1 = scale_1cpu(scale, work, args.seconds / 4, tracer)
        metrics["scale.eff_1to4"] = ledger.eff_1to4(dps1, scale["docs_per_s_4"], ray_cpus)

    n_failed = sum(not r["ok"] for r in rows)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_cpus": os.cpu_count(),
        "ray_cpus": ray_cpus,
        "n_docs": wl.n_docs,
        "steal_frac": ledger.median([r["steal_frac"] for r in rows]),
        "docs_per_s_quartiles": ledger.quartiles([r["docs_per_s"] for r in rows]),
        "docs_per_s_spread": ledger.spread([r["docs_per_s"] for r in rows]),
        "setup_steal_frac": setup_steal,
        "failed_frac": n_failed / len(rows),
    }
    print("meta " + json.dumps(meta), flush=True)
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    if args.trace:
        tracer.write(os.path.join(WORK_ROOT, "results", f"{run_id}.spans.jsonl"))
        metrics = {
            k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in sorted(metrics.items())
        }
    for name, mv in metrics.items():
        print(f"{name:40s} {mv['value']:>16.6g} {mv['unit']}", file=sys.stderr)
    result = {
        "correct": n_failed == 0,
        "attempted": len(rows),
        "failed": n_failed,
        "metrics": metrics,
    }
    with open(os.path.join(WORK_ROOT, "results", f"{run_id}.json"), "w") as f:
        json.dump({**result, "meta": meta, "calls": [
            {k: v for k, v in r.items() if k != "result"} for r in rows
        ]}, f, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
