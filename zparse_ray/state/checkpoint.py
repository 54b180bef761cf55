"""D12: per-partition checkpoint manifest.

A validation run over N input partitions commits each partition to the
manifest the moment all of its rows have streamed through the validator
(the driver tracks expected-vs-seen doc counts per partition from
parquet footers). A killed run restarts at the last committed
partition: committed partitions' outputs (violations/docmeta/partials
parquet) are kept and their input files are not re-read; uncommitted
partitions' stale outputs are deleted before re-processing.

Each entry holds the partition's verdict fields (doc, span and
violation counts, failed checks), so the verdicts are built from the
manifest alone (partitions that an older engine committed without
the failed checks, and drift checks, read the partials files). The
manifest itself is a small JSON rewritten atomically (tmp+rename) on
every commit — at real scale this would live in an object store with
conditional puts; the commit protocol is the same.
"""

from __future__ import annotations

import json
import os
import time


class Manifest:
    def __init__(self, path: str):
        self.path = path
        self.data: dict = {"partitions": {}}
        if os.path.exists(path):
            with open(path) as f:
                self.data = json.load(f)

    @property
    def committed(self) -> set[int]:
        return {int(k) for k in self.data["partitions"]}

    def commit(self, pid: int, info: dict) -> None:
        self.data["partitions"][str(pid)] = {**info, "committed_at": time.time()}
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            f.write(json.dumps(self.data))  # C encoder; json.dump iterates in Python
        os.replace(tmp, self.path)

    def info(self, pid: int) -> dict:
        return self.data["partitions"][str(pid)]


def clean_stale_outputs(out_dir: str, uncommitted: set[int]) -> int:
    """Delete partial outputs of partitions that never committed
    (leftovers of a killed run)."""
    removed = 0
    for sub in ("violations", "docmeta", "partials", "quarantine"):
        d = os.path.join(out_dir, sub)
        if not os.path.isdir(d):
            continue
        for name in os.listdir(d):
            if not name.startswith("part-"):
                continue
            try:
                pid = int(name.split("-")[1].split(".")[0])
            except ValueError:
                continue
            if pid in uncommitted:
                os.remove(os.path.join(d, name))
                removed += 1
    return removed
