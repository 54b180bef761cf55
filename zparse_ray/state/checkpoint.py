"""D12: per-partition checkpoint manifest.

A validation run over N input partitions commits each partition to the
manifest the moment all of its rows have streamed through the validator
(the driver tracks expected-vs-seen doc counts per partition from
parquet footers). A killed run restarts at the last committed
partition: committed partitions' outputs (violations/docmeta/partials
parquet) are kept and their input files are not re-read; every other
partition's sink files are deleted before re-processing. An entry holds
only for the input it was computed from: each commit records the
file's fingerprint (size, ``mtime_ns`` and footer row count), and at
plan time an entry is dropped, with its sink files, when its file is
gone or its fingerprint differs — a rewritten file is validated again.
An entry without a fingerprint (committed by an older engine) is
dropped too, since nothing says which input it describes. A run
without resume drops every entry. A rewrite that keeps the size, the
row count and ``mtime_ns`` is not seen.

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
        self._write()

    def drop(self, pids) -> None:
        """Forget the entries of ``pids``; rewrites the file only if one
        of them was committed."""
        gone = [k for k in map(str, pids) if k in self.data["partitions"]]
        for k in gone:
            del self.data["partitions"][k]
        if gone:
            self._write()

    def _write(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            f.write(json.dumps(self.data))  # C encoder; json.dump iterates in Python
        os.replace(tmp, self.path)

    def info(self, pid: int) -> dict:
        return self.data["partitions"][str(pid)]


def sink_pid(name: str) -> int | None:
    """The partition id in a ``part-<pid>[-<tag>].parquet`` sink file
    name, or None for any other name."""
    if not name.startswith("part-"):
        return None
    try:
        return int(name.split("-")[1].split(".")[0])
    except ValueError:
        return None


def clean_stale_outputs(out_dir: str, keep: set[int]) -> int:
    """Delete the sink files of every partition not in ``keep``: the
    leftovers of a killed or failed run, and of removed input files."""
    removed = 0
    for sub in ("violations", "docmeta", "partials", "quarantine"):
        d = os.path.join(out_dir, sub)
        if not os.path.isdir(d):
            continue
        for name in os.listdir(d):
            pid = sink_pid(name)
            if pid is not None and pid not in keep:
                os.remove(os.path.join(d, name))
                removed += 1
    return removed
