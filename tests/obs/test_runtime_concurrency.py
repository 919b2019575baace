"""Concurrency tests for repro.obs.runtime telemetry emission.

The update service feeds one :class:`TelemetryWriter` from a
:class:`TelemetryPump` thread *and* workload flush points, so snapshot
emission must be atomic: exactly one meta line, no interleaved partial
lines, ``seq`` increasing in line order.  These tests pin that contract
by hammering a shared writer from many threads.
"""

import io
import json
import sys
import threading

from repro.obs.core import Registry
from repro.obs.runtime import TelemetryWriter, read_feed, validate_feed

THREADS = 8
SNAPSHOTS_PER_THREAD = 25


def _hammer(writer: TelemetryWriter, barrier: threading.Barrier) -> None:
    barrier.wait()
    for _ in range(SNAPSHOTS_PER_THREAD):
        writer.write_snapshot()


class TestConcurrentTelemetryWriter:
    def test_concurrent_snapshots_yield_a_valid_feed(self):
        registry = Registry()
        sink = io.StringIO()
        writer = TelemetryWriter(sink, source=registry, worker="stress")

        barrier = threading.Barrier(THREADS)
        threads = [
            threading.Thread(target=_hammer, args=(writer, barrier))
            for _ in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        text = sink.getvalue()
        lines = text.splitlines()
        # Exactly one meta line, and it comes first.
        metas = [line for line in lines if json.loads(line)["type"] == "meta"]
        assert len(metas) == 1
        assert json.loads(lines[0])["type"] == "meta"
        # Every line is complete JSON (no interleaved partial writes) and
        # the feed as a whole validates.
        assert len(lines) == 1 + THREADS * SNAPSHOTS_PER_THREAD
        assert validate_feed(text) == []
        meta, snapshots = read_feed(text)
        assert meta is not None and meta["worker"] == "stress"
        # seq order matches line order -- snapshots are taken inside the
        # emit lock, so a later line can never carry an earlier seq.
        seqs = [snap["seq"] for snap in snapshots]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_concurrent_record_op_keeps_histogram_counts(self):
        registry = Registry()
        per_thread = 200
        barrier = threading.Barrier(THREADS)

        def work() -> None:
            barrier.wait()
            for _ in range(per_thread):
                registry.record_op("srv.update", 0.001)

        threads = [threading.Thread(target=work) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snap = registry.live_record()
        assert snap["meters"]["srv.update"]["count"] == THREADS * per_thread
        histogram = snap["histograms"]["srv.update.seconds"]
        assert histogram["count"] == THREADS * per_thread

    def test_sharded_counters_lose_no_increment_under_readers(self):
        """Counters skip the lock (one shard per thread): with more
        threads than cores, a tiny switch interval and a reader summing
        the shards throughout, every increment must still land and every
        read must be a monotone partial sum."""
        registry = Registry()
        per_thread = 5_000
        barrier = threading.Barrier(THREADS + 1)
        seen = []

        def work() -> None:
            barrier.wait()
            for _ in range(per_thread):
                registry.inc("hits")
                registry.inc("pairs", 2)

        def read() -> None:
            barrier.wait()
            for _ in range(200):
                seen.append(registry.live_record()["counters"].get("hits", 0))

        threads = [threading.Thread(target=work) for _ in range(THREADS)]
        threads.append(threading.Thread(target=read))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.get("hits") == THREADS * per_thread
        assert registry.counts["pairs"] == 2 * THREADS * per_thread
        assert seen == sorted(seen)

    def test_close_without_snapshots_still_writes_meta_once(self):
        registry = Registry()
        sink = io.StringIO()
        writer = TelemetryWriter(sink, source=registry, worker="idle")
        writer.close()
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "meta"
