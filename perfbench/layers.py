"""Per-layer timing for the traced run.

``install`` wraps the public entry function of each layer in a
``repro.obs`` span, from outside the program; ``uninstall`` restores the
originals. Nothing here is imported or installed by an untraced run.
Spans go to an in-memory sink (:func:`make_tracer`) and are written out
as JSONL at the end (:func:`write_jsonl`), in the span format that
``python -m repro.obs summarize`` renders. :class:`LayerTally` turns the
spans of traced rounds into the per-layer metrics, where a span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict

from repro.obs.trace import Tracer


class SpanSink:
    """Keeps every finished span in memory until the run writes them out."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def flush(self) -> None:
        pass


def make_tracer(service: str) -> Tracer:
    return Tracer(SpanSink(), service=service, max_spans=1)


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _span(tracer, name, fn, attrs=None, result_attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, attrs=attrs(*args) if attrs else None) as span:
            out = fn(*args, **kwargs)
            if result_attrs is not None:
                span.attrs.update(result_attrs(out))
            return out

    return wrapper


def _span_each_next(tracer, name, fn):
    """Wrap a generator function: one span per item it produces."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item

    return wrapper


def _spend_batch(tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, principals, epsilon):
        principals = list(principals)
        attrs = {"rows": len(principals), "eps": epsilon * len(principals)}
        with tracer.span("privacy.spend_batch", attrs=attrs):
            return fn(self, principals, epsilon)

    return wrapper


def _rows(n_arg):
    return lambda *args: {"rows": len(args[n_arg])}


def _level(found):
    return {"level": found[1]} if found is not None else {}


def install(tracer: Tracer):
    """Wrap every layer's entry functions; returns the undo function."""
    from repro.api.client import AssignmentClient
    from repro.crowdsourcing import server as crowd_server
    from repro.geometry.grid import SnapIndex
    from repro.gateway import codec, remote
    from repro.mesh.coordinator import MeshCoordinator
    from repro.privacy.budget import PrivacyBudgetLedger
    from repro.privacy.tree_mechanism import TreeMechanism
    from repro.service import shard as shard_module
    from repro.service.engine import ShardedAssignmentEngine
    from repro.service.sharding import ShardMap

    one = lambda *args: {"rows": 1}  # noqa: E731
    plan = [
        (crowd_server, "publish_tree", lambda fn: _span(tracer, "hst.publish_tree", fn)),
        (shard_module, "publish_tree", lambda fn: _span(tracer, "hst.publish_tree", fn)),
        (ShardMap, "shard_of", lambda fn: _span(tracer, "sharding.shard_of", fn)),
        (ShardMap, "shard_of_many", lambda fn: _span(tracer, "sharding.shard_of_many", fn)),
        (SnapIndex, "snap", lambda fn: _span(tracer, "geometry.snap", fn, one)),
        (SnapIndex, "snap_many", lambda fn: _span(tracer, "geometry.snap_many", fn, _rows(1))),
        (TreeMechanism, "obfuscate_points_batch",
         lambda fn: _span(tracer, "privacy.obfuscate", fn, _rows(1))),
        (PrivacyBudgetLedger, "spend_batch", lambda fn: _spend_batch(tracer, fn)),
        (crowd_server.MatchingServer, "submit_task_detailed",
         lambda fn: _span(tracer, "crowdsourcing.match", fn, result_attrs=_level)),
        (shard_module.ShardServer, "register_cohort",
         lambda fn: _span(tracer, "service.register_cohort", fn, _rows(1))),
        (shard_module.ShardServer, "submit_task",
         lambda fn: _span(tracer, "service.shard_submit", fn)),
        (ShardedAssignmentEngine, "register_worker",
         lambda fn: _span(tracer, "service.engine.register_worker", fn)),
        (ShardedAssignmentEngine, "submit_task",
         lambda fn: _span(tracer, "service.engine.submit_task", fn)),
        (AssignmentClient, "stream", lambda fn: _span_each_next(tracer, "api.stream", fn)),
        (AssignmentClient, "call", lambda fn: _span(tracer, "api.call", fn)),
        (remote.RemoteBackend, "handle", lambda fn: _span(tracer, "gateway.remote.handle", fn)),
        (MeshCoordinator, "process", lambda fn: _span(tracer, "mesh.process", fn)),
        (MeshCoordinator, "result_of", lambda fn: _span(tracer, "mesh.result_of", fn)),
        (MeshCoordinator, "close", lambda fn: _span(tracer, "mesh.close", fn)),
    ]
    # the client-side codec: protocol.py looks these up on the codec
    # module at call time, remote.py imported the stream pair by name
    for owner in (codec, remote):
        for name in ("encode_bin1", "decode_bin1", "encode_stream_batch", "decode_stream_result"):
            if hasattr(owner, name):
                plan.append(
                    (owner, name, lambda fn, n=name: _span(tracer, f"gateway.codec.{n}", fn))
                )
    undo = []
    for owner, attr, wrap in plan:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrap(original))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    # forked mesh peers run the kernel layers out of this tracer's reach;
    # give them the originals so they pay no span cost for nothing
    os.register_at_fork(after_in_child=uninstall)
    return uninstall


def self_times(spans) -> dict[str, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        start = s["start_s"]
        end = start + s["duration_s"]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(s["span"], ()), key=lambda c: c["start_s"]):
            lo = max(c["start_s"], cursor)
            hi = min(c["start_s"] + c["duration_s"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["span"]] = max(0.0, s["duration_s"] - covered)
    return out


ROUTE = ("sharding.shard_of", "sharding.shard_of_many")
SNAP = ("geometry.snap", "geometry.snap_many")
ENGINE = ("service.engine.register_worker", "service.engine.submit_task")
CLIENT = ("api.stream", "api.call", "client.request")
ENCODE = ("gateway.codec.encode_bin1", "gateway.codec.encode_stream_batch")

#: (metric, unit, tally key): the per-layer metrics in BENCHMARK.json order.
PER_LAYER = (
    ("hst.build_s", "s", "hst"),
    ("sharding.route_us", "us", "route"),
    ("sharding.route_calls_per_task", "count", "route_calls"),
    ("geometry.snap_us", "us/point", "snap"),
    ("privacy.obfuscate_us", "us", "obfuscate"),
    ("privacy.rows_per_call", "rows", "obfuscate_rows"),
    ("privacy.ledger_us", "us", "ledger"),
    ("privacy.eps_spent", "eps", "eps_spent"),
    ("crowdsourcing.match_us", "us/task", "match"),
    ("matching.level_mean", "level", "level"),
    ("service.cohort_self_us", "us/worker", "cohort_self"),
    ("service.shard_submit_self_us", "us/task", "shard_submit_self"),
    ("service.engine_self_us", "us/event", "engine_self"),
    ("api.client_self_us", "us/event", "client_self"),
    ("runtime.queue_wait_us", "us", "queue_wait"),
    ("gateway.codec_us", "us/frame", "codec"),
    ("gateway.rtt_us", "us/frame", "rtt"),
    ("gateway.bytes_per_task", "B", "bytes"),
    ("gateway.frames_per_task", "count", "frames"),
    ("gateway.errors", "count", "errors"),
    ("mesh.dispatch_us", "us/event", "mesh_dispatch"),
    ("mesh.result_wait_us", "us/task", "result_wait"),
    ("mesh.dispatch_depth_p50", "ops", "dispatch_depth"),
    ("cluster.checkpoints", "count", "checkpoints"),
    ("cluster.checkpoint_s", "s", "checkpoint_s"),
    ("cluster.snapshot_kib", "KiB", "snapshot_kib"),
    ("mesh.close_s", "s", "mesh_close"),
    ("obs.coverage", "share", "coverage"),
    ("obs.trace_overhead", "ratio", "trace_overhead"),
)


class LayerTally:
    """Sums and counts behind each per-layer metric, pooled over rounds.

    A metric is ``sum / count`` of its key; a layer a workload never
    reaches has no samples and reads 0.
    """

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, key: str, value: float, count: float = 1.0) -> None:
        self.sums[key] += value
        self.counts[key] += count

    def value(self, key: str) -> float:
        count = self.counts.get(key, 0.0)
        return self.sums[key] / count if count else 0.0

    def metrics(self) -> dict:
        return {
            name: {"value": self.value(key), "unit": unit}
            for name, unit, key in PER_LAYER
        }

    def no_samples(self) -> list[str]:
        """Metrics whose layer this workload never reached."""
        return [name for name, _, key in PER_LAYER if not self.counts.get(key)]

    def absorb_spans(self, spans, window, *, tasks: int, events: int) -> None:
        """Fold one traced round's spans in.

        ``window`` is the serving interval ``(start, end)`` in wall
        seconds. Coverage is the share of it the client's thread spent
        inside its root client spans: the sum of the self times of every
        span below them, as long as children nest in their parents.
        """
        by_id = {s["span"]: s for s in spans}
        own = self_times(spans)
        # server dispatch time under each client round trip
        dispatch = defaultdict(float)
        for s in spans:
            if s["name"] == "gateway.dispatch":
                dispatch[s["parent"]] += s["duration_s"]

        def parent_name(s):
            parent = by_id.get(s["parent"])
            return parent["name"] if parent is not None else None

        hst = client_self = coverage = codec = mesh_process = result_wait = 0.0
        route_calls = encodes = 0
        t0, t1 = window
        for s in spans:
            name, dur, attrs = s["name"], s["duration_s"], s["attrs"]
            if name == "hst.publish_tree":
                hst += dur
            elif name in ROUTE and parent_name(s) not in ROUTE:
                self.add("route", dur * 1e6)
                route_calls += 1
            elif name in SNAP:
                self.add("snap", dur * 1e6, attrs["rows"])
            elif name == "privacy.obfuscate":
                self.add("obfuscate", dur * 1e6)
                self.add("obfuscate_rows", attrs["rows"])
            elif name == "privacy.spend_batch":
                self.add("ledger", dur * 1e6)
            elif name == "crowdsourcing.match":
                self.add("match", dur * 1e6)
                if "level" in attrs:
                    self.add("level", attrs["level"])
            elif name == "service.register_cohort":
                self.add("cohort_self", own[s["span"]] * 1e6, attrs["rows"])
            elif name == "service.shard_submit":
                self.add("shard_submit_self", own[s["span"]] * 1e6)
            elif name in ENGINE:
                self.add("engine_self", own[s["span"]] * 1e6)
            elif name == "scheduler.queue":
                self.add("queue_wait", dur * 1e6)
            elif name == "mesh.dispatch" and "queue_wait_s" in attrs:
                self.add("queue_wait", attrs["queue_wait_s"] * 1e6)
            elif name == "gateway.remote.handle":
                self.add("rtt", (dur - dispatch.get(s["span"], 0.0)) * 1e6)
            elif name == "mesh.process":
                mesh_process += dur
            elif name == "mesh.result_of":
                result_wait += dur
            elif name == "mesh.close":
                self.add("mesh_close", dur)
            if name in CLIENT:
                client_self += own[s["span"]]
            if name.startswith("gateway.codec.") and s["service"] != "gateway":
                codec += dur
                encodes += name in ENCODE
            if name in CLIENT and s["parent"] is None and t0 <= s["start_s"] <= t1:
                coverage += dur
        self.add("hst", hst)
        self.add("route_calls", route_calls, tasks)
        self.add("client_self", client_self * 1e6, events)
        self.add("coverage", coverage, t1 - t0)
        if encodes:
            self.add("codec", codec * 1e6, encodes)
        if mesh_process:
            self.add("mesh_dispatch", mesh_process * 1e6, events)
            self.add("result_wait", result_wait * 1e6, tasks)
