"""The gateway server process the gateway workloads talk to.

Started by ``perfbench/run.py`` with one JSON argument::

    {"spec": {...ServiceSpec.to_dict()...}, "trace_path": null | "<file>"}

It serves a ``GatewayServer`` over the ``sharded`` backend on an
ephemeral loopback port and prints ``{"address": [host, port]}`` once the
backend is open. A line on stdin drains and stops it; it then prints one
JSON line with the server's ``stats`` and the ledger audit of its shards,
and exits. With ``trace_path`` set, the same layer wrappers as the load
process are installed, the server's own spans are switched on through
its ``tracer=`` argument, and every span is written to ``trace_path``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import ServiceSpec  # noqa: E402
from repro.gateway import GatewayConfig, serve_gateway  # noqa: E402
from workloads import ledger_totals  # noqa: E402


def main() -> int:
    args = json.loads(sys.argv[1])
    spec = ServiceSpec.from_dict(args["spec"])
    tracer = None
    if args.get("trace_path"):
        import layers

        tracer = layers.make_tracer("gateway")
        layers.install(tracer)
    config = GatewayConfig(spec=spec, backend="sharded")
    with serve_gateway(config, tracer=tracer) as server:
        print(json.dumps({"address": list(server.address)}), flush=True)
        sys.stdin.readline()
    out = {
        "stats": dict(server.stats),
        "ledger": ledger_totals(server.backend.engine.shards),
    }
    if tracer is not None:
        layers.write_jsonl(tracer.sink.records, args["trace_path"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
