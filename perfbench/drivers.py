"""Stand up, serve through, and tear down each workload's backend.

A driver owns one round's system: ``open`` is the timed set-up (HST
publish per shard, plus the gateway process up and handshaken, or the
mesh peers spawned and joined), ``close`` the timed teardown, which ends
only when every child process has exited. ``pids`` names the system's
own processes, for CPU and memory accounting from ``/proc``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from repro.api import AssignmentClient, make_backend
from repro.gateway import RemoteBackend
from repro.gateway.protocol import BIN1_CODEC

from workloads import MESH_REBASE_EVERY, CheckFailed, check_ledger_totals, ledger_totals

_CHILD = Path(__file__).resolve().parent / "gateway_child.py"
_CHILD_TIMEOUT_S = 60.0


class LocalDriver:
    """The ``sharded`` backend inside the load process."""

    def __init__(self, plan, tracer=None, trace_path=None) -> None:
        self.plan = plan
        self.tracer = tracer
        self.client = None

    def open(self) -> None:
        backend = make_backend("sharded", self.plan.spec)
        self.client = AssignmentClient(backend, tracer=self.tracer)
        self.client.open()

    def pids(self) -> list[int]:
        return []

    def audit(self) -> list[str]:
        return check_ledger_totals(ledger_totals(self.client.backend.engine.shards), self.plan)

    def counters(self) -> dict:
        return {}

    def close(self) -> None:
        # dropping the last reference frees the engine's trees and
        # ledgers: that release is part of what tearing down costs
        self.client.close()
        self.client = None

    abort = close


class GatewayDriver:
    """A gateway process over the ``sharded`` backend, one bin1 connection."""

    def __init__(self, plan, tracer=None, trace_path=None) -> None:
        self.plan = plan
        self.tracer = tracer
        self.trace_path = trace_path
        self.proc = None
        self.client = None
        self.child = {}

    def open(self) -> None:
        arg = {"spec": self.plan.spec.to_dict(), "trace_path": self.trace_path}
        self.proc = subprocess.Popen(
            [sys.executable, str(_CHILD), json.dumps(arg)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise CheckFailed("gateway process exited before serving")
        host, port = json.loads(line)["address"]
        backend = RemoteBackend(self.plan.spec, address=(host, port))
        self.client = AssignmentClient(
            backend, tracer=self.tracer, pipeline=self.plan.workload.pipeline
        )
        self.client.open()
        if backend.codec != BIN1_CODEC:
            raise CheckFailed(f"session negotiated {backend.codec}, not bin1")
        if self.plan.workload.pipeline > 1 and not backend.supports_pipeline:
            raise CheckFailed("session did not negotiate pipelining")

    def pids(self) -> list[int]:
        return [self.proc.pid]

    def audit(self) -> list[str]:
        return []  # the gateway's ledgers are audited from its exit report

    def counters(self) -> dict:
        backend = self.client.backend
        return {"bytes": backend.bytes_sent + backend.bytes_received}

    def close(self) -> None:
        self.client.close()
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        _wait_exit(self.proc)
        self.proc.stdin.close()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not line:
            raise CheckFailed(f"gateway process exited with {self.proc.returncode}")
        self.child = json.loads(line)

    def abort(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.proc is not None:
            self.proc.kill()
            _wait_exit(self.proc)
            self.proc.stdin.close()
            self.proc.stdout.close()


def _wait_exit(proc) -> None:
    """Wait for a child to exit, timed to the millisecond.

    ``Popen.wait(timeout)`` sleeps up to 50 ms between polls, which would
    round ``teardown_s`` up to its own 50 ms steps.
    """
    deadline = time.monotonic() + _CHILD_TIMEOUT_S
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise CheckFailed("gateway process did not exit")
        time.sleep(0.001)


class MeshDriver:
    """``MeshBackend`` with two fork-spawned peers over loopback bin1."""

    def __init__(self, plan, tracer=None, trace_path=None) -> None:
        self.plan = plan
        self.tracer = tracer
        self.client = None

    def open(self) -> None:
        backend = make_backend(
            "mesh",
            self.plan.spec,
            n_peers=2,
            spawn="fork",
            checkpoint_every=self.plan.mesh_checkpoint_every,
            rebase_every=MESH_REBASE_EVERY,
            tracer=self.tracer,
        )
        self.client = AssignmentClient(backend, tracer=self.tracer)
        self.client.open()

    def pids(self) -> list[int]:
        return [proc.pid for proc in self.client.backend.workers]

    def audit(self) -> list[str]:
        return []  # the peers' ledgers are audited through the report

    def counters(self) -> dict:
        return self.client.backend.coordinator.telemetry()

    def close(self) -> None:
        workers = list(self.client.backend.workers)
        self.client.close()
        self.client = None
        if any(proc.is_alive() for proc in workers):
            raise CheckFailed("a mesh peer outlived close()")

    def abort(self) -> None:
        if self.client is not None:
            self.client.close()


DRIVERS = {"local": LocalDriver, "gateway": GatewayDriver, "mesh": MeshDriver}
