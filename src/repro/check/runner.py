"""Execute a scenario against a fresh router and check invariants.

The runner owns the only mutable world: it builds a
:class:`~repro.core.router.HomeworkRouter` from the scenario's config,
applies each operation at its scheduled simulated time, evaluates the
invariant catalogue after every operation (and over the quiet tail), and
folds a one-line digest per operation into the *event trace*.  The trace
contains only order-independent quantities (simulated time and monotonic
subsystem counters), so its SHA-256 is identical across processes
regardless of ``PYTHONHASHSEED`` — the determinism contract
``python -m repro fuzz --seed N`` is judged by.

Operations referencing state that does not exist (a device never added,
a key never inserted) are *skipped deterministically* rather than
rejected: shrinking deletes arbitrary subsets of operations, and a
skip is the well-defined meaning of the resulting scenario.
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import tempfile
from typing import Dict, List, Optional

from ..core.clock import SimulatedClock
from ..core.config import RouterConfig
from ..core.router import HomeworkRouter
from ..hwdb.database import HomeworkDatabase
from ..hwdb.snapshot import database_digests
from ..net.addresses import MACAddress
from ..services.udev.usbkey import UsbKey
from ..sim.simulator import Simulator
from ..store.archive import WAL_NAME
from ..store.recover import recover_store
from .faults import LinkFault, inject_torn_tail
from .invariants import CheckContext, InvariantViolation, check_all
from .scenario import Op, Scenario

logger = logging.getLogger(__name__)

#: MAC planted by the test-only ``corrupt_flows`` op — deliberately not
#: part of any scenario's device pool, so ``hwdb-flows-known`` fires.
BOGUS_MAC = "02:de:ad:be:ef:99"

#: Checkpoints over the quiet tail after the last operation, so expiry
#: paths (leases, NAT idle, flow timeouts) run under observation.
TAIL_CHECKPOINTS = 4

#: Packet lineages attached to a violating run (most recent drops last).
LINEAGE_LIMIT = 5


class Violation:
    """An invariant failure pinned to the operation that surfaced it."""

    __slots__ = ("invariant", "message", "op_index", "t")

    def __init__(self, invariant: str, message: str, op_index: int, t: float):
        self.invariant = invariant
        self.message = message
        self.op_index = op_index
        self.t = t

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "op_index": self.op_index,
            "t": self.t,
        }

    def __repr__(self) -> str:
        return f"Violation({self.invariant} at op {self.op_index}, t={self.t}: {self.message})"


class RunResult:
    """Everything one scenario execution produced."""

    __slots__ = ("scenario", "trace", "trace_hash", "violation", "skipped", "events", "lineage")

    def __init__(
        self,
        scenario: Scenario,
        trace: List[str],
        trace_hash: str,
        violation: Optional[Violation],
        skipped: int,
        events: int,
        lineage: Optional[List[dict]] = None,
    ):
        self.scenario = scenario
        self.trace = trace
        self.trace_hash = trace_hash
        self.violation = violation
        self.skipped = skipped
        self.events = events
        #: Recent dropped/denied packet lineages at the moment the
        #: violation surfaced — the flight recorder's contribution to
        #: the repro file ("why did my packet do that?").
        self.lineage = lineage if lineage is not None else []

    @property
    def ok(self) -> bool:
        return self.violation is None


class ScenarioRunner:
    """One scenario, one fresh world, one verdict: :meth:`run` executes
    the whole scenario and returns its :class:`RunResult`."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sim = Simulator(seed=scenario.seed)
        self.router = HomeworkRouter(self.sim, RouterConfig(**scenario.config))
        # The flight recorder rides along in-memory and publish-free:
        # sample=0.0 means only dropped/denied packets keep lineages
        # (those are force-published), and publish=False keeps hwdb
        # insert counts — hence run digests — exactly as without it.
        self.router.tracer.enable(sample=0.0, publish=False)
        self.ctx = CheckContext()
        self.ctx.extra_macs = {
            str(self.router.config.router_mac),
            str(self.router.cloud.mac),
            "02:00:00:00:00:02",  # the hwdbd management station
        }
        self._slots: Dict[int, int] = {}  # policy slot -> installed policy id
        self._keys: Dict[str, UsbKey] = {}
        self._dns_answers = 0
        self._dns_failures = 0
        self.skipped = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Boot, apply every op, run the quiet tail, seal the trace.

        Ops stop at the first invariant violation; the tail then is
        skipped.
        """
        self.router.start()
        ops = self.scenario.ops
        trace = [f"scenario seed={self.scenario.seed} ops={len(ops)}"]
        violation: Optional[Violation] = None
        for index, op in enumerate(ops):
            failure: Optional[InvariantViolation] = None
            try:
                self.sim.run_until(max(op.t, self.sim.now))
                status = self._apply(op)
            except InvariantViolation as exc:
                # An op that checks its own outcome (the crash op's
                # recovery digest) reports its finding this way.
                failure, status = exc, "violation"
            except Exception as exc:
                # A scenario that crashes the simulated world is itself a
                # finding — report it as the implicit no-crash invariant
                # so it shrinks and replays like any other violation.
                logger.debug("scenario seed=%d crashed at op %d", self.scenario.seed, index, exc_info=True)
                violation = Violation("no-crash", repr(exc), index, self.sim.now)
                trace.append(f"{index} t={self.sim.now:.6f} {op.kind} crash {self._digest()}")
                break
            trace.append(f"{index} t={self.sim.now:.6f} {op.kind} {status} {self._digest()}")
            if failure is None:
                failure = check_all(self.router, self.ctx)
            if failure is not None:
                violation = Violation(failure.invariant, failure.message, index, self.sim.now)
                break
        if violation is None:
            violation = self._run_tail(trace)
        trace.append(f"end t={self.sim.now:.6f} {self._digest()}")
        digest = hashlib.sha256("\n".join(trace).encode()).hexdigest()
        lineage: List[dict] = []
        if violation is not None:
            lineage = [
                ctx.to_dict() for ctx in self.router.tracer.drops(LINEAGE_LIMIT)
            ]
        return RunResult(
            self.scenario,
            trace,
            digest,
            violation,
            self.skipped,
            self.sim.events_executed,
            lineage,
        )

    def _run_tail(self, trace: List[str]) -> Optional[Violation]:
        """Run out the scenario's quiet tail with periodic checks."""
        last_index = len(self.scenario.ops) - 1
        remaining = self.scenario.duration - self.sim.now
        if remaining <= 0:
            return None
        step = remaining / TAIL_CHECKPOINTS
        for checkpoint in range(TAIL_CHECKPOINTS):
            try:
                self.sim.run_until(self.sim.now + step)
            except Exception as exc:
                logger.debug("scenario seed=%d crashed in tail", self.scenario.seed, exc_info=True)
                trace.append(f"tail{checkpoint} t={self.sim.now:.6f} crash {self._digest()}")
                return Violation("no-crash", repr(exc), last_index, self.sim.now)
            trace.append(f"tail{checkpoint} t={self.sim.now:.6f} {self._digest()}")
            failure = check_all(self.router, self.ctx)
            if failure is not None:
                return Violation(failure.invariant, failure.message, last_index, self.sim.now)
        return None

    def _digest(self) -> str:
        """Order-independent state fingerprint for the event trace."""
        router = self.router
        count = router.metrics.value
        parts = (
            f"{self.sim.now:.6f}",
            self.sim.events_executed,
            len(router.datapath.table),
            count("openflow.cache_hit_total") + count("openflow.table_hit_total"),
            count("dhcp.discover_total"),
            count("dhcp.offer_total"),
            count("dhcp.ack_total"),
            count("dhcp.nak_total"),
            len(router.dhcp.leases),
            count("dnsproxy.query_total"),
            count("dnsproxy.blocked_total"),
            count("routing.flow_install_total"),
            count("routing.flow_block_total"),
            # Telemetry rows are left out: which metrics exist is not
            # router behaviour, and the set grows as counters are added.
            count("hwdb.insert_total") - count("obs.flush_row_total"),
            count("policy.enforcement_total"),
            len(router.policy_engine.policies()),
            count("openflow.channel_disconnect_total"),
            count("openflow.channel_reconnect_total"),
            self._dns_answers,
            self._dns_failures,
            self.skipped,
        )
        return ":".join(str(part) for part in parts)

    # ------------------------------------------------------------------
    # Operation dispatch
    # ------------------------------------------------------------------

    def _apply(self, op: Op) -> str:
        handler = getattr(self, "_op_" + op.kind)
        return handler(op.args)

    def _skip(self, reason: str) -> str:
        self.skipped += 1
        return f"skip:{reason}"

    def _host(self, args):
        return self.ctx.hosts.get(str(args.get("device")))

    def _op_add_device(self, args) -> str:
        name = str(args["name"])
        if name in self.ctx.hosts:
            return self._skip("duplicate-device")
        position = args.get("position") or (5.0, 5.0)
        host = self.router.add_device(
            name,
            str(args["mac"]),
            wireless=bool(args.get("wireless", False)),
            position=(float(position[0]), float(position[1])),
            device_class=str(args.get("device_class", "generic")),
        )
        self.ctx.hosts[name] = host
        return "ok"

    def _op_start_dhcp(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        host.start_dhcp()
        return "ok"

    def _op_permit(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        self.router.permit(host)
        return "ok"

    def _op_deny(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        self.router.deny(host)
        return "ok"

    def _op_release(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        host.release_dhcp()
        return "ok"

    def _op_dns_lookup(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        if host.ip is None or host.dns_server is None:
            return self._skip("not-bound")

        def on_answer(address, rcode) -> None:
            if address is not None:
                self._dns_answers += 1
            else:
                self._dns_failures += 1

        host.resolve(str(args["name"]), on_answer)
        return "ok"

    def _op_tcp_flow(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        if host.ip is None or host.gateway is None:
            return self._skip("not-bound")
        ip = self.router.cloud.lookup(str(args["name"]))
        if ip is None:
            return self._skip("no-such-site")
        nbytes = int(args.get("nbytes", 1024))
        conn = host.tcp_connect(ip, 80)
        conn.on_connect = lambda: conn.send(f"GET {nbytes} /fuzz".encode())

        def close_later() -> None:
            if host.ip is not None:
                conn.close()

        self.sim.schedule(20.0, close_later)
        return "ok"

    def _op_udp_flow(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        if host.ip is None or host.gateway is None:
            return self._skip("not-bound")
        host.udp_send(self.router.config.upstream_ip, int(args["port"]), b"fuzz-datagram")
        return "ok"

    def _op_ping(self, args) -> str:
        host = self._host(args)
        if host is None:
            return self._skip("no-device")
        if host.ip is None or host.gateway is None:
            return self._skip("not-bound")
        host.ping(self.router.config.upstream_ip, lambda ok, rtt: None)
        return "ok"

    def _op_policy_install(self, args) -> str:
        slot = int(args["slot"])
        response = self.router.control_api.request(
            "POST", "/policies", dict(args["document"])
        )
        if response.status != 201:
            return self._skip("policy-rejected")
        self._slots[slot] = int(response.json()["id"])
        return "ok"

    def _op_policy_remove(self, args) -> str:
        policy_id = self._slots.pop(int(args["slot"]), None)
        if policy_id is None:
            return self._skip("no-policy")
        self.router.control_api.request("DELETE", f"/policies/{policy_id}")
        return "ok"

    def _op_usb_insert(self, args) -> str:
        label = str(args["label"])
        if label in self._keys:
            return self._skip("key-present")
        if str(args.get("key_kind", "unlock")) == "policy":
            key = UsbKey.policy_key(
                str(args["key_id"]), dict(args["document"]), label=label
            )
        else:
            key = UsbKey.unlock_key(str(args["key_id"]), label=label)
        self._keys[label] = key
        self.router.udev.insert(key)
        return "ok"

    def _op_usb_remove(self, args) -> str:
        label = str(args["label"])
        if label not in self._keys:
            return self._skip("no-key")
        del self._keys[label]
        self.router.udev.remove(label)
        return "ok"

    def _op_link_fault(self, args) -> str:
        name = str(args.get("device"))
        if name not in self.ctx.hosts:
            return self._skip("no-device")
        link = self.router.device_link(name)
        link.fault = LinkFault(
            drop=float(args.get("drop", 0.0)),
            duplicate=float(args.get("duplicate", 0.0)),
            reorder=float(args.get("reorder", 0.0)),
            delay=float(args.get("delay", 0.01)),
            until=self.sim.now + float(args.get("duration", 5.0)),
        )
        return "ok"

    def _op_channel_down(self, args) -> str:
        self.router.channel.disconnect()
        self.sim.schedule(float(args.get("duration", 1.0)), self.router.channel.reconnect)
        return "ok"

    def _op_time_warp(self, args) -> str:
        self.sim.run_until(self.sim.now + float(args.get("delta", 10.0)))
        return "ok"

    def _op_hwdb_pressure(self, args) -> str:
        rows = int(args.get("rows", 100))
        router_ip = self.router.config.router_ip
        router_mac = self.router.config.router_mac
        for index in range(rows):
            self.router.db.insert(
                "flows",
                {
                    "src_ip": router_ip,
                    "dst_ip": router_ip,
                    "proto": 17,
                    "src_port": 1024 + (index % 40000),
                    "dst_port": 9,
                    "src_mac": router_mac,
                    "packets": 1,
                    "bytes": 64,
                },
            )
        return "ok"

    def _op_hwdb_crash(self, args) -> str:
        """Simulated power cut: copy the store image, mangle, recover.

        The live router keeps running (the rest of the scenario is
        undisturbed); recovery is exercised on a copy of the on-disk
        state.  Without a torn tail the recovered database must be
        digest-identical to the live rings.  With one it must still
        recover *cleanly* — a torn final write loses whole batches,
        never crashes and never invents rows.  A breach raises
        :class:`InvariantViolation`, which :meth:`run` pins to this op.
        """
        store = self.router.store
        if store is None:
            return self._skip("no-store")
        store.flush()
        torn_mode = args.get("torn")
        image = tempfile.mkdtemp(prefix="repro-crash-")
        try:
            shutil.rmtree(image)
            shutil.copytree(store.root, image)
            torn = False
            if torn_mode is not None:
                torn = inject_torn_tail(
                    os.path.join(image, WAL_NAME),
                    mode=str(torn_mode),
                    amount=int(args.get("amount", 1)),
                )
            scratch = HomeworkDatabase(SimulatedClock())
            recovered = recover_store(image, scratch)
            try:
                if not torn:
                    live = {
                        name: digest
                        for name, digest in database_digests(self.router.db).items()
                        if name in store.tiers
                    }
                    rebuilt = database_digests(scratch)
                    if rebuilt != live:
                        differing = sorted(
                            name
                            for name in set(live) | set(rebuilt)
                            if live.get(name) != rebuilt.get(name)
                        )
                        raise InvariantViolation(
                            "store-recover-digest",
                            f"crash recovery diverged from live rings on "
                            f"tables {differing}",
                        )
                else:
                    # A torn tail may lose flushed batches (or, if the
                    # cut lands exactly on a frame boundary, nothing at
                    # all) — recovery must yield a strict *prefix* of
                    # the live history, never invented rows.
                    for name in sorted(store.tiers):
                        live_total = self.router.db.table(name).total_inserted
                        rebuilt_total = scratch.table(name).total_inserted
                        if rebuilt_total > live_total:
                            raise InvariantViolation(
                                "store-recover-digest",
                                f"torn-tail recovery of {name!r} invented "
                                f"rows: {rebuilt_total} > live {live_total}",
                            )
            finally:
                recovered.store.close()
        finally:
            shutil.rmtree(image, ignore_errors=True)
        return "ok:torn" if torn_mode is not None and torn else "ok"

    def _op_corrupt_flows(self, args) -> str:
        self.router.db.insert(
            "flows",
            {
                "src_ip": self.router.config.router_ip,
                "dst_ip": self.router.config.router_ip,
                "proto": 17,
                "src_port": 6666,
                "dst_port": 6666,
                "src_mac": MACAddress(BOGUS_MAC),
                "packets": 1,
                "bytes": 1,
            },
        )
        return "ok"


def run_scenario(scenario: Scenario) -> RunResult:
    """Convenience: build a runner, run it, return the result."""
    return ScenarioRunner(scenario).run()


__all__ = [
    "BOGUS_MAC",
    "LINEAGE_LIMIT",
    "InvariantViolation",
    "RunResult",
    "ScenarioRunner",
    "Violation",
    "run_scenario",
]
