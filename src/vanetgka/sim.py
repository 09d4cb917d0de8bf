"""Deterministic discrete-event simulation of the full protocol stack.

Vehicles move at one constant speed along a one-dimensional road divided into
RSU service areas (nearest RSU wins).  Everything a node does goes
through the real protocol modules and the real codec; computation time
is charged from ``costs.StepCharges`` rather than wall clock, so runs
reproduce paper-scale delay magnitudes on any host.

Each node is a serial processor: work queues on a per-node busy cursor,
and a message's verification delay includes the time it waited for the
processor.  Transmission time is wire bytes over the configured
bandwidth plus a fixed propagation term (``PROPAGATION_MS``).

Scheduling is a single binary heap of ``(time_ms, seq, handler, args)``
entries, ordered by time and then by push order; ``run()`` pops one and
calls ``handler(self, time_ms, *args)``.  Every event carries the nodes it
concerns, and nodes are compared by identity.  A send is one delivery entry
carrying the sender node and the tuple of its receiver nodes, all of
which it reaches at the same time; ``Simulation._on_delivery`` takes them
in order.  For each, a handler per receiver kind and message type returns
when its verification ended (None if its guard ignores the message); a
``ProtocolError`` it lets out counts in ``Simulation.drops`` by (message
type, error class), an end time becomes one delay sample.  Byte node ids
are data only: session keys, sample and trace labels.

A vehicle keeps each fact once: it is on the road while it has a nearest
RSU node (``target``), and joined while its member state holds a group key.
An RSU's members are the joined vehicles in ``Simulation.members[rsu]``
(vehicle node -> the fid it was admitted under, in admission order), which an
offer sets and a crossing pops; its notices, leave updates and group
broadcasts reach them.  The map is not held by a node, so nodes form no cycle.

Every entry a handler pushes lies strictly after the time it runs at, so
simulated time never goes backwards.  All randomness flows from one
seeded generator, and reports are byte-identical across runs with the
same configuration.

Set SIM_LOG=trace to dump the event stream to stderr, one line per event
naming its nodes by id.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import os
import random
import sys
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import pairwise
from pathlib import Path

from . import auth, groupcomm, groupkey, wire
from .costs import SYM_DECRYPT_MS, DelayMean, DelaySample, PrimitiveTimings, StepCharges
from .crypto import GElem
from .errors import ProtocolError
from .gka import run_agreement
from .groupkey import GroupState, MemberState, NeighborGkStore
from .registry import (
    NodeCredentials,
    refresh_vehicle_epoch,
    register_rsu,
    register_vehicle,
    ta_init,
)

PROPAGATION_MS = 0.005


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation parameters; defaults follow the evaluation setup."""

    road_length_m: float = 1000.0
    sim_time_s: float = 20.0
    message_size_bytes: int = 200
    broadcast_interval_ms: float = 300.0
    interval_variance_s: float = 0.05
    rsu_range_m: float = 600.0
    vehicle_range_m: float = 300.0
    bandwidth_mbps: float = 6.0
    n_vehicles: int = 10
    n_rsus: int = 2
    vehicle_speed_mps: float = 20.0
    illegal_fraction: float = 0.05
    rng_seed: int = 1
    timings: PrimitiveTimings = field(default_factory=PrimitiveTimings)
    # plumbing knobs beyond the published table
    delta_max_ms: float = 500.0
    crypto_profile: str = "default"

    def validate(self) -> None:
        for name in (
            "road_length_m", "sim_time_s", "message_size_bytes", "broadcast_interval_ms",
            "rsu_range_m", "vehicle_range_m", "bandwidth_mbps", "vehicle_speed_mps",
            "n_rsus", "delta_max_ms",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be in (0, inf), got {getattr(self, name)}")
        for name in ("n_vehicles", "interval_variance_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be in [0, inf), got {getattr(self, name)}")
        if not 0 <= self.illegal_fraction <= 1:
            raise ValueError("illegal_fraction outside [0, 1]")
        if self.interval_variance_s * 1000.0 >= self.broadcast_interval_ms:
            # a jittered broadcast interval must stay positive
            raise ValueError("interval_variance_s must be below broadcast_interval_ms")
        self.timings.validate()

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(_checked_fields(cls, d, "config"))
        timings = _checked_fields(PrimitiveTimings, d.pop("timings", {}), "timings")
        return cls(timings=PrimitiveTimings(**timings), **d)

    @classmethod
    def from_json_file(cls, path: Path | str) -> "ScenarioConfig":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _checked_fields(cls, d: object, what: str) -> dict:
    """``d`` if it is an object of ``cls`` fields, each of its default's type;
    an int may stand for a float, and an object for ``timings``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    kinds = {f.name: dict if f.default is MISSING else type(f.default) for f in fields(cls)}
    unknown = set(d) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    for name, value in d.items():
        kind = (int, float) if kinds[name] is float else kinds[name]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{what} field {name} must be {kinds[name].__name__}, got {value!r}")
    return d


@dataclass(frozen=True)
class MetricsReport:
    """One density row of the simulation output."""

    n_vehicles: int
    average_delay_ms: float | None
    total_overhead_bytes: int
    auth_count: int
    fastpath_count: int
    rekey_count: int


@dataclass(eq=False)
class _RsuNode:
    creds: NodeCredentials
    beacon: wire.RsuBeacon
    pos: float
    group: GroupState = field(default_factory=GroupState)
    sessions: dict[bytes, auth.AuthSession] = field(default_factory=dict)
    neighbor_store: NeighborGkStore = field(default_factory=NeighborGkStore)
    session_key: GElem | None = None
    busy_until: float = 0.0

    @property
    def node_id(self) -> bytes:
        return self.creds.tid


@dataclass(eq=False)
class _VehicleNode:
    creds: NodeCredentials
    legit: bool
    pos0: float  # position at time 0; every vehicle moves at cfg.vehicle_speed_mps
    target: _RsuNode | None = None  # the nearest RSU; None once off the road
    session: auth.AuthSession | None = None
    auth_started_ms: float = -1.0
    mstate: MemberState | None = None
    prev_gk: GElem | None = None
    busy_until: float = 0.0
    broadcast_armed: bool = False

    @property
    def node_id(self) -> bytes:
        return self.creds.tid

    @property
    def on_road(self) -> bool:
        return self.target is not None

    @property
    def joined(self) -> bool:
        """Holds its RSU's group key: ``mstate`` is set, and its ``gk`` too."""
        return self.mstate is not None and self.mstate.gk is not None


_Node = _RsuNode | _VehicleNode


class Simulation:
    def __init__(self, cfg: ScenarioConfig, keep_samples: bool = False):
        cfg.validate()
        self.cfg = cfg
        self.rng = random.Random(cfg.rng_seed)
        self.charges = StepCharges(cfg.timings, SYM_DECRYPT_MS)
        self.trace = os.environ.get("SIM_LOG") == "trace"
        self.keep_samples = keep_samples
        self.samples = []

        self.ta = ta_init(cfg.crypto_profile, self.rng)
        self.params = self.ta.params
        self.end_ms = cfg.sim_time_s * 1000.0

        spacing = cfg.road_length_m / cfg.n_rsus
        self.rsus: list[_RsuNode] = []
        for k in range(cfg.n_rsus):
            pos = (k + 0.5) * spacing
            creds, beacon = register_rsu(
                self.ta, b"rsu-%03d" % k, (int(pos * 100), 0), self.rng
            )
            self.rsus.append(_RsuNode(creds=creds, beacon=beacon, pos=pos))
        self.members: dict[_RsuNode, dict[_VehicleNode, bytes]] = {r: {} for r in self.rsus}
        if cfg.n_rsus >= 2:
            keys, _, _ = run_agreement(
                self.params, [r.creds for r in self.rsus], self.rng
            )
            for r in self.rsus:
                r.session_key = keys[r.creds.tid]

        n_illegal = round(cfg.n_vehicles * cfg.illegal_fraction)
        illegal_set = set(self.rng.sample(range(cfg.n_vehicles), n_illegal))
        self.vehicles: list[_VehicleNode] = []
        for i in range(cfg.n_vehicles):
            creds = register_vehicle(self.ta, b"veh-%04d" % i)
            if i in illegal_set:
                # unissued certification value: fails key confirmation
                fake = self.rng.randrange(1, self.params.q)
                while fake == creds.s_u:
                    fake = self.rng.randrange(1, self.params.q)
                creds = replace(creds, s_u=fake)
            self.vehicles.append(
                _VehicleNode(
                    creds=creds,
                    legit=i not in illegal_set,
                    pos0=self.rng.uniform(0, cfg.road_length_m),
                )
            )

        # metrics
        self.auth_count = 0
        self.fastpath_count = 0
        self.rekey_count = 0
        self.total_overhead_bytes = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        # rejected deliveries by (message type, ProtocolError subclass) name
        self.drops: Counter[tuple[str, str]] = Counter()
        self.incomplete_associations = 0
        self.delay = DelayMean()

        self._heap: list[tuple] = []
        self._seq = 0
        self._schedule_initial_events()

    # Totals that the benchmark and the tests read, as views of ``drops``.

    @property
    def failed_full_auths(self) -> int:
        return sum(n for (kind, _), n in self.drops.items() if kind == "AuthConfirm")

    @property
    def stale_drops(self) -> int:
        return self.drops["AuthHello", "StaleTimestamp"]

    @property
    def mac_drops(self) -> int:
        return self.drops.total() - self.stale_drops - self.failed_full_auths

    # -- scheduling ----------------------------------------------------------

    def _push(self, time_ms: float, handler, *args) -> None:
        """Schedule ``handler(self, time_ms, *args)``; ``handler`` is an unbound
        method, so that no heap entry holds a reference cycle."""
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, handler, args))

    def _schedule_initial_events(self) -> None:
        cfg = self.cfg
        for rsu in self.rsus:
            phase = self.rng.uniform(0, cfg.broadcast_interval_ms)
            self._push(phase, Simulation._on_beacon, rsu)
        for veh in self.vehicles:
            veh.target = min(self.rsus, key=lambda rsu: abs(rsu.pos - veh.pos0))
            for t_ms, new_target in self._crossings(veh):
                if t_ms <= self.end_ms:
                    self._push(t_ms, Simulation._on_vehicle_enter_range, veh, new_target)

    def _crossings(self, veh: _VehicleNode) -> list[tuple[float, _RsuNode | None]]:
        """Times at which the vehicle's nearest RSU changes or it exits."""
        speed = self.cfg.vehicle_speed_mps
        out: list[tuple[float, _RsuNode | None]] = []
        for left, right in pairwise(self.rsus):
            midpoint = (left.pos + right.pos) / 2
            if veh.pos0 < midpoint:
                out.append(((midpoint - veh.pos0) / speed * 1000.0, right))
        out.append(((self.cfg.road_length_m - veh.pos0) / speed * 1000.0, None))
        return out

    def _pos(self, veh: _VehicleNode, now_ms: float) -> float:
        return veh.pos0 + self.cfg.vehicle_speed_mps * now_ms / 1000.0

    # -- busy cursors and transmission ------------------------------------------

    def _charge(self, node, now: float, cost: float) -> float:
        """Queue ``cost`` on the node's processor; returns when it is done."""
        node.busy_until = max(now, node.busy_until) + cost
        return node.busy_until

    def _tx_ms(self, nbytes: int) -> float:
        return nbytes * 8 / (self.cfg.bandwidth_mbps * 1000.0) + PROPAGATION_MS

    def _send(
        self,
        msg,
        sender: _Node,
        receivers: list[_Node] | tuple[_Node, ...],
        depart_ms: float,
        create_cost: float,
    ) -> None:
        """Encode once, count overhead if a vehicle sends, schedule one
        delivery entry for all receivers.

        The message id is the send's sequence number, ``messages_sent``."""
        data = wire.encode_message(msg, self.params.element_width)
        decoded = wire.decode_message(data, self.params.element_width)
        self.messages_sent += 1
        msg_id = self.messages_sent
        if type(sender) is _VehicleNode:
            self.total_overhead_bytes += groupcomm.measure_overhead(decoded)
        tx = self._tx_ms(len(data))
        arrive = depart_ms + tx
        if arrive > self.end_ms:
            return
        args = (decoded, msg_id, sender, tuple(receivers), create_cost, tx)
        self._push(arrive, Simulation._on_delivery, *args)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> MetricsReport:
        while self._heap:
            time_ms, _, handler, args = heapq.heappop(self._heap)
            if time_ms > self.end_ms:
                break
            if self.trace:
                self._trace(time_ms, handler, args)
            handler(self, time_ms, *args)
        return self._report()

    def _trace(self, time_ms: float, handler, args: tuple) -> None:
        """A delivery prints one line per receiver; any other event, its
        handler's name after ``_on_`` and the ids of its nodes (None for a
        vehicle's exit from the road)."""
        if handler is Simulation._on_delivery:
            msg, msg_id, sender, receivers = args[:4]
            lines = [
                f"message_delivery {type(msg).__name__} #{msg_id} "
                f"{sender.node_id.decode()} -> {receiver.node_id.decode()}"
                for receiver in receivers
            ]
        else:
            nodes = " ".join("None" if n is None else n.node_id.decode() for n in args)
            lines = [f"{handler.__name__.removeprefix('_on_')} {nodes}"]
        for line in lines:
            print(f"[sim] t={time_ms:10.3f} {line}", file=sys.stderr, flush=True)

    def _report(self) -> MetricsReport:
        return MetricsReport(
            n_vehicles=self.cfg.n_vehicles,
            average_delay_ms=self.delay.value(),
            total_overhead_bytes=self.total_overhead_bytes,
            auth_count=self.auth_count,
            fastpath_count=self.fastpath_count,
            rekey_count=self.rekey_count,
        )

    # -- beacons and association ---------------------------------------------------

    def _in_rsu_range(self, rsu: _RsuNode, pos: float) -> bool:
        return abs(rsu.pos - pos) <= self.cfg.rsu_range_m

    def _needs_auth(self, veh: _VehicleNode, rsu: _RsuNode, now: float) -> bool:
        if veh.joined or veh.target is not rsu:
            return False
        # restart a stalled attempt after a few beacon periods
        stalled = now - veh.auth_started_ms >= 2.5 * self.cfg.broadcast_interval_ms
        return veh.session is None or stalled

    def _on_beacon(self, now: float, rsu: _RsuNode) -> None:
        for veh in self.vehicles:
            if self._needs_auth(veh, rsu, now) and self._in_rsu_range(rsu, self._pos(veh, now)):
                self._send(rsu.beacon, rsu, (veh,), now, 0.0)
        self._push(now + self.cfg.broadcast_interval_ms, Simulation._on_beacon, rsu)

    def _on_vehicle_enter_range(
        self, now: float, veh: _VehicleNode, new_target: _RsuNode | None
    ) -> None:
        """The vehicle leaves its RSU for ``new_target``, or the road if None;
        its exit is its last crossing, so it is on the road until then."""
        rsu = veh.target
        # popped first, so that a departing member is sent no leave update
        fid = self.members[rsu].pop(veh, None)
        if veh.joined:
            veh.prev_gk = veh.mstate.gk
            self._rsu_evict(now, rsu, fid)
        elif veh.legit and veh.session is not None:
            self.incomplete_associations += 1
        rsu.sessions.pop(veh.node_id, None)
        veh.session = None
        veh.mstate = None
        veh.target = new_target

    def _rsu_evict(self, now: float, rsu: _RsuNode, fid: bytes) -> None:
        """Departure notice reaches the RSU; rekey and notify the group."""
        if fid not in rsu.group.members:
            return
        end = self._charge(rsu, now, self.charges.leave_rekey(len(rsu.group.members)))
        _, update = groupkey.handle_leave(self.params, rsu.group, fid, self.rng)
        self.rekey_count += 1
        if update is not None:
            members = self._group_members(rsu)
            self._send(update, rsu, members, end, self.charges.seal)
            self._transfer_group_key(rsu, end)

    def _group_members(self, rsu: _RsuNode) -> list[_VehicleNode]:
        """The joined vehicles ``rsu`` admitted, in admission order."""
        return [veh for veh in self.members[rsu] if veh.joined]

    def _transfer_group_key(self, rsu: _RsuNode, depart: float) -> None:
        if rsu.session_key is None:
            return
        msg = groupkey.transfer_gk(self.params, rsu.group, rsu.session_key, self.rng)
        others = [other for other in self.rsus if other is not rsu]
        self._send(msg, rsu, others, depart, self.charges.seal)

    # -- deliveries -------------------------------------------------------------------

    def _on_delivery(
        self,
        now: float,
        msg,
        msg_id: int,
        sender: _Node,
        receivers: tuple[_Node, ...],
        create_cost: float,
        tx: float,
    ) -> None:
        """The one delivery path (see the module docstring)."""
        for node in receivers:
            self.messages_delivered += 1
            if type(node) is _VehicleNode:
                if not node.on_road:
                    continue
                handler = _VEHICLE_HANDLERS.get(type(msg))
            else:
                handler = _RSU_HANDLERS.get(type(msg))
            if handler is None:
                continue
            try:
                end = handler(self, now, node, msg, sender)
            except ProtocolError as exc:
                self.drops[type(msg).__name__, type(exc).__name__] += 1
                continue
            if end is None:
                continue
            self.delay.add(sender.node_id, create_cost, tx, end - now)
            if self.keep_samples:
                self.samples.append(
                    DelaySample(sender.node_id, msg_id, node.node_id, create_cost, tx, end - now)
                )

    # -- vehicle side -------------------------------------------------------------------

    def _vehicle_handle_beacon(self, now, veh, msg, sender):
        rsu = veh.target
        if sender is not rsu or not self._needs_auth(veh, rsu, now):
            return None
        end = self._charge(veh, now, self.charges.beacon_verify + self.charges.epoch_refresh)
        epoch = refresh_vehicle_epoch(veh.creds, self.params, self.rng)
        veh.session = auth.start_vehicle_auth(self.params, epoch, msg, rsu.creds.tid)
        veh.auth_started_ms = now
        veh.mstate = None  # a restart abandons any in-flight share offer
        hello_end = self._charge(veh, end, self.charges.hello_create)
        hello = auth.make_hello(self.params, veh.session, veh.prev_gk, self.rng, int(hello_end))
        self._send(hello, veh, (rsu,), hello_end, self.charges.hello_create)
        return end

    def _vehicle_handle_challenge(self, now, veh, msg, sender):
        rsu = veh.target
        if veh.session is None or veh.joined or sender is not rsu:
            return None
        if auth.is_fastpath_ack(msg):
            end = self._charge(veh, now, self.charges.ack)
            auth.vehicle_apply_fastpath_ack(self.params, veh.session, msg)
        else:
            end = self._charge(veh, now, self.charges.confirm_create)
            confirm = auth.vehicle_confirm(self.params, veh.session, veh.creds, msg, self.rng)
            self._send(confirm, veh, (rsu,), end, self.charges.confirm_create)
        # pipeline the share offer right behind the ack or the confirmation
        offer_end = self._charge(veh, end, self.charges.offer_create)
        veh.mstate, offer = groupkey.member_offer(self.params, veh.session, self.rng)
        self._send(offer, veh, (rsu,), offer_end, self.charges.offer_create)
        return end

    def _vehicle_handle_share_update(self, now, veh, msg, sender):
        if veh.mstate is None or veh.joined:
            return None
        end = self._charge(veh, now, self.charges.derive)
        groupkey.member_derive(self.params, veh.mstate, msg)
        if not veh.broadcast_armed:
            # one self-rescheduling broadcast chain per vehicle, ever
            veh.broadcast_armed = True
            self._push(end + self._jittered_interval(), Simulation._on_vehicle_broadcast, veh)
        return end

    def _vehicle_handle_notice(self, now, veh, msg, sender):
        if not veh.joined:
            return None
        end = self._charge(veh, now, self.charges.seal)
        groupkey.member_apply_notice(self.params, veh.mstate, msg)
        return end

    def _vehicle_handle_leave_update(self, now, veh, msg, sender):
        if not veh.joined:
            return None
        end = self._charge(veh, now, self.charges.derive)
        groupkey.member_derive_from_leave(self.params, veh.mstate, msg, veh.mstate.gk)
        return end

    def _vehicle_handle_broadcast(self, now, veh, msg, sender):
        if not veh.joined:
            return None
        end = self._charge(veh, now, self.charges.seal)
        groupcomm.open_broadcast(self.params, veh.mstate.gk, msg)
        return end

    def _jittered_interval(self) -> float:
        jitter = self.cfg.interval_variance_s * 1000.0
        return self.cfg.broadcast_interval_ms + self.rng.uniform(-jitter, jitter)

    def _on_vehicle_broadcast(self, now: float, veh: _VehicleNode) -> None:
        if not veh.on_road:
            return
        if veh.joined:
            rsu = veh.target
            end = self._charge(veh, now, self.charges.seal)
            payload = self.rng.randbytes(self.cfg.message_size_bytes)
            msg = groupcomm.broadcast(
                self.params, veh.mstate.gk, veh.mstate.fid, payload, self.rng
            )
            pos, near = self._pos(veh, now), self.cfg.vehicle_range_m
            receivers = [rsu] if self._in_rsu_range(rsu, pos) else []
            receivers += [
                m
                for m in self.members[rsu]
                if m.joined and m is not veh and abs(self._pos(m, now) - pos) <= near
            ]
            self._send(msg, veh, receivers, end, self.charges.seal)
        self._push(now + self._jittered_interval(), Simulation._on_vehicle_broadcast, veh)

    # -- rsu side --------------------------------------------------------------------

    def _rsu_handle_hello(self, now, rsu, msg, sender):
        try:
            # freshness is checked first, against the busy cursor
            session, challenge = auth.process_hello(
                self.params,
                rsu.creds,
                msg,
                now_ms=max(now, rsu.busy_until),
                delta_max_ms=self.cfg.delta_max_ms,
                neighbor_gks=rsu.neighbor_store.candidates(),
                rng=self.rng,
            )
        except ProtocolError:
            self._charge(rsu, now, self.charges.hello_stale)
            raise
        rsu.sessions[sender.node_id] = session
        if challenge is None:
            verify_cost, reply_cost = self.charges.hello_fast, self.charges.ack
            reply = auth.make_fastpath_ack(self.params, session)
        else:
            verify_cost, reply_cost = self.charges.hello_full, self.charges.challenge_create
            reply = challenge
        end = self._charge(rsu, now, verify_cost + reply_cost)
        self._send(reply, rsu, (sender,), end, reply_cost)
        return end

    def _rsu_handle_confirm(self, now, rsu, msg, sender):
        session = rsu.sessions.get(sender.node_id)
        if session is None:
            return None
        end = self._charge(rsu, now, self.charges.confirm_verify)
        auth.rsu_verify(self.params, rsu.creds, session, msg)
        return end

    def _rsu_handle_offer(self, now, rsu, msg, sender):
        session = rsu.sessions.get(sender.node_id)
        if session is None or not auth.is_authenticated(session):
            return None
        cost = self.charges.join_rekey(len(rsu.group.members))
        # a re-authentication of the same vehicle supersedes any
        # membership left over from an abandoned earlier attempt
        old_fid = self.members[rsu].get(sender)
        if old_fid is not None and old_fid != session.fid:
            rsu.group.members.pop(old_fid, None)
        end = self._charge(rsu, now, cost)
        result = groupkey.handle_join(self.params, rsu.group, session, msg, self.rng)
        self.members[rsu][sender] = session.fid
        self.rekey_count += 1
        if session.state is auth.AuthState.FASTPATH_DONE:
            self.fastpath_count += 1
        else:
            self.auth_count += 1
        # the joiner gets its per-member material; everyone else learns the
        # new key from the notice under the previous one
        joiner_update = result.share_updates[session.fid]
        self._send(joiner_update, rsu, (sender,), end, self.charges.seal)
        if result.notice is not None:
            members = [m for m in self._group_members(rsu) if m is not sender]
            if members:
                self._send(result.notice, rsu, members, end, self.charges.seal)
        self._transfer_group_key(rsu, end)
        return end

    def _rsu_handle_transfer(self, now, rsu, msg, sender):
        end = self._charge(rsu, now, self.charges.seal)
        groupkey.receive_gk_transfer(
            self.params, rsu.neighbor_store, sender.node_id, msg, rsu.session_key
        )
        return end

    def _rsu_handle_broadcast(self, now, rsu, msg, sender):
        if rsu.group.gk is None:
            return None
        end = self._charge(rsu, now, self.charges.seal)
        groupcomm.open_broadcast(self.params, rsu.group.gk, msg)
        return end


# Delivery handlers by receiver kind and message type. Unbound methods, so that
# a Simulation holds no table of bound methods (a reference cycle per instance);
# a message type missing from a table is ignored by that kind of receiver.
_VEHICLE_HANDLERS = {
    wire.RsuBeacon: Simulation._vehicle_handle_beacon,
    wire.AuthChallenge: Simulation._vehicle_handle_challenge,
    wire.ShareUpdate: Simulation._vehicle_handle_share_update,
    wire.GroupKeyNotice: Simulation._vehicle_handle_notice,
    wire.LeaveUpdate: Simulation._vehicle_handle_leave_update,
    wire.GroupBroadcast: Simulation._vehicle_handle_broadcast,
}
_RSU_HANDLERS = {
    wire.AuthHello: Simulation._rsu_handle_hello,
    wire.AuthConfirm: Simulation._rsu_handle_confirm,
    wire.ShareOffer: Simulation._rsu_handle_offer,
    wire.GroupKeyTransfer: Simulation._rsu_handle_transfer,
    wire.GroupBroadcast: Simulation._rsu_handle_broadcast,
}


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """One deterministic simulation run."""
    return Simulation(cfg).run()


def sweep_density(cfg: ScenarioConfig, n_list: list[int]) -> list[MetricsReport]:
    """One run per vehicle density, all other parameters fixed."""
    return [run_scenario(replace(cfg, n_vehicles=n)) for n in n_list]


def write_sweep_csv(reports: list[MetricsReport], path: Path | str) -> None:
    """One row per report, the ``MetricsReport`` fields in order; a delay
    to 6 places, or empty when there is none."""
    names = [f.name for f in fields(MetricsReport)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in reports:
            row = [getattr(r, name) for name in names]
            writer.writerow(
                "" if v is None else f"{v:.6f}" if isinstance(v, float) else v for v in row
            )
