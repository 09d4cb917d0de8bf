"""Deterministic discrete-event simulation of the full protocol stack.

Vehicles move at constant speed along a one-dimensional road divided into
RSU service areas (nearest RSU wins).  Everything a node does goes
through the real protocol modules and the real codec; computation time
is charged from the analytic primitive timings rather than wall clock,
so runs reproduce paper-scale delay magnitudes on any host.

Each node is a serial processor: work queues on a per-node busy cursor,
and a message's verification delay includes the time it waited for the
processor.  Transmission time is wire bytes over the configured
bandwidth plus a fixed propagation term.

Scheduling is a single binary heap ordered by (time, sequence number),
all randomness flows from one seeded generator, and reports are
byte-identical across runs with the same configuration.

Set SIM_LOG=trace to dump the event stream to stderr.
"""

from __future__ import annotations

import heapq
import json
import os
import random
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from . import auth, groupcomm, groupkey, wire
from .costs import DelaySample, PrimitiveTimings
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
    propagation_ms: float = 0.005
    sym_decrypt_ms: float = 0.01
    crypto_profile: str = "default"
    gk_transfer_enabled: bool = True

    def validate(self) -> None:
        positives = {
            "road_length_m": self.road_length_m,
            "sim_time_s": self.sim_time_s,
            "message_size_bytes": self.message_size_bytes,
            "broadcast_interval_ms": self.broadcast_interval_ms,
            "rsu_range_m": self.rsu_range_m,
            "vehicle_range_m": self.vehicle_range_m,
            "bandwidth_mbps": self.bandwidth_mbps,
            "vehicle_speed_mps": self.vehicle_speed_mps,
            "n_rsus": self.n_rsus,
            "delta_max_ms": self.delta_max_ms,
        }
        for name, value in positives.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name, value in (
            ("n_vehicles", self.n_vehicles),
            ("interval_variance_s", self.interval_variance_s),
            ("propagation_ms", self.propagation_ms),
            ("sym_decrypt_ms", self.sym_decrypt_ms),
        ):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if not 0 <= self.illegal_fraction <= 1:
            raise ValueError("illegal_fraction outside [0, 1]")
        self.timings.validate()

    def to_json_dict(self) -> dict:
        d = {
            k: v
            for k, v in self.__dict__.items()
            if k != "timings"
        }
        d["timings"] = {
            "t_par": self.timings.t_par,
            "t_mul": self.timings.t_mul,
            "t_mp": self.timings.t_mp,
            "t_hmac": self.timings.t_hmac,
        }
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        timings = PrimitiveTimings(**d.pop("timings", {}))
        known = {f for f in cls.__dataclass_fields__ if f != "timings"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(timings=timings, **d)

    @classmethod
    def from_json_file(cls, path: Path | str) -> "ScenarioConfig":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


class EventKind(Enum):
    BEACON = "beacon"
    VEHICLE_ENTER_RANGE = "vehicle_enter_range"
    MESSAGE_DELIVERY = "message_delivery"
    VEHICLE_BROADCAST = "vehicle_broadcast"


@dataclass(frozen=True)
class SimEvent:
    time_ms: float
    kind: EventKind
    data: tuple


@dataclass(frozen=True)
class MetricsReport:
    """One density row of the simulation output."""

    n_vehicles: int
    average_delay_ms: float | None
    total_overhead_bytes: int
    auth_count: int
    fastpath_count: int
    rekey_count: int


class _Charges:
    """Analytic per-operation compute charges, in milliseconds."""

    def __init__(self, cfg: ScenarioConfig):
        t = cfg.timings
        sym = cfg.sym_decrypt_ms
        self.beacon_verify = 2 * t.t_mul
        self.epoch_refresh = 2 * t.t_mul
        self.hello_create = 2 * t.t_mul + t.t_hmac + 2 * sym
        self.hello_full = t.t_mul + 2 * t.t_hmac + 2 * sym
        self.hello_fast = 2 * t.t_hmac + sym
        self.hello_stale = 0.001
        self.challenge_create = t.t_mul + t.t_hmac + sym
        # vehicle: challenge verify plus the confirmation-value computation
        self.confirm_create = t.t_mp + 5 * t.t_mul + 2 * t.t_par + t.t_hmac + sym
        # rsu: recompute the confirmation value and compare
        self.confirm_verify = 3 * t.t_mul + 2 * t.t_par + t.t_hmac + sym
        self.offer_create = t.t_mul + t.t_hmac + sym
        self.offer_verify = t.t_hmac + sym
        self.rekey_base = t.t_mul
        self.rekey_per_member = 2 * t.t_mul
        self.seal = t.t_hmac + sym
        self.derive = 2 * t.t_mul + t.t_hmac + sym
        self.ack = t.t_hmac


@dataclass
class _RsuNode:
    index: int
    creds: NodeCredentials
    beacon: wire.RsuBeacon
    pos: float
    group: GroupState = field(default_factory=GroupState)
    sessions: dict[bytes, auth.AuthSession] = field(default_factory=dict)
    member_fid_by_sender: dict[bytes, bytes] = field(default_factory=dict)
    neighbor_store: NeighborGkStore = field(default_factory=NeighborGkStore)
    session_key: GElem | None = None
    busy_until: float = 0.0

    @property
    def node_id(self) -> bytes:
        return self.creds.tid


@dataclass
class _VehicleNode:
    index: int
    creds: NodeCredentials
    legit: bool
    pos0: float
    speed: float
    on_road: bool = True
    target: int | None = None  # index of the nearest RSU
    session: auth.AuthSession | None = None
    auth_started_ms: float = -1.0
    mstate: MemberState | None = None
    joined: bool = False
    prev_gk: GElem | None = None
    busy_until: float = 0.0
    broadcast_armed: bool = False

    @property
    def node_id(self) -> bytes:
        return self.creds.tid

    def pos(self, now_ms: float) -> float:
        return self.pos0 + self.speed * now_ms / 1000.0


class Simulation:
    def __init__(self, cfg: ScenarioConfig, keep_samples: bool = False):
        cfg.validate()
        self.cfg = cfg
        self.rng = random.Random(cfg.rng_seed)
        self.charges = _Charges(cfg)
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
            self.rsus.append(_RsuNode(index=k, creds=creds, beacon=beacon, pos=pos))
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
                    index=i,
                    creds=creds,
                    legit=i not in illegal_set,
                    pos0=self.rng.uniform(0, cfg.road_length_m),
                    speed=cfg.vehicle_speed_mps,
                )
            )

        # metrics
        self.auth_count = 0
        self.fastpath_count = 0
        self.rekey_count = 0
        self.total_overhead_bytes = 0
        self.obu_to_rsu_sends = 0
        self.obu_overhead_values: set[int] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.stale_drops = 0
        self.mac_drops = 0
        self.failed_full_auths = 0
        self.incomplete_associations = 0
        self._delay_acc: dict[bytes, tuple[float, int]] = {}
        self._delivering: tuple[int, bytes] = (0, b"")  # (message id, receiver)

        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = 0
        self._schedule_initial_events()

    # -- scheduling ----------------------------------------------------------

    def _push(self, ev: SimEvent) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (ev.time_ms, self._seq, ev))

    def _schedule_initial_events(self) -> None:
        cfg = self.cfg
        for rsu in self.rsus:
            phase = self.rng.uniform(0, cfg.broadcast_interval_ms)
            self._push(SimEvent(phase, EventKind.BEACON, (rsu.index,)))
        for veh in self.vehicles:
            veh.target = self._nearest_rsu_index(veh.pos0)
            for t_ms, new_target in self._crossings(veh):
                if t_ms <= self.end_ms:
                    self._push(
                        SimEvent(
                            t_ms, EventKind.VEHICLE_ENTER_RANGE, (veh.index, new_target)
                        )
                    )

    def _nearest_rsu_index(self, pos: float) -> int:
        return min(range(len(self.rsus)), key=lambda k: abs(self.rsus[k].pos - pos))

    def _crossings(self, veh: _VehicleNode) -> list[tuple[float, int | None]]:
        """Times at which the vehicle's nearest RSU changes or it exits."""
        out: list[tuple[float, int | None]] = []
        if veh.speed > 0:
            for k in range(len(self.rsus) - 1):
                midpoint = (self.rsus[k].pos + self.rsus[k + 1].pos) / 2
                if veh.pos0 < midpoint:
                    out.append(((midpoint - veh.pos0) / veh.speed * 1000.0, k + 1))
            out.append(
                ((self.cfg.road_length_m - veh.pos0) / veh.speed * 1000.0, None)
            )
        return out

    # -- busy cursors and transmission ------------------------------------------

    def _charge(self, node, now: float, cost: float) -> tuple[float, float]:
        start = max(now, node.busy_until)
        end = start + cost
        node.busy_until = end
        return start, end

    def _tx_ms(self, nbytes: int) -> float:
        return nbytes * 8 / (self.cfg.bandwidth_mbps * 1000.0) + self.cfg.propagation_ms

    def _send(
        self,
        msg,
        sender_id: bytes,
        receivers: list[bytes],
        depart_ms: float,
        create_cost: float,
        to_rsu: bool = False,
    ) -> None:
        """Encode once, count overhead, schedule one delivery per receiver.

        The message id is the send's sequence number, ``messages_sent``."""
        data = wire.encode_message(msg, self.params.element_width)
        decoded = wire.decode_message(data, self.params.element_width)
        self.messages_sent += 1
        msg_id = self.messages_sent
        if to_rsu:
            self.obu_to_rsu_sends += 1
            overhead = groupcomm.measure_overhead(decoded)
            self.obu_overhead_values.add(overhead)
            self.total_overhead_bytes += overhead
        tx = self._tx_ms(len(data))
        arrive = depart_ms + tx
        if arrive > self.end_ms:
            return
        for receiver in receivers:
            self._push(
                SimEvent(
                    arrive,
                    EventKind.MESSAGE_DELIVERY,
                    (decoded, msg_id, sender_id, receiver, create_cost, tx),
                )
            )

    def _sample(
        self, creator: bytes, t_create: float, t_transmit: float, t_verify: float
    ) -> None:
        total, count = self._delay_acc.get(creator, (0.0, 0))
        self._delay_acc[creator] = (total + t_create + t_transmit + t_verify, count + 1)
        if self.keep_samples:
            msg_id, receiver = self._delivering
            self.samples.append(
                DelaySample(creator, msg_id, receiver, t_create, t_transmit, t_verify)
            )

    # -- main loop ----------------------------------------------------------------

    def run(self) -> MetricsReport:
        handlers = {
            EventKind.BEACON: self._on_beacon,
            EventKind.VEHICLE_ENTER_RANGE: self._on_enter_range,
            EventKind.MESSAGE_DELIVERY: self._on_delivery,
            EventKind.VEHICLE_BROADCAST: self._on_vehicle_broadcast,
        }
        while self._heap:
            time_ms, _, ev = heapq.heappop(self._heap)
            if time_ms > self.end_ms:
                break
            if self.trace:
                self._trace(time_ms, ev)
            handlers[ev.kind](time_ms, *ev.data)
        return self._report()

    def _trace(self, time_ms: float, ev: SimEvent) -> None:
        data = ev.data
        if ev.kind is EventKind.MESSAGE_DELIVERY:
            msg, msg_id, sender_id, receiver_id = data[:4]
            data = f"{type(msg).__name__} #{msg_id} {sender_id.decode()} -> {receiver_id.decode()}"
        print(f"[sim] t={time_ms:10.3f} {ev.kind.value} {data}", file=sys.stderr, flush=True)

    def _report(self) -> MetricsReport:
        if self._delay_acc:
            avg = sum(t / c for t, c in self._delay_acc.values()) / len(self._delay_acc)
        else:
            avg = None
        return MetricsReport(
            n_vehicles=self.cfg.n_vehicles,
            average_delay_ms=avg,
            total_overhead_bytes=self.total_overhead_bytes,
            auth_count=self.auth_count,
            fastpath_count=self.fastpath_count,
            rekey_count=self.rekey_count,
        )

    # -- beacons and association ---------------------------------------------------

    def _in_rsu_range(self, rsu: _RsuNode, pos: float) -> bool:
        return abs(rsu.pos - pos) <= self.cfg.rsu_range_m

    def _needs_auth(self, veh: _VehicleNode, rsu: _RsuNode, now: float) -> bool:
        if not veh.on_road or veh.joined or veh.target != rsu.index:
            return False
        if veh.session is not None:
            # restart a stalled attempt after a few beacon periods
            if now - veh.auth_started_ms < 2.5 * self.cfg.broadcast_interval_ms:
                return False
        return True

    def _on_beacon(self, now: float, rsu_index: int) -> None:
        rsu = self.rsus[rsu_index]
        for veh in self.vehicles:
            if self._needs_auth(veh, rsu, now) and self._in_rsu_range(
                rsu, veh.pos(now)
            ):
                self._send(rsu.beacon, rsu.node_id, [veh.node_id], now, 0.0)
        self._push(
            SimEvent(now + self.cfg.broadcast_interval_ms, EventKind.BEACON, (rsu_index,))
        )

    def _on_enter_range(self, now: float, veh_index: int, new_target: int | None) -> None:
        veh = self.vehicles[veh_index]
        old_target = veh.target
        if old_target is not None:
            rsu = self.rsus[old_target]
            if veh.joined:
                veh.prev_gk = veh.mstate.gk if veh.mstate else None
                self._rsu_evict(now, rsu, veh.node_id)
            elif veh.legit and veh.session is not None:
                self.incomplete_associations += 1
            rsu.sessions.pop(veh.node_id, None)
        veh.session = None
        veh.mstate = None
        veh.joined = False
        if new_target is None:
            veh.on_road = False
            veh.target = None
        else:
            veh.target = new_target

    def _rsu_evict(self, now: float, rsu: _RsuNode, fid_owner: bytes) -> None:
        """Departure notice reaches the RSU; rekey and notify the group."""
        veh = next(v for v in self.vehicles if v.node_id == fid_owner)
        fid = veh.mstate.fid if veh.mstate else None
        rsu.member_fid_by_sender.pop(fid_owner, None)
        if fid is None or fid not in rsu.group.members:
            return
        cost = self.charges.rekey_base + self.charges.rekey_per_member * len(
            rsu.group.members
        )
        start, end = self._charge(rsu, now, cost)
        _, update = groupkey.handle_leave(self.params, rsu.group, fid, self.rng)
        self.rekey_count += 1
        if update is not None:
            members = self._group_members(rsu)
            self._send(update, rsu.node_id, members, end, self.charges.seal)
            self._transfer_group_key(rsu, end)

    def _group_members(self, rsu: _RsuNode) -> list[bytes]:
        out = []
        for veh in self.vehicles:
            if veh.joined and veh.target == rsu.index and veh.mstate is not None:
                if veh.mstate.fid in rsu.group.members:
                    out.append(veh.node_id)
        return out

    def _transfer_group_key(self, rsu: _RsuNode, depart: float) -> None:
        if not self.cfg.gk_transfer_enabled or rsu.session_key is None:
            return
        for other in self.rsus:
            if other.index == rsu.index:
                continue
            msg = groupkey.transfer_gk(self.params, rsu.group, rsu.session_key, self.rng)
            self._send(msg, rsu.node_id, [other.node_id], depart, self.charges.seal)

    # -- deliveries -------------------------------------------------------------------

    def _on_delivery(
        self,
        now: float,
        msg,
        msg_id: int,
        sender_id: bytes,
        receiver_id: bytes,
        create_cost: float,
        tx: float,
    ) -> None:
        self.messages_delivered += 1
        self._delivering = (msg_id, receiver_id)
        if receiver_id.startswith(b"rsu-"):
            rsu = next(r for r in self.rsus if r.node_id == receiver_id)
            self._rsu_receive(now, rsu, msg, sender_id, create_cost, tx)
        else:
            veh = next(v for v in self.vehicles if v.node_id == receiver_id)
            self._vehicle_receive(now, veh, msg, sender_id, create_cost, tx)

    # -- vehicle side -------------------------------------------------------------------

    def _vehicle_receive(
        self, now: float, veh: _VehicleNode, msg, sender_id: bytes, create_cost: float, tx: float
    ) -> None:
        if not veh.on_road:
            return
        if isinstance(msg, wire.RsuBeacon):
            self._vehicle_handle_beacon(now, veh, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.AuthChallenge):
            self._vehicle_handle_challenge(now, veh, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.ShareUpdate):
            self._vehicle_handle_share_update(now, veh, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.GroupKeyNotice):
            self._vehicle_handle_notice(now, veh, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.LeaveUpdate):
            self._vehicle_handle_leave_update(now, veh, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.GroupBroadcast):
            self._vehicle_handle_broadcast(now, veh, msg, sender_id, create_cost, tx)

    def _vehicle_handle_beacon(self, now, veh, msg, sender_id, create_cost, tx):
        rsu = self.rsus[veh.target] if veh.target is not None else None
        if rsu is None or rsu.node_id != sender_id or not self._needs_auth(veh, rsu, now):
            return
        start, end = self._charge(
            veh, now, self.charges.beacon_verify + self.charges.epoch_refresh
        )
        try:
            epoch = refresh_vehicle_epoch(veh.creds, self.params, self.rng)
            session = auth.start_vehicle_auth(self.params, epoch, msg, rsu.creds.tid)
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)
        veh.session = session
        veh.auth_started_ms = now
        veh.mstate = None  # a restart abandons any in-flight share offer
        _, end2 = self._charge(veh, end, self.charges.hello_create)
        hello = auth.make_hello(self.params, session, veh.prev_gk, self.rng, int(end2))
        self._send(
            hello, veh.node_id, [rsu.node_id], end2, self.charges.hello_create, to_rsu=True
        )

    def _vehicle_handle_challenge(self, now, veh, msg, sender_id, create_cost, tx):
        if veh.session is None or veh.target is None or veh.joined:
            return
        rsu = self.rsus[veh.target]
        if rsu.node_id != sender_id:
            return
        if auth.is_fastpath_ack(msg):
            start, end = self._charge(veh, now, self.charges.ack)
            try:
                auth.vehicle_apply_fastpath_ack(self.params, veh.session, msg)
            except ProtocolError:
                self.mac_drops += 1
                return
            self._sample(sender_id, create_cost, tx, end - now)
            self._vehicle_send_offer(end, veh, rsu)
            return
        start, end = self._charge(veh, now, self.charges.confirm_create)
        try:
            confirm = auth.vehicle_confirm(
                self.params, veh.session, veh.creds, msg, self.rng
            )
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)
        self._send(
            confirm, veh.node_id, [rsu.node_id], end, self.charges.confirm_create, to_rsu=True
        )
        # pipeline the share offer right behind the confirmation
        self._vehicle_send_offer(end, veh, rsu)

    def _vehicle_send_offer(self, when: float, veh: _VehicleNode, rsu: _RsuNode) -> None:
        _, end = self._charge(veh, when, self.charges.offer_create)
        mstate, offer = groupkey.member_offer(self.params, veh.session, self.rng)
        veh.mstate = mstate
        self._send(
            offer, veh.node_id, [rsu.node_id], end, self.charges.offer_create, to_rsu=True
        )

    def _vehicle_handle_share_update(self, now, veh, msg, sender_id, create_cost, tx):
        if veh.mstate is None or veh.joined or veh.target is None:
            return
        start, end = self._charge(veh, now, self.charges.derive)
        try:
            groupkey.member_derive(self.params, veh.mstate, msg)
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)
        veh.joined = True
        if not veh.broadcast_armed:
            # one self-rescheduling broadcast chain per vehicle, ever
            veh.broadcast_armed = True
            self._push(
                SimEvent(
                    end + self._jittered_interval(),
                    EventKind.VEHICLE_BROADCAST,
                    (veh.index,),
                )
            )

    def _vehicle_handle_notice(self, now, veh, msg, sender_id, create_cost, tx):
        if veh.mstate is None or not veh.joined:
            return
        start, end = self._charge(veh, now, self.charges.seal)
        try:
            groupkey.member_apply_notice(self.params, veh.mstate, msg)
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)

    def _vehicle_handle_leave_update(self, now, veh, msg, sender_id, create_cost, tx):
        if veh.mstate is None or not veh.joined or veh.mstate.gk is None:
            return
        start, end = self._charge(veh, now, self.charges.derive)
        try:
            groupkey.member_derive_from_leave(
                self.params, veh.mstate, msg, veh.mstate.gk
            )
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)

    def _vehicle_handle_broadcast(self, now, veh, msg, sender_id, create_cost, tx):
        if veh.mstate is None or not veh.joined or veh.mstate.gk is None:
            return
        start, end = self._charge(veh, now, self.charges.seal)
        try:
            groupcomm.open_broadcast(self.params, veh.mstate.gk, msg)
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)

    def _jittered_interval(self) -> float:
        jitter = self.cfg.interval_variance_s * 1000.0
        return self.cfg.broadcast_interval_ms + self.rng.uniform(-jitter, jitter)

    def _on_vehicle_broadcast(self, now: float, veh_index: int) -> None:
        veh = self.vehicles[veh_index]
        if not veh.on_road:
            return
        if veh.joined and veh.mstate is not None and veh.target is not None:
            rsu = self.rsus[veh.target]
            _, end = self._charge(veh, now, self.charges.seal)
            payload = self.rng.randbytes(self.cfg.message_size_bytes)
            msg = groupcomm.broadcast(
                self.params, veh.mstate.gk, veh.mstate.fid, payload, self.rng
            )
            pos = veh.pos(now)
            receivers = []
            if self._in_rsu_range(rsu, pos):
                receivers.append(rsu.node_id)
            for other in self.vehicles:
                if (
                    other.index != veh.index
                    and other.on_road
                    and other.joined
                    and other.target == veh.target
                    and abs(other.pos(now) - pos) <= self.cfg.vehicle_range_m
                ):
                    receivers.append(other.node_id)
            self._send(msg, veh.node_id, receivers, end, self.charges.seal, to_rsu=True)
        self._push(
            SimEvent(
                now + self._jittered_interval(), EventKind.VEHICLE_BROADCAST, (veh_index,)
            )
        )

    # -- rsu side --------------------------------------------------------------------

    def _rsu_receive(
        self, now: float, rsu: _RsuNode, msg, sender_id: bytes, create_cost: float, tx: float
    ) -> None:
        if isinstance(msg, wire.AuthHello):
            self._rsu_handle_hello(now, rsu, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.AuthConfirm):
            self._rsu_handle_confirm(now, rsu, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.ShareOffer):
            self._rsu_handle_offer(now, rsu, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.GroupKeyTransfer):
            self._rsu_handle_transfer(now, rsu, msg, sender_id, create_cost, tx)
        elif isinstance(msg, wire.GroupBroadcast):
            self._rsu_handle_broadcast(now, rsu, msg, sender_id, create_cost, tx)

    def _rsu_handle_hello(self, now, rsu, msg, sender_id, create_cost, tx):
        # cheap freshness check before any expensive work
        start = max(now, rsu.busy_until)
        if start - msg.ts_ms > self.cfg.delta_max_ms:
            self._charge(rsu, now, self.charges.hello_stale)
            self.stale_drops += 1
            return
        candidates = (
            rsu.neighbor_store.candidates() if self.cfg.gk_transfer_enabled else []
        )
        try:
            session, challenge = auth.process_hello(
                self.params,
                rsu.creds,
                msg,
                now_ms=int(start),
                delta_max_ms=self.cfg.delta_max_ms,
                neighbor_gks=candidates,
                rng=self.rng,
            )
        except ProtocolError:
            self._charge(rsu, now, self.charges.hello_stale)
            self.mac_drops += 1
            return
        if challenge is None:
            _, end = self._charge(rsu, now, self.charges.hello_fast + self.charges.ack)
            rsu.sessions[sender_id] = session
            self._sample(sender_id, create_cost, tx, end - now)
            ack = auth.make_fastpath_ack(self.params, session)
            self._send(ack, rsu.node_id, [sender_id], end, self.charges.ack)
        else:
            _, end = self._charge(
                rsu, now, self.charges.hello_full + self.charges.challenge_create
            )
            rsu.sessions[sender_id] = session
            self._sample(sender_id, create_cost, tx, end - now)
            self._send(
                challenge, rsu.node_id, [sender_id], end, self.charges.challenge_create
            )

    def _rsu_handle_confirm(self, now, rsu, msg, sender_id, create_cost, tx):
        session = rsu.sessions.get(sender_id)
        if session is None:
            return
        start, end = self._charge(rsu, now, self.charges.confirm_verify)
        try:
            auth.rsu_verify(self.params, rsu.creds, session, msg)
        except ProtocolError:
            self.failed_full_auths += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)

    def _rsu_handle_offer(self, now, rsu, msg, sender_id, create_cost, tx):
        session = rsu.sessions.get(sender_id)
        if session is None or not auth.is_authenticated(session):
            return
        cost = (
            self.charges.offer_verify
            + self.charges.rekey_base
            + self.charges.rekey_per_member * (len(rsu.group.members) + 1)
        )
        # a re-authentication from the same transport address supersedes
        # any membership left over from an abandoned earlier attempt
        old_fid = rsu.member_fid_by_sender.get(sender_id)
        if old_fid is not None and old_fid != session.fid:
            rsu.group.members.pop(old_fid, None)
        start, end = self._charge(rsu, now, cost)
        try:
            result = groupkey.handle_join(
                self.params, rsu.group, session, msg, self.rng
            )
        except ProtocolError:
            self.mac_drops += 1
            return
        rsu.member_fid_by_sender[sender_id] = session.fid
        self._sample(sender_id, create_cost, tx, end - now)
        self.rekey_count += 1
        if session.state is auth.AuthState.FASTPATH_DONE:
            self.fastpath_count += 1
        else:
            self.auth_count += 1
        # the joiner gets its per-member material; everyone else learns the
        # new key from the notice under the previous one
        joiner_update = result.share_updates[session.fid]
        self._send(joiner_update, rsu.node_id, [sender_id], end, self.charges.seal)
        if result.notice is not None:
            members = [m for m in self._group_members(rsu) if m != sender_id]
            if members:
                self._send(result.notice, rsu.node_id, members, end, self.charges.seal)
        self._transfer_group_key(rsu, end)

    def _rsu_handle_transfer(self, now, rsu, msg, sender_id, create_cost, tx):
        if rsu.session_key is None:
            return
        start, end = self._charge(rsu, now, self.charges.seal)
        try:
            groupkey.receive_gk_transfer(
                self.params, rsu.neighbor_store, sender_id, msg, rsu.session_key
            )
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)

    def _rsu_handle_broadcast(self, now, rsu, msg, sender_id, create_cost, tx):
        if rsu.group.gk is None:
            return
        start, end = self._charge(rsu, now, self.charges.seal)
        try:
            groupcomm.open_broadcast(self.params, rsu.group.gk, msg)
        except ProtocolError:
            self.mac_drops += 1
            return
        self._sample(sender_id, create_cost, tx, end - now)


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """One deterministic simulation run."""
    return Simulation(cfg).run()


def sweep_density(cfg: ScenarioConfig, n_list: list[int]) -> list[MetricsReport]:
    """One run per vehicle density, all other parameters fixed."""
    return [run_scenario(replace(cfg, n_vehicles=n)) for n in n_list]


def write_sweep_csv(reports: list[MetricsReport], path: Path | str) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "n_vehicles",
                "average_delay_ms",
                "total_overhead_bytes",
                "auth_count",
                "fastpath_count",
                "rekey_count",
            ]
        )
        for r in reports:
            writer.writerow(
                [
                    r.n_vehicles,
                    "" if r.average_delay_ms is None else f"{r.average_delay_ms:.6f}",
                    r.total_overhead_bytes,
                    r.auth_count,
                    r.fastpath_count,
                    r.rekey_count,
                ]
            )
