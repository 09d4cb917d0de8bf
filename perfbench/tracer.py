"""Per-layer tracing of the vanetgka modules, installed from outside the package.

``Tracer`` rebinds the public functions of each module to timing wrappers
for the duration of a ``with`` block. ``auth``, ``groupkey``, ``groupcomm``
and ``registry`` import ``crypto`` functions by name, so every module of the
package that holds a reference to a wrapped function gets the wrapper.

Each wrapper counts calls and self time (its duration minus the time spent in
wrapped calls it made). A ``ProtocolError`` that leaves the outermost wrapped
call, where the simulator or the benchmark catches it, is counted as
``drops.<module>.<function>.<ErrorClass>``.

The tracer also records what the correctness checks need: successful returns
of the functions whose messages carry the 58-byte overhead, who joined a group,
whose key confirmation failed, and every broadcast sent and opened. Records are
kept per ``Simulation.run`` call in ``scenarios``; calls made outside a
simulation go to a record whose ``sim`` is None.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from vanetgka import auth, crypto, gka, groupcomm, groupkey, registry, sim, wire
from vanetgka.errors import KeyConfirmFail, ProtocolError

import checks

# (owner, attribute, layer metric prefix). Functions that set up the trust
# authority are reported together as registry.setup.
FUNCTIONS = [
    (crypto, "kdf", "crypto.kdf"),
    (crypto, "hmac_tag", "crypto.hmac_tag"),
    (crypto, "sym_encrypt", "crypto.sym_encrypt"),
    (crypto, "sym_decrypt", "crypto.sym_decrypt"),
    (wire, "mac_input", "wire.mac_input"),
    (wire, "encode_message", "wire.encode_message"),
    (wire, "decode_message", "wire.decode_message"),
    (registry, "ta_init", "registry.setup"),
    (registry, "register_rsu", "registry.setup"),
    (registry, "register_vehicle", "registry.setup"),
    (registry, "refresh_vehicle_epoch", "registry.refresh_vehicle_epoch"),
    (gka, "run_agreement", "gka.run_agreement"),
    (auth, "start_vehicle_auth", "auth.start_vehicle_auth"),
    (auth, "make_hello", "auth.make_hello"),
    (auth, "process_hello", "auth.process_hello"),
    (auth, "vehicle_confirm", "auth.vehicle_confirm"),
    (auth, "rsu_verify", "auth.rsu_verify"),
    (groupkey, "member_offer", "groupkey.member_offer"),
    (groupkey, "handle_join", "groupkey.handle_join"),
    (groupkey, "handle_leave", "groupkey.handle_leave"),
    (groupkey, "member_derive", "groupkey.member_derive"),
    (groupkey, "member_apply_notice", "groupkey.member_apply_notice"),
    (groupkey, "member_derive_from_leave", "groupkey.member_derive_from_leave"),
    (groupkey, "transfer_gk", "groupkey.transfer_gk"),
    (groupkey, "receive_gk_transfer", "groupkey.receive_gk_transfer"),
    (groupcomm, "broadcast", "groupcomm.broadcast"),
    (groupcomm, "open_broadcast", "groupcomm.open_broadcast"),
]
METHODS = [
    (crypto.SystemParams, "g_exp", "crypto.g_exp"),
    (sim.Simulation, "run", "sim"),
]
# each successful return sends one message that carries a pseudonym and a MAC
OVERHEAD_SOURCES = (
    "auth.make_hello",
    "auth.vehicle_confirm",
    "groupkey.member_offer",
    "groupcomm.broadcast",
)
# drop classes seen on the three workloads; any other class still counts in
# drops.total
DROP_KEYS = (
    "drops.auth.rsu_verify.KeyConfirmFail",
    "drops.groupcomm.open_broadcast.MacFail",
    "drops.groupkey.member_apply_notice.MacFail",
    "drops.groupkey.member_derive_from_leave.MacFail",
    "drops.groupkey.member_derive_from_leave.FidAbsent",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class ScenarioRecord:
    """What one simulation run (or the calls outside any) did, for the checks."""

    sim: object = None
    returns: Counter = field(default_factory=Counter)
    joined: list = field(default_factory=list)  # (fid, pk_v) of every join
    failed_confirms: list = field(default_factory=list)  # (fid, pk_v)
    sent: dict = field(default_factory=dict)  # broadcast ct -> (fid, payload)
    problems: list = field(default_factory=list)

    def overhead_returns(self) -> int:
        return sum(self.returns[k] for k in OVERHEAD_SOURCES)


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.drops: Counter = Counter()
        self.kdf_seen: set = set()
        self.kdf_repeats = 0
        self.fastpath = 0
        self.opened_ok = 0
        self.scenarios: list[ScenarioRecord] = []
        self._outside = ScenarioRecord()
        self._record = self._outside
        self._keys: list[str] = []
        self._child_s: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._after = {
            "crypto.kdf": self._after_kdf,
            "auth.process_hello": self._after_process_hello,
            "groupkey.handle_join": self._after_handle_join,
            "groupcomm.broadcast": self._after_broadcast,
            "groupcomm.open_broadcast": self._after_open_broadcast,
        }

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.startswith("vanetgka")]
        for owner, name, key in FUNCTIONS:
            original = getattr(owner, name)
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for cls, name, key in METHODS:
            original = cls.__dict__[name]
            self._patches.append((cls, name, original))
            setattr(cls, name, self._wrap(key, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, _Stat())
        after = self._after.get(key)
        counts_return = key in OVERHEAD_SOURCES
        keys, child_s = self._keys, self._child_s
        perf_counter = time.perf_counter

        def stop(t0: float) -> float:
            t1 = perf_counter()
            elapsed = t1 - t0
            keys.pop()
            stat.calls += 1
            stat.self_s += elapsed - child_s.pop()
            if child_s:
                child_s[-1] += elapsed
            if key == "sim":
                self._record = self._outside
            return t1

        def wrapper(*args, **kwargs):
            if key == "sim":
                self._record = ScenarioRecord(sim=args[0])
                self.scenarios.append(self._record)
            keys.append(key)
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = stop(t0)
                if isinstance(exc, ProtocolError):
                    self._on_error(key, exc, args, kwargs)
                    if child_s:  # bookkeeping time is not the caller's own
                        child_s[-1] += perf_counter() - t1
                raise
            t1 = stop(t0)
            if counts_return:
                self._record.returns[key] += 1
            if after is not None:
                after(args, kwargs, result)
                if child_s:
                    child_s[-1] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _on_error(self, key: str, exc: ProtocolError, args, kwargs) -> None:
        if not self._keys or self._keys[-1] == "sim":
            self.drops[f"drops.{key}.{type(exc).__name__}"] += 1
        if key == "auth.rsu_verify" and isinstance(exc, KeyConfirmFail):
            session = _arg(args, kwargs, 2, "session")
            self._record.failed_confirms.append((session.fid, session.pk_v))

    def _after_kdf(self, args, kwargs, result) -> None:
        pair = (_arg(args, kwargs, 0, "value"), _arg(args, kwargs, 1, "context"))
        if pair in self.kdf_seen:
            self.kdf_repeats += 1
        else:
            self.kdf_seen.add(pair)

    def _after_process_hello(self, args, kwargs, result) -> None:
        if result[1] is None:
            self.fastpath += 1

    def _after_handle_join(self, args, kwargs, result) -> None:
        session = _arg(args, kwargs, 2, "session")
        self._record.joined.append((session.fid, session.pk_v))

    def _after_broadcast(self, args, kwargs, result) -> None:
        self._record.sent[result.ct] = (
            _arg(args, kwargs, 2, "sender_fid"),
            _arg(args, kwargs, 3, "payload"),
        )

    def _after_open_broadcast(self, args, kwargs, result) -> None:
        self.opened_ok += 1
        msg = _arg(args, kwargs, 2, "msg")
        self._record.problems += checks.broadcast_opened(self._record.sent, msg.ct, result)

    # -- results --------------------------------------------------------------

    def metrics(self, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, by name, as (value, unit); self times are
        multiplied by ``scale``."""
        out: dict[str, tuple[float, str]] = {}
        for key, stat in self.stats.items():
            if key == "sim":
                continue
            out[f"{key}.calls"] = (stat.calls, "count")
            out[f"{key}.s"] = (stat.self_s * scale, "s")
        out["sim.self_s"] = (self.stats["sim"].self_s * scale, "s")
        out["sim.deliveries"] = (
            sum(r.sim.messages_delivered for r in self.scenarios),
            "count",
        )
        kdf_calls = self.stats["crypto.kdf"].calls
        out["crypto.kdf.repeat_ratio"] = (_ratio(self.kdf_repeats, kdf_calls), "ratio")
        hellos = self.stats["auth.process_hello"].calls
        out["auth.fastpath_ratio"] = (_ratio(self.fastpath, hellos), "ratio")
        opens = self.stats["groupcomm.open_broadcast"].calls
        out["groupcomm.open_broadcast.ok_ratio"] = (_ratio(self.opened_ok, opens), "ratio")
        for key in DROP_KEYS:
            out[key] = (self.drops[key], "count")
        out["drops.total"] = (sum(self.drops.values()), "count")
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def rekey_timings(seed: int) -> dict[str, tuple[float, str]]:
    """Median host milliseconds of one ``handle_join`` into, and one
    ``handle_leave`` back out of, a group of 10 and of 100 members, in the
    default profile. Runs untraced."""
    params = crypto.get_profile("default")
    rng = random.Random(seed)

    def session() -> auth.AuthSession:
        return auth.AuthSession(
            state=auth.AuthState.CONFIRMED,
            fid=rng.randbytes(crypto.PSEUDONYM_LEN),
            pk_v=1,
            n1=crypto.rand_zq_star(rng, params.q),
        )

    def join(group: groupkey.GroupState, s: auth.AuthSession) -> float:
        _, offer = groupkey.member_offer(params, s, rng)
        t0 = time.perf_counter()
        groupkey.handle_join(params, group, s, offer, rng)
        return time.perf_counter() - t0

    out: dict[str, tuple[float, str]] = {}
    for size, repeats in ((10, 31), (100, 11)):
        group = groupkey.GroupState()
        for _ in range(size):
            join(group, session())
        joins, leaves = [], []
        for _ in range(repeats):
            s = session()
            joins.append(join(group, s))
            t0 = time.perf_counter()
            groupkey.handle_leave(params, group, s.fid, rng)
            leaves.append(time.perf_counter() - t0)
        out[f"groupkey.handle_join_ms.g{size}"] = (statistics.median(joins) * 1e3, "ms")
        out[f"groupkey.handle_leave_ms.g{size}"] = (statistics.median(leaves) * 1e3, "ms")
    return out
