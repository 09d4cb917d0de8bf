"""Command-line interface.

Subcommands:

  ta init / register-rsu / register-vehicle / trace   registry operations
  gka run            run a deniable agreement among n RSUs, print keys
  auth demo          full beacon-to-group-key exchange, plus the fast path
  cost table         verification-delay / overhead comparison CSV
  simulate           discrete-event simulation, CSV report
  codec dump         pretty-print an encoded wire message

Exit codes: 0 success, 1 validation/usage error, 2 protocol failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import auth, groupcomm, groupkey, wire
from .costs import PrimitiveTimings, cost_table_rows
from .crypto import PROFILES
from .errors import ProtocolError
from .gka import run_agreement
from .registry import (
    load_ta,
    refresh_vehicle_epoch,
    register_rsu,
    register_vehicle,
    save_ta,
    ta_init,
    trace,
)
from .sim import ScenarioConfig, Simulation, sweep_density, write_sweep_csv


def _parse_loc(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise ValueError(f"location must be 'x,y' in centimeters, got {text!r}") from None


# ---------------------------------------------------------------------------
# ta subcommands
# ---------------------------------------------------------------------------


def _cmd_ta_init(args) -> int:
    ta = ta_init(args.profile, random.Random(args.seed))
    save_ta(ta, args.state_dir)
    print(f"initialized trust authority ({args.profile} profile) in {args.state_dir}")
    print(json.dumps(ta.params.to_json_dict(), indent=2))
    return 0


def _cmd_ta_register_rsu(args) -> int:
    ta = load_ta(args.state_dir)
    creds, beacon = register_rsu(
        ta, args.tid.encode(), _parse_loc(args.loc), random.Random(args.seed)
    )
    save_ta(ta, args.state_dir)
    print(
        json.dumps(
            {
                "tid": args.tid,
                "role": creds.role,
                "sk": str(creds.sk),
                "pk": str(creds.pk),
                "q_u": str(creds.q_u),
                "s_u": str(creds.s_u),
                "loc": list(creds.loc),
                "beacon": wire.encode_message(beacon, ta.params.element_width).hex(),
            },
            indent=2,
        )
    )
    return 0


def _cmd_ta_register_vehicle(args) -> int:
    ta = load_ta(args.state_dir)
    creds = register_vehicle(ta, args.tid.encode())
    save_ta(ta, args.state_dir)
    print(
        json.dumps(
            {
                "tid": args.tid,
                "role": creds.role,
                "q_u": str(creds.q_u),
                "s_u": str(creds.s_u),
            },
            indent=2,
        )
    )
    return 0


def _cmd_ta_trace(args) -> int:
    ta = load_ta(args.state_dir)
    fid = bytes.fromhex(args.fid)
    tid = trace(ta, fid, int(args.pk))
    print(tid.decode(errors="replace"))
    return 0


# ---------------------------------------------------------------------------
# gka run
# ---------------------------------------------------------------------------


def _cmd_gka_run(args) -> int:
    if args.n < 2:
        raise ValueError("the agreement needs at least 2 RSUs")
    rng = random.Random(args.seed)
    ta = ta_init(args.profile, rng)
    members = [
        register_rsu(ta, b"rsu-%03d" % i, (i * 100_000, 0), rng)[0]
        for i in range(args.n)
    ]
    keys, commits, responses = run_agreement(ta.params, members, rng)
    width = ta.params.element_width
    print("transcript:")
    for msg in commits + responses:
        print("  " + wire.encode_message(msg, width).hex())
    for tid in sorted(keys):
        print(f"{tid.decode()} sk={keys[tid]}")
    distinct = set(keys.values())
    if len(distinct) != 1:
        raise ProtocolError("members disagree on the session key")
    print(f"agreed session key: {distinct.pop()}")
    return 0


# ---------------------------------------------------------------------------
# auth demo
# ---------------------------------------------------------------------------


def _cmd_auth_demo(args) -> int:
    rng = random.Random(args.seed)
    ta = ta_init(args.profile, rng)
    params = ta.params
    width = params.element_width
    rsu, beacon = register_rsu(ta, b"rsu-000", (50_000, 0), rng)
    veh = register_vehicle(ta, b"veh-0000")
    epoch = refresh_vehicle_epoch(veh, params, rng)

    def show(label, msg):
        print(f"{label}: {wire.encode_message(msg, width).hex()}")

    print("# full authentication")
    show("beacon", beacon)
    session = auth.start_vehicle_auth(params, epoch, beacon, rsu.tid)
    hello = auth.make_hello(params, session, None, rng, now_ms=1000)
    show("hello", hello)
    rsu_session, challenge = auth.process_hello(
        params, rsu, hello, now_ms=1010, delta_max_ms=500, neighbor_gks=[], rng=rng
    )
    show("challenge", challenge)
    confirm = auth.vehicle_confirm(params, session, veh, challenge, rng)
    show("confirm", confirm)
    auth.rsu_verify(params, rsu, rsu_session, confirm)
    print(f"authenticated: confirmation value {rsu_session.k_rsu}")

    print("# group key negotiation")
    group = groupkey.GroupState()
    mstate, offer = groupkey.member_offer(params, session, rng)
    show("share offer", offer)
    result = groupkey.handle_join(params, group, rsu_session, offer, rng)
    update = result.share_updates[session.fid]
    show("share update", update)
    gk = groupkey.member_derive(params, mstate, update)
    print(f"vehicle gk={gk} rsu gk={group.gk} epoch={group.epoch}")
    if gk != group.gk:
        raise ProtocolError("group key mismatch")

    print("# fast path at the next RSU")
    rsu2, beacon2 = register_rsu(ta, b"rsu-001", (150_000, 0), rng)
    epoch2 = refresh_vehicle_epoch(veh, params, rng)
    session2 = auth.start_vehicle_auth(params, epoch2, beacon2, rsu2.tid)
    hello2 = auth.make_hello(params, session2, gk, rng, now_ms=2000)
    show("hello", hello2)
    rsu2_session, challenge2 = auth.process_hello(
        params, rsu2, hello2, now_ms=2010, delta_max_ms=500, neighbor_gks=[gk], rng=rng
    )
    if challenge2 is not None:
        raise ProtocolError("fast path did not engage")
    print(f"fast path admission, state={rsu2_session.state.value}")
    print(f"overhead per vehicle message: {groupcomm.measure_overhead(hello2)} bytes")
    return 0


# ---------------------------------------------------------------------------
# cost table
# ---------------------------------------------------------------------------


def _cmd_cost_table(args) -> int:
    import csv

    if args.n_max < 1 or args.step < 1:
        raise ValueError("--n-max and --step must be positive")
    timings = PrimitiveTimings(**{f.name: getattr(args, f.name) for f in fields(PrimitiveTimings)})
    timings.validate()
    rows = cost_table_rows(range(args.step, args.n_max + 1, args.step), timings)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "scheme", "side", "ms", "bytes"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    if args.config is not None:
        cfg = ScenarioConfig.from_json_file(args.config)
    else:
        cfg = ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    if args.densities:
        n_list = [int(x) for x in args.densities.split(",")]
        reports = sweep_density(cfg, n_list)
    else:
        reports = [Simulation(cfg).run()]
    for r in reports:
        delay = "n/a" if r.average_delay_ms is None else f"{r.average_delay_ms:.3f} ms"
        print(
            f"n={r.n_vehicles}: delay={delay} overhead={r.total_overhead_bytes} B "
            f"auth={r.auth_count} fastpath={r.fastpath_count} rekeys={r.rekey_count}"
        )
    if args.out:
        write_sweep_csv(reports, args.out)
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# codec dump
# ---------------------------------------------------------------------------


def _cmd_codec_dump(args) -> int:
    data = Path(args.file).read_bytes()
    width = PROFILES[args.profile].element_width if args.width is None else args.width
    if width < 1:
        # zero-width elements take no bytes, so no input length bounds a list count
        raise ValueError(f"--width must be at least 1, got {width}")
    msg = wire.decode_message(data, width)
    print(wire.describe(msg))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetgka",
        description="Deniable group key agreement protocol engine and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ta = sub.add_parser("ta", help="trust authority operations")
    ta_sub = ta.add_subparsers(dest="ta_command", required=True)

    p = ta_sub.add_parser("init", help="generate system parameters and TA keys")
    p.add_argument("--profile", default="default", choices=sorted(PROFILES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--state-dir", default="ta-state")
    p.set_defaults(func=_cmd_ta_init)

    p = ta_sub.add_parser("register-rsu", help="issue RSU credentials and beacon")
    p.add_argument("--state-dir", default="ta-state")
    p.add_argument("--tid", required=True)
    p.add_argument("--loc", required=True, help="x,y in centimeters")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_ta_register_rsu)

    p = ta_sub.add_parser("register-vehicle", help="issue vehicle credentials")
    p.add_argument("--state-dir", default="ta-state")
    p.add_argument("--tid", required=True)
    p.set_defaults(func=_cmd_ta_register_vehicle)

    p = ta_sub.add_parser("trace", help="recover a true identity from a pseudonym")
    p.add_argument("--state-dir", default="ta-state")
    p.add_argument("--fid", required=True, help="42-byte pseudonym, hex")
    p.add_argument("--pk", required=True, help="epoch public key, decimal")
    p.set_defaults(func=_cmd_ta_trace)

    gka = sub.add_parser("gka", help="RSU group key agreement")
    gka_sub = gka.add_subparsers(dest="gka_command", required=True)
    p = gka_sub.add_parser("run", help="run one agreement and print the keys")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile", default="default", choices=sorted(PROFILES))
    p.set_defaults(func=_cmd_gka_run)

    authp = sub.add_parser("auth", help="authentication walkthroughs")
    auth_sub = authp.add_subparsers(dest="auth_command", required=True)
    p = auth_sub.add_parser("demo", help="full exchange plus the fast path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile", default="default", choices=sorted(PROFILES))
    p.set_defaults(func=_cmd_auth_demo)

    cost = sub.add_parser("cost", help="analytic cost models")
    cost_sub = cost.add_subparsers(dest="cost_command", required=True)
    p = cost_sub.add_parser("table", help="emit the comparison CSV")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--out", default="costs.csv")
    for f in fields(PrimitiveTimings):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=f.default)
    p.set_defaults(func=_cmd_cost_table)

    p = sub.add_parser("simulate", help="run the discrete-event simulation")
    p.add_argument("--config", default=None, help="JSON scenario file")
    p.add_argument("--out", default=None, help="CSV report path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--densities", default=None, help="comma-separated vehicle counts")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("codec", help="wire format tooling")
    codec_sub = p.add_subparsers(dest="codec_command", required=True)
    d = codec_sub.add_parser("dump", help="pretty-print an encoded message")
    d.add_argument("file")
    d.add_argument("--profile", default="default", choices=sorted(PROFILES))
    d.add_argument("--width", type=int, default=None, help="element width override")
    d.set_defaults(func=_cmd_codec_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
