"""Command-line front end: schedule compilation, puzzle tooling, calibration,
simulation runs and sweeps, and wiretap analysis.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error,
4 protocol failure (the ring could not carry the run, e.g. an upload larger
than its sub-field).
The seed comes from --seed, falling back to the RINGVEIL_SEED environment
variable, then 0.  Each command takes only the network flags it reads, and
SimConfig's defaults fill in the rest.  Every simulation run writes a
manifest carrying the seed and the full config so any output can be
reproduced byte for byte.  calibrate takes no seed: it squares under one
fixed modulus per width and times the calling thread's CPU.
"""

import argparse
import json
import os
import random
import sys
import time
from dataclasses import asdict

from ringveil import adversary, crypto, protocol, schedule, simnet
from ringveil._kernel import BACKEND, square_chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4

STATS_HEADER = ",".join(simnet.STATS_FIELDS)

FAR_FUTURE_US = 2**62


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("RINGVEIL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"RINGVEIL_SEED must be an integer, got {env!r}")


def _int_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty device list")
    return values


# The SimConfig fields each command reads.  A compile predicts zero-jitter
# forward times, so it never reads the round count, jitter or star cadence; a
# sweep runs padding-only rings, which never solve and never use the star.
_COMPILE_FIELDS = (
    "hop_latency", "bandwidth", "squarings_per_tick", "hold", "modulus_bits", "data_per_device"
)
_SWEEP_FIELDS = (
    "rounds", "hop_latency", "jitter", "bandwidth", "hold", "modulus_bits", "data_per_device"
)
_RUN_FIELDS = _SWEEP_FIELDS + ("squarings_per_tick", "command_interval")


def _network_flags(parser, fields):
    """--seed plus one flag per named SimConfig field, defaulting to SimConfig's."""
    defaults = simnet.SimConfig()
    parser.add_argument("--seed", type=int, default=None)
    for field in fields:
        if field == "squarings_per_tick":
            flag, help_text = "--squaring-rate", "device squarings per microsecond (S)"
        else:
            flag, help_text = "--" + field.replace("_", "-"), None
        parser.add_argument(flag, dest=field, type=int, default=getattr(defaults, field),
                            help=help_text)
    parser.set_defaults(network_fields=fields)


def _config_from_args(args, **geometry):
    settings = {field: getattr(args, field) for field in args.network_fields}
    return simnet.SimConfig(seed=_resolve_seed(args.seed), **settings, **geometry)


def _stats_line(stats) -> str:
    return ",".join(str(stats[name]) for name in simnet.STATS_FIELDS)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _params_for(config) -> crypto.PuzzleParams:
    return crypto.gen_params(
        config.modulus_bits, rng_seed=crypto.derive_seed(config.seed, "params")
    )


def _compile_plan(order, config, params):
    return schedule.compile(
        order,
        simnet.registry_for(config),
        params,
        simnet.predicted_forward_times(config),
        rng_seed=config.seed,
        squarings_per_unit=config.squarings_per_tick,
    )


# --- schedule -----------------------------------------------------------


def _cmd_schedule_compile(args):
    with open(args.schedule) as fh:
        text = fh.read()
    order = schedule.parse_schedule_text(text)
    config = _config_from_args(args, n_physical=max(len(order.devices), 1))
    params = _params_for(config)
    plan = _compile_plan(order, config, params)
    _write(args.out, schedule.plan_to_json(plan))
    if args.params_out:
        _write(
            args.params_out,
            json.dumps({"p": params.p, "q": params.q, "n": params.n,
                        "phi": params.phi, "bits": config.modulus_bits}),
        )
    print(
        json.dumps(
            {
                "devices": len(plan.entries),
                "slot_length_us": plan.slot_length,
                "out": args.out,
            }
        )
    )
    return EXIT_OK


# --- puzzle -------------------------------------------------------------


def _cmd_puzzle_gen(args):
    seed = _resolve_seed(args.seed)
    rng = random.Random(crypto.derive_seed(seed, "puzzle-gen"))
    if (args.p is None) != (args.q is None):
        raise ValueError("--p and --q must be given together")
    if args.p is not None:
        params = crypto.PuzzleParams.from_primes(args.p, args.q)
    else:
        params = crypto.gen_params(args.bits, rng_seed=crypto.derive_seed(seed, "params"))
    key = args.key if args.key is not None else rng.randrange(params.n)
    a = args.a if args.a is not None else crypto.random_base(rng, params.n)
    puzzle = crypto.puzzle_create(
        params, a, args.t_hat, args.command.encode(), key, args.t_val
    )
    _write(args.out, crypto.puzzle_to_bytes(puzzle).hex() + "\n")
    if args.secrets_out:
        _write(
            args.secrets_out,
            json.dumps({"n": params.n, "phi": params.phi, "key": key}),
        )
    print(
        json.dumps(
            {"n": params.n, "a": a, "t_hat": args.t_hat, "t_val": args.t_val, "out": args.out}
        )
    )
    return EXIT_OK


def _read_puzzle(path) -> crypto.Puzzle:
    with open(path) as fh:
        text = fh.read().strip()
    try:
        blob = bytes.fromhex(text)
    except ValueError:
        raise crypto.FramingError("puzzle file is not hex")
    return crypto.puzzle_from_bytes(blob)


def _cmd_puzzle_solve(args):
    puzzle = _read_puzzle(args.infile)
    solution = crypto.puzzle_solve(puzzle)
    report = {
        "key": solution.key,
        "command": solution.command.decode("utf-8", "replace"),
        "squarings_performed": solution.squarings_performed,
    }
    if args.out:
        _write(args.out, json.dumps(report))
    print(json.dumps(report))
    return EXIT_OK


def _cmd_puzzle_verify(args):
    puzzle = _read_puzzle(args.infile)
    with open(args.secrets) as fh:
        phi = schedule.json_field(json.load(fh), "phi", int)
    if args.key is not None:
        claimed = args.key
    elif args.solution:
        with open(args.solution) as fh:
            claimed = schedule.json_field(json.load(fh), "key", int)
    else:
        raise ValueError("need --key or --solution to verify against")
    residue = crypto.puzzle_fast_eval(puzzle, phi)
    expected = (puzzle.e_k - residue) % puzzle.n
    verdict = claimed == expected
    print(json.dumps({"verified": verdict, "t_hat": puzzle.t_hat}))
    return EXIT_OK if verdict else EXIT_VERIFY


# --- calibrate ----------------------------------------------------------


def _cmd_calibrate(args):
    modulus = crypto.gen_params(args.modulus_bits, rng_seed=crypto.derive_seed(0, "calibrate")).n
    square_chain(2, modulus, 2000)  # warm the path
    batch = 2000
    total_steps = 0
    elapsed = 0.0
    budget = args.duration_ms / 1000.0
    value = 2
    while elapsed < budget:
        start = time.thread_time()
        value = square_chain(value, modulus, batch)
        elapsed += time.thread_time() - start
        total_steps += batch
    rate = total_steps / elapsed
    report = {
        "squarings_per_second": int(rate),
        "squarings_per_us": rate / 1e6,
        "modulus_bits": args.modulus_bits,
        "backend": BACKEND,
        "measured_ms": round(elapsed * 1000, 3),
    }
    print(json.dumps(report))
    return EXIT_OK


# --- sim ----------------------------------------------------------------


def _load_schedule_input(path, config, topology):
    """A --schedule argument may be a compiled plan (JSON) or schedule text."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return schedule.plan_from_json(text), None
    order = schedule.parse_schedule_text(text)
    script = order.effective_script()
    if topology == simnet.STAR:
        return None, script
    return _compile_plan(order, config, _params_for(config)), script


def _cmd_sim_run(args):
    config = _config_from_args(
        args, n_physical=args.devices, n_virtual=args.virtual, topology=args.mode
    )
    plan, script = (None, None)
    if args.schedule:
        plan, script = _load_schedule_input(args.schedule, config, args.mode)
    trace, reports, stats = simnet.run(config, plan, script=script)

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.csv")
    _write(trace_path, simnet.trace_to_csv(trace))
    _write(os.path.join(args.out_dir, "stats.csv"), STATS_HEADER + "\n" + _stats_line(stats) + "\n")
    manifest = {
        "seed": config.seed,
        "schedule": args.schedule,
        "out_dir": args.out_dir,
        "fingerprint": config.fingerprint(),
        "config": asdict(config),
    }
    _write(os.path.join(args.out_dir, "manifest.json"), json.dumps(manifest, indent=2))
    if reports:
        _write(
            os.path.join(args.out_dir, "reports.json"),
            json.dumps([asdict(r) for r in reports]),
        )
    print(
        json.dumps(
            {
                "trace": trace_path,
                "rounds": stats["rounds"],
                "mean_latency_us": stats["mean_latency_us"],
                "reports": len(reports),
            }
        )
    )
    return EXIT_OK


def _cmd_sim_sweep(args):
    rows = simnet.latency_sweep(_config_from_args(args), args.devices)
    text = "\n".join([STATS_HEADER] + [_stats_line(row) for row in rows]) + "\n"
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return EXIT_OK


# --- adversary ----------------------------------------------------------


def _load_view(trace_path):
    with open(trace_path) as fh:
        text = fh.read()
    fingerprint = ""
    manifest_path = os.path.join(os.path.dirname(trace_path) or ".", "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            fingerprint = json.load(fh).get("fingerprint", "")
    return adversary.build_view(simnet.trace_from_csv(text, fingerprint))


def _cmd_adversary_analyze(args):
    view_a = _load_view(args.trace_a)
    if args.trace_b:
        cfg = adversary.AdversaryConfig(significance=args.significance)
        report = adversary.distinguish_schedules(view_a, _load_view(args.trace_b), cfg)
        print(json.dumps(report, indent=2))
        return EXIT_OK
    activity = {}
    for _, device, _ in view_a.command_obs:
        activity.setdefault(device, [0, 0])[0] += 1
    for _, device, _ in view_a.data_obs:
        activity.setdefault(device, [0, 0])[1] += 1
    lines = ["device,commands_received,data_sent"]
    for device in sorted(activity):
        received, sent = activity[device]
        lines.append(f"{device},{received},{sent}")
    print("\n".join(lines))
    return EXIT_OK


# --- wiring -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ringveil", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_sched = sub.add_parser("schedule", help="schedule tooling")
    sched_sub = p_sched.add_subparsers(dest="subcommand")
    p_compile = sched_sub.add_parser("compile", help="schedule text -> plan JSON")
    p_compile.add_argument("schedule")
    p_compile.add_argument("--out", default="plan.json")
    p_compile.add_argument("--params-out", default=None,
                           help="write the puzzle trapdoor parameters here")
    _network_flags(p_compile, _COMPILE_FIELDS)
    p_compile.set_defaults(func=_cmd_schedule_compile)

    p_puzzle = sub.add_parser("puzzle", help="time-lock puzzle tooling")
    puz_sub = p_puzzle.add_subparsers(dest="subcommand")
    p_gen = puz_sub.add_parser("gen")
    p_gen.add_argument("--p", type=int, default=None, help="test prime p")
    p_gen.add_argument("--q", type=int, default=None, help="test prime q")
    p_gen.add_argument("--bits", type=int, default=crypto.DEFAULT_MODULUS_BITS)
    p_gen.add_argument("--a", type=int, default=None)
    p_gen.add_argument("--t-hat", type=int, required=True)
    p_gen.add_argument("--key", type=int, default=None)
    p_gen.add_argument("--command", default="noop")
    p_gen.add_argument("--t-val", type=int, default=FAR_FUTURE_US)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default="puzzle.hex")
    p_gen.add_argument("--secrets-out", default=None)
    p_gen.set_defaults(func=_cmd_puzzle_gen)
    p_solve = puz_sub.add_parser("solve")
    p_solve.add_argument("infile")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=_cmd_puzzle_solve)
    p_verify = puz_sub.add_parser("verify")
    p_verify.add_argument("infile")
    p_verify.add_argument("--secrets", required=True)
    p_verify.add_argument("--solution", default=None)
    p_verify.add_argument("--key", type=int, default=None)
    p_verify.set_defaults(func=_cmd_puzzle_verify)

    p_cal = sub.add_parser("calibrate", help="measure host squaring rate")
    p_cal.add_argument("--modulus-bits", type=int, default=crypto.DEFAULT_MODULUS_BITS)
    p_cal.add_argument("--duration-ms", type=int, default=200)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_sim = sub.add_parser("sim", help="network simulation")
    sim_sub = p_sim.add_subparsers(dest="subcommand")
    p_run = sim_sub.add_parser("run")
    p_run.add_argument("--mode", choices=(simnet.RING, simnet.STAR), default=simnet.RING)
    p_run.add_argument("--devices", type=int, default=3)
    p_run.add_argument("--virtual", type=int, default=None)
    p_run.add_argument("--schedule", default=None,
                       help="schedule text or compiled plan JSON")
    p_run.add_argument("--out-dir", default="simout")
    _network_flags(p_run, _RUN_FIELDS)
    p_run.set_defaults(func=_cmd_sim_run)
    p_sweep = sim_sub.add_parser("sweep")
    p_sweep.add_argument("--devices", type=_int_list, required=True,
                         help="comma-separated virtual device counts")
    p_sweep.add_argument("--out", default=None)
    _network_flags(p_sweep, _SWEEP_FIELDS)
    p_sweep.set_defaults(func=_cmd_sim_sweep)

    p_adv = sub.add_parser("adversary", help="wiretap analysis")
    adv_sub = p_adv.add_subparsers(dest="subcommand")
    p_an = adv_sub.add_parser("analyze")
    p_an.add_argument("--trace-a", required=True)
    p_an.add_argument("--trace-b", default=None)
    p_an.add_argument("--significance", type=float, default=adversary.DEFAULT_SIGNIFICANCE)
    p_an.set_defaults(func=_cmd_adversary_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except crypto.AuthenticationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except crypto.FramingError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except protocol.ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except schedule.ScheduleParseError as exc:
        print(f"schedule error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
