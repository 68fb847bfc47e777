"""Deterministic simulation of the token ring and a star baseline.

Time is integer microseconds.  Every random draw comes from generators seeded
by hashing (seed, label) pairs, so a (config, plan, seed) triple always yields
a byte-identical trace.  The ring carries one token at a time, so a round is
one walk: the hub emits, each device holds the token for a constant time and
forwards it, and the hub emits the next token only once it is back.  A
counter inside the token lets a few physical devices stand in for a much
larger ring.  A device's puzzle solve, the only other timed step, touches
only that device and runs just before its next token arrival.
"""

import random
import statistics
from dataclasses import dataclass, replace
from typing import Optional

from ringveil import crypto, protocol, schedule, token

RING = "ring"
STAR = "star"

STAR_COMMAND_BYTES = 128

_SENSOR_RECORD = b"periodic sensor reading "  # queued for each scripted read

# The per-run statistics a latency sweep reports, in column order.
STATS_FIELDS = ("n_devices", "mean_latency_us", "var_latency_us", "mean_token_bytes")


@dataclass(frozen=True)
class SimConfig:
    n_physical: int = 3
    n_virtual: Optional[int] = None  # defaults to n_physical
    topology: str = RING
    hop_latency: int = 500  # microseconds per link
    jitter: int = 0  # uniform [0, jitter] added per transmission
    bandwidth: int = 10  # bytes per microsecond
    squarings_per_tick: int = 1  # squarings per microsecond of device compute
    rounds: int = 10
    seed: int = 0
    modulus_bits: int = crypto.DEFAULT_MODULUS_BITS
    data_per_device: int = 64
    hold: int = 100  # constant per-node hold before forwarding
    command_interval: int = 10_000_000  # star mode: spacing between commands

    def __post_init__(self):
        if self.n_virtual is None:
            object.__setattr__(self, "n_virtual", self.n_physical)
        if self.topology not in (RING, STAR):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n_physical < 1:
            raise ValueError("need at least one physical device")
        if self.n_virtual < self.n_physical:
            raise ValueError("virtual device count cannot be below the physical count")
        if self.jitter and self.jitter >= self.hop_latency:
            raise ValueError("jitter bound must stay below the hop latency")
        if min(self.hop_latency, self.bandwidth, self.squarings_per_tick, self.rounds) < 1:
            raise ValueError("latency, bandwidth, squaring rate, and rounds must be positive")
        if min(self.hold, self.command_interval) < 0:
            raise ValueError("hold time and command interval cannot be negative")

    def fingerprint(self) -> str:
        """Geometry hash used to refuse apples-to-oranges view comparisons.

        Topology, seed, round count, and command cadence are deliberately
        excluded: those are exactly the axes experiments vary.
        """
        parts = (
            self.n_physical,
            self.n_virtual,
            self.hop_latency,
            self.jitter,
            self.bandwidth,
            self.squarings_per_tick,
            self.modulus_bits,
            self.data_per_device,
            self.hold,
        )
        return crypto.hash_digest("|".join(str(p) for p in parts).encode()).hex()[:16]


@dataclass
class TraceLog:
    records: list  # (time_us, src, dst, size_bytes, round)
    config_fingerprint: str = ""


def trace_to_csv(trace: TraceLog) -> str:
    lines = ["time_us,src,dst,bytes,round"]
    for time_us, src, dst, size, round_no in trace.records:
        lines.append(f"{time_us},{src},{dst},{size},{round_no}")
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str, config_fingerprint: str = "") -> TraceLog:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "time_us,src,dst,bytes,round":
        raise ValueError("not a trace CSV: missing header")
    records = []
    for ln in lines[1:]:
        time_us, src, dst, size, round_no = (int(v) for v in ln.split(","))
        records.append((time_us, src, dst, size, round_no))
    return TraceLog(records=records, config_fingerprint=config_fingerprint)


def layout_for(config: SimConfig) -> token.TokenLayout:
    return token.TokenLayout(
        n_devices=config.n_virtual,
        slot_size=token.max_wrapped_slot_size(config.modulus_bits) + 2,
        data_capacity=config.n_virtual * config.data_per_device,
    )


def registry_for(config: SimConfig) -> crypto.KeyRegistry:
    """The key registry a simulated ring provisions itself with.

    Plan compilation must use the same registry or no device will be able to
    unwrap its slot.
    """
    return crypto.KeyRegistry.provision(
        range(1, config.n_physical + 1), seed=crypto.derive_seed(config.seed, "registry")
    )


def transmit_time(config: SimConfig, frame_bytes: int) -> int:
    return -(-frame_bytes // config.bandwidth)


def predicted_forward_times(config: SimConfig):
    """Expected zero-jitter forward instant of each physical ring position,
    relative to the hub starting to transmit."""
    per_hop = config.hop_latency + transmit_time(config, layout_for(config).frame_size) + config.hold
    return [(p + 1) * per_hop for p in range(config.n_physical)]


def _link(config: SimConfig):
    """The arrival instant of a frame of `size` bytes sent at `depart`: hop
    latency, a jitter draw, then transmission.  Both topologies draw jitter
    from one per-seed stream, one draw per frame in the order sent."""
    jitter_rng = random.Random(crypto.derive_seed(config.seed, "jitter"))

    def arrival(depart: int, size: int) -> int:
        wobble = jitter_rng.randint(0, config.jitter) if config.jitter else 0
        return depart + config.hop_latency + wobble + transmit_time(config, size)

    return arrival


def _stats(config: SimConfig, rounds: int, latencies, records) -> dict:
    """The statistics both topologies report, over their latencies and frames."""
    return {
        "n_devices": config.n_virtual,
        "rounds": rounds,
        "mean_latency_us": statistics.fmean(latencies) if latencies else 0.0,
        "var_latency_us": statistics.pvariance(latencies) if len(latencies) > 1 else 0.0,
        "mean_token_bytes": (
            statistics.fmean(size for _, _, _, size, _ in records) if records else 0.0
        ),
    }


def _check_plan(config: SimConfig, plan, registry):
    if plan.ring_size != config.n_physical:
        raise ValueError(
            f"plan covers {plan.ring_size} devices, config has {config.n_physical}"
        )
    schedule.check_one_entry_each(plan.entries)
    if plan.entries:
        probe = plan.entries[0]
        try:
            crypto.unwrap_for_device(
                probe.wrapped, registry.device_secret(probe.device_id)
            )
        except (crypto.AuthenticationError, crypto.FramingError, KeyError) as exc:
            raise ValueError(
                "plan was not compiled against the simulation registry"
            ) from exc
        bits = max(e.puzzle.n.bit_length() for e in plan.entries)
        needed = protocol.report_upload_bytes(bits)
        if config.data_per_device < needed:
            raise ValueError(
                f"data_per_device={config.data_per_device} cannot carry a {bits}-bit "
                f"execution report; it needs at least {needed}"
            )


def _run_ring(config: SimConfig, plan, script, registry):
    layout = layout_for(config)
    hub = protocol.make_hub(registry, layout, rng_seed=config.seed)
    if plan is not None:
        _check_plan(config, plan, registry)
    # The ring runs in device-id order whatever the plan: the hub sends to
    # device 1, and device d forwards to d + 1, the last wrapping to 1.
    n_physical = config.n_physical
    devices = {
        d: protocol.make_device(d, registry, layout) for d in range(1, n_physical + 1)
    }

    if plan is not None and plan.entries:
        order_msg = protocol.owner_create_order(plan, registry)
        if not protocol.hub_accept_order(hub, order_msg, registry.owner_keypair[1]):
            raise ValueError("plan does not verify under the simulation registry")
    for action in script or ():
        if action[0] == "read":
            protocol.enqueue_upload(devices[action[1]], _SENSOR_RECORD)

    arrival = _link(config)
    records = []
    per_round = []  # latency of each round, emit to return
    # device id -> instant the solve of its held puzzle completes.  A solve
    # touches only its own device, so it runs just before that device's next
    # token arrival (first on a tie) or, failing one, after the last round.
    solve_at = {}

    def solve(device_id: int, now: int):
        state = devices[device_id]
        protocol.device_tick(state, state.pending_puzzle.t_hat - state.solve_progress, now=now)

    now = 0
    for _ in range(config.rounds):
        # One walk of the token: hub, device 1, ..., hub.
        round_start = now
        frame = protocol.hub_emit_token(hub)
        src, dst = protocol.HUB_ID, 1
        while True:
            now = arrival(now, len(frame))
            records.append((now, src, dst, len(frame), hub.round))
            if dst == protocol.HUB_ID:
                break
            if dst in solve_at and solve_at[dst] <= now:
                solve(dst, solve_at.pop(dst))
            state = devices[dst]
            held = state.pending_puzzle
            frame = protocol.device_on_token(state, frame, now)
            if state.pending_puzzle is not None and state.pending_puzzle is not held:
                remaining = state.pending_puzzle.t_hat - state.solve_progress
                compute_us = -(-remaining // config.squarings_per_tick)
                solve_at[dst] = now + config.hold + compute_us
            src, dst = dst, protocol.HUB_ID if state.last_counter <= 0 else dst % n_physical + 1
            now += config.hold
        protocol.hub_on_token(hub, frame)
        per_round.append(now - round_start)
        now += config.hold
    for device_id, at in solve_at.items():
        solve(device_id, at)

    trace = TraceLog(records=records, config_fingerprint=config.fingerprint())
    reports = protocol.collect_reports(hub)
    hold_per_round = config.n_virtual * config.hold
    stats = _stats(config, len(per_round), per_round, records)
    stats["t_sum_mean_us"] = (
        statistics.fmean(lat - hold_per_round for lat in per_round) if per_round else 0.0
    )
    stats["uploads_recovered"] = len(hub.recovered)
    return trace, reports, stats, hub, devices


def _run_star(config: SimConfig, plan, script):
    if script is None and plan is not None:
        script = tuple(
            ("set", e.device_id, schedule.STATE_ON) for e in plan.entries
        )
    script = tuple(script or ())
    arrival = _link(config)
    records = []
    latencies = []

    for ordinal, action in enumerate(script * config.rounds, start=1):
        now = (ordinal - 1) * config.command_interval
        device_id = action[1]
        cmd_arrival = arrival(now, STAR_COMMAND_BYTES)
        records.append((cmd_arrival, protocol.HUB_ID, device_id, STAR_COMMAND_BYTES, ordinal))
        last = cmd_arrival
        if action[0] == "read":
            resp_arrival = arrival(cmd_arrival + config.hold, config.data_per_device)
            records.append(
                (resp_arrival, device_id, protocol.HUB_ID, config.data_per_device, ordinal)
            )
            last = resp_arrival
        latencies.append(last - now)

    records.sort(key=lambda r: (r[0], r[4]))
    trace = TraceLog(records=records, config_fingerprint=config.fingerprint())
    return trace, [], _stats(config, config.rounds, latencies, records)


def run(config: SimConfig, plan=None, *, script=None, registry=None):
    """Execute the configured number of rounds; returns (trace, reports, stats).

    `script` carries the ordered set/read actions for the star baseline and
    the read-triggered uploads in ring mode.  `registry` defaults to the
    deterministic per-seed registry from registry_for().
    """
    if config.topology == STAR:
        return _run_star(config, plan, script)
    if registry is None:
        registry = registry_for(config)
    trace, reports, stats, _hub, _devices = _run_ring(config, plan, script, registry)
    return trace, reports, stats


def latency_sweep(base: SimConfig, device_counts):
    """One padding-token run per device count, fixed seed, growing frames.

    The runs go one after another in this process.  Round latency and frame
    size depend on the virtual count alone, so the physical count is capped
    at each virtual count and otherwise taken from ``base``.
    """
    if not device_counts:
        raise ValueError("device_counts must be non-empty")
    rows = []
    for n in device_counts:
        config = replace(base, topology=RING, n_virtual=n, n_physical=min(base.n_physical, n))
        _trace, _reports, stats = run(config)
        rows.append({name: stats[name] for name in STATS_FIELDS})
    return rows
