"""Compile partially ordered device schedules into per-device time-lock puzzles.

The owner expresses constraints as ordered pairs (earlier, later).  The ring
is fixed at provisioning, in device-id order, and no schedule moves a device
on it: were the token to follow the pairs, a wiretap would read them off who
sends to whom.  Compilation assigns each scheduled device a squaring count
t_hat such that devices bound by a pair actuate in order with a safety margin,
whichever way the pair runs around the ring, and unconstrained devices all
actuate at one shared instant.  A linear extension of the partial order only
checks for cycles and sets the order in which devices are assigned.
"""

import heapq
import json
import random
from dataclasses import dataclass, field

from ringveil import crypto

DEFAULT_BASE_T_HAT = 1000  # squarings given to the earliest device in a chain

COMMAND_BYTES = 1 + 4 + 8  # state byte, device id, sequence number

PLAN_FORMAT = "ringveil-plan-v3"

STATE_ON = "on"
STATE_OFF = "off"


class CycleError(ValueError):
    """The ordering pairs contain a directed cycle among distinct devices."""


class ScheduleParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class PartialOrder:
    devices: tuple
    pairs: tuple
    states: dict = field(default_factory=dict)
    # Ordered action sequence for the star-baseline comparison: ("set", id,
    # state) and ("read", id) entries in declaration order.  Ring compilation
    # ignores it apart from read actions, which queue one anonymous upload.
    script: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        object.__setattr__(self, "script", tuple(tuple(s) for s in self.script))
        declared = set(self.devices)
        if len(declared) != len(self.devices):
            raise ValueError("duplicate device id in schedule")
        for a, b in self.pairs:
            if a not in declared or b not in declared:
                raise ValueError(f"pair ({a},{b}) references an undeclared device")
        for d in self.states:
            if d not in declared:
                raise ValueError(f"state for undeclared device {d}")
        for action in self.script:
            if action[1] not in declared:
                raise ValueError(f"script action for undeclared device {action[1]}")

    def effective_script(self):
        """The action sequence, defaulting to one set per device in order."""
        if self.script:
            return self.script
        return tuple(("set", d, self.state_of(d)) for d in self.devices)

    def constrained_devices(self):
        """Devices appearing in at least one pair with distinct endpoints."""
        out = set()
        for a, b in self.pairs:
            if a != b:
                out.add(a)
                out.add(b)
        return out

    def state_of(self, device_id) -> str:
        return self.states.get(device_id, STATE_ON)


@dataclass(frozen=True)
class PlanEntry:
    device_id: int
    command: bytes
    t_hat: int
    puzzle: crypto.Puzzle
    wrapped: bytes


@dataclass(frozen=True)
class SchedulePlan:
    entries: tuple
    slot_length: int  # time units; max t_hat at the plan's calibration
    comparable_count: int
    ring_size: int  # the physical ring the forward times were predicted for
    pairs: tuple
    squarings_per_unit: int
    issued_at: int

    def entry_for(self, device_id):
        for entry in self.entries:
            if entry.device_id == device_id:
                return entry
        return None


def linear_extension(order: PartialOrder, n: int):
    """Lexicographically smallest linear extension over device ids 1..n.

    Every device in the ring appears in the result even if unscheduled;
    unconstrained ids slot in by numeric order.
    """
    universe = list(range(1, n + 1))
    for d in order.devices:
        if not 1 <= d <= n:
            raise ValueError(f"device id {d} outside ring capacity {n}")
    successors = {d: set() for d in universe}
    indegree = {d: 0 for d in universe}
    for a, b in order.pairs:
        if a == b:
            continue  # reflexive pairs impose nothing
        if b not in successors[a]:
            successors[a].add(b)
            indegree[b] += 1
    heap = [d for d in universe if indegree[d] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        d = heapq.heappop(heap)
        out.append(d)
        for succ in sorted(successors[d]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, succ)
    if len(out) != n:
        raise CycleError("ordering pairs contain a directed cycle")
    return out


def assign_time_bounds(
    order: PartialOrder,
    hop_forward_times,
    *,
    squarings_per_unit: int = 1,
    base_t_hat: int = DEFAULT_BASE_T_HAT,
):
    """Map each scheduled device to a squaring count t_hat.

    Device d sits at ring position d and forwards the token at
    hop_forward_times[d - 1].  Devices with no ordering constraint share one
    actuation instant: the earlier a device forwards the token, the more
    squarings it is given, so completion times coincide.  Constrained devices
    are assigned in linear-extension order, so every predecessor is assigned
    first.  A pair (a, b) finishes N times their forward-time gap apart in
    calibrated time, whether b forwards after a (t_hat gap (N-1) times the
    forward gap) or before it ((N+1) times).
    """
    n = len(hop_forward_times)
    for earlier, later in zip(hop_forward_times, hop_forward_times[1:]):
        if later <= earlier:
            raise ValueError("hop forward times must be strictly increasing")
    extension = linear_extension(order, n)
    forward = {d: hop_forward_times[d - 1] for d in order.devices}

    constrained = order.constrained_devices()
    free = [d for d in order.devices if d not in constrained]

    bounds = {}
    if free:
        latest = max(forward[d] for d in free)
        for d in free:
            bounds[d] = base_t_hat + squarings_per_unit * (latest - forward[d])

    predecessors = {d: set() for d in constrained}
    for a, b in order.pairs:
        if a != b:
            predecessors[b].add(a)
    for d in (d for d in extension if d in constrained):
        t_hat = base_t_hat
        for p in predecessors[d]:
            step = forward[p] - forward[d]
            gap = (step + n * abs(step)) * squarings_per_unit
            t_hat = max(t_hat, bounds[p] + gap)
        bounds[d] = t_hat
    return bounds


def encode_command(state: str, device_id: int, sequence: int) -> bytes:
    state_byte = b"\x01" if state == STATE_ON else b"\x00"
    return state_byte + device_id.to_bytes(4, "big") + sequence.to_bytes(8, "big")


def decode_command(buf: bytes):
    if len(buf) != COMMAND_BYTES:
        raise crypto.FramingError(f"command must be {COMMAND_BYTES} bytes")
    state = STATE_ON if buf[0] == 1 else STATE_OFF
    return state, int.from_bytes(buf[1:5], "big"), int.from_bytes(buf[5:13], "big")


def compile(
    order: PartialOrder,
    registry: crypto.KeyRegistry,
    params: crypto.PuzzleParams,
    hop_forward_times,
    *,
    rng_seed=0,
    issued_at: int = 0,
    squarings_per_unit: int = 1,
    base_t_hat: int = DEFAULT_BASE_T_HAT,
) -> SchedulePlan:
    """Compile one puzzle per scheduled device, each wrapped for its device key."""
    n = len(hop_forward_times)
    if len(order.devices) > n:
        raise ValueError(
            f"{len(order.devices)} scheduled devices exceed ring capacity {n}"
        )
    extension = linear_extension(order, n)  # raises CycleError on bad input
    for d in order.devices:
        if d not in registry.device_keypairs:
            raise ValueError(f"device {d} has no provisioned keypair")

    bounds = assign_time_bounds(
        order,
        hop_forward_times,
        squarings_per_unit=squarings_per_unit,
        base_t_hat=base_t_hat,
    )
    slot_length = -(-max(bounds.values(), default=0) // squarings_per_unit)
    t_val = issued_at + 2 * slot_length

    rng = random.Random(crypto.derive_seed("plan", rng_seed))
    entries = []
    for seq, device_id in enumerate(d for d in extension if d in order.devices):
        command = encode_command(order.state_of(device_id), device_id, seq)
        key = rng.randrange(1, params.n)
        a = crypto.random_base(rng, params.n)
        puzzle = crypto.puzzle_create(params, a, bounds[device_id], command, key, t_val)
        wrapped = crypto.wrap_for_device(
            crypto.puzzle_to_bytes(puzzle), registry.device_secret(device_id), rng
        )
        entries.append(
            PlanEntry(
                device_id=device_id,
                command=command,
                t_hat=bounds[device_id],
                puzzle=puzzle,
                wrapped=wrapped,
            )
        )
    return SchedulePlan(
        entries=tuple(entries),
        slot_length=slot_length,
        comparable_count=len(order.constrained_devices()),
        ring_size=n,
        pairs=tuple(p for p in order.pairs if p[0] != p[1]),
        squarings_per_unit=squarings_per_unit,
        issued_at=issued_at,
    )


def parse_schedule_text(text: str) -> PartialOrder:
    """Parse the line-oriented schedule format.

    One declaration per line: `device <id>`, `pair <id> <id>`,
    `state <id> on|off`, `read <id>`.  Blank lines and `#` comments are
    ignored.  State and read lines also define the action sequence used by
    the star-topology baseline, in declaration order.
    """
    devices = []
    pairs = []
    states = {}
    script = []
    declared = set()

    def parse_id(token, line_no):
        try:
            value = int(token)
        except ValueError:
            raise ScheduleParseError(line_no, f"device id {token!r} is not an integer")
        if value < 1:
            raise ScheduleParseError(line_no, "device ids start at 1")
        return value

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "device":
            if len(tokens) != 2:
                raise ScheduleParseError(line_no, "expected: device <id>")
            d = parse_id(tokens[1], line_no)
            if d in declared:
                raise ScheduleParseError(line_no, f"device {d} declared twice")
            declared.add(d)
            devices.append(d)
        elif keyword == "pair":
            if len(tokens) != 3:
                raise ScheduleParseError(line_no, "expected: pair <id> <id>")
            a = parse_id(tokens[1], line_no)
            b = parse_id(tokens[2], line_no)
            for d in (a, b):
                if d not in declared:
                    raise ScheduleParseError(line_no, f"device {d} not declared")
            pairs.append((a, b))
        elif keyword == "state":
            if len(tokens) != 3 or tokens[2] not in (STATE_ON, STATE_OFF):
                raise ScheduleParseError(line_no, "expected: state <id> on|off")
            d = parse_id(tokens[1], line_no)
            if d not in declared:
                raise ScheduleParseError(line_no, f"device {d} not declared")
            states[d] = tokens[2]
            script.append(("set", d, tokens[2]))
        elif keyword == "read":
            if len(tokens) != 2:
                raise ScheduleParseError(line_no, "expected: read <id>")
            d = parse_id(tokens[1], line_no)
            if d not in declared:
                raise ScheduleParseError(line_no, f"device {d} not declared")
            script.append(("read", d))
        else:
            raise ScheduleParseError(line_no, f"unknown declaration {keyword!r}")
    return PartialOrder(
        devices=tuple(devices), pairs=tuple(pairs), states=states, script=tuple(script)
    )


def plan_to_json(plan: SchedulePlan) -> str:
    doc = {
        "format": PLAN_FORMAT,
        "slot_length": plan.slot_length,
        "comparable_count": plan.comparable_count,
        "ring_size": plan.ring_size,
        "pairs": [list(p) for p in plan.pairs],
        "squarings_per_unit": plan.squarings_per_unit,
        "issued_at": plan.issued_at,
        "entries": [
            {
                "device_id": e.device_id,
                "command": e.command.hex(),
                "t_hat": e.t_hat,
                "puzzle": crypto.puzzle_to_bytes(e.puzzle).hex(),
                "wrapped": e.wrapped.hex(),
            }
            for e in plan.entries
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def json_field(doc, name: str, kind: type):
    """doc[name] if doc is a JSON object with a `kind` there, else a ValueError."""
    value = doc.get(name) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"field {name!r} is missing or not of type {kind.__name__}")
    return value


def check_one_entry_each(entries):
    """Refuse a plan that gives one device more than one entry."""
    ids = [e.device_id for e in entries]
    for device_id in ids:
        if ids.count(device_id) > 1:
            raise ValueError(f"device {device_id} has more than one plan entry")


def plan_from_json(text: str) -> SchedulePlan:
    """Read a plan document.  v1 and v2 documents hold slots wrapped under a
    one-time key that no device holds any more, so they are refused."""
    doc = json.loads(text)
    version = json_field(doc, "format", str)
    if version in ("ringveil-plan-v1", "ringveil-plan-v2"):
        raise ValueError("plan slots use the retired wrap; recompile the plan")
    if version != PLAN_FORMAT:
        raise ValueError("not a schedule plan document")
    ring_size = json_field(doc, "ring_size", int)
    entries = tuple(
        PlanEntry(
            device_id=json_field(e, "device_id", int),
            command=bytes.fromhex(json_field(e, "command", str)),
            t_hat=json_field(e, "t_hat", int),
            puzzle=crypto.puzzle_from_bytes(bytes.fromhex(json_field(e, "puzzle", str))),
            wrapped=bytes.fromhex(json_field(e, "wrapped", str)),
        )
        for e in json_field(doc, "entries", list)
    )
    check_one_entry_each(entries)
    pairs = json_field(doc, "pairs", list)
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(d) is int for d in pair)):
            raise ValueError("field 'pairs' must hold [earlier, later] device-id pairs")
        if not set(pair) <= {e.device_id for e in entries}:
            raise ValueError(f"pair {pair} names a device with no plan entry")
    return SchedulePlan(
        entries=entries,
        slot_length=json_field(doc, "slot_length", int),
        comparable_count=json_field(doc, "comparable_count", int),
        ring_size=ring_size,
        pairs=tuple(tuple(p) for p in pairs),
        squarings_per_unit=json_field(doc, "squarings_per_unit", int),
        issued_at=json_field(doc, "issued_at", int),
    )
