"""Owner, hub, and device state machines for token circulation.

The owner signs a compiled plan into an Order.  The hub verifies it, delivers
the per-device puzzle slots in the next token round, and keeps every later
round's token identical in shape: unused slots and the data field carry fresh
random bytes.  Devices pull their slot, solve the puzzle between token
arrivals, actuate when the squaring chain completes, and push execution
reports back through the XOR-concealed data field, each in its own sub-field
once the hub grants it.  The owner finally checks each report against its
trapdoor and the plan's ordering constraints.

Every hop handler edits the party state it is given in place and returns
only what goes on the wire: the frame to send, or None where nothing is sent.
"""

import random
from dataclasses import dataclass, field
from typing import Optional

from ringveil import crypto, schedule, token

OWNER_ID = 1000
HUB_ID = 0
DEFAULT_T_DIFF = 50_000  # allowed clock difference, microseconds

# Nonce composition for per-hop re-sealing: high bits identify the sealing
# node (0 = hub, the device id for devices, which on the fixed ring is also
# its ring position counted from 1), low bits count its seals.
_NONCE_POSITION_SHIFT = 40


class ProtocolError(Exception):
    pass


@dataclass(frozen=True)
class Order:
    owner_id: int
    hub_id: int
    commands: bytes
    digest: bytes
    signature: bytes


@dataclass(frozen=True)
class ExecutionReport:
    device_id: int
    t_com: int
    t_hat: int
    solution: int  # a^(2^t_hat) mod n as computed by the device


def report_to_bytes(report: ExecutionReport) -> bytes:
    return (
        report.device_id.to_bytes(4, "big")
        + report.t_com.to_bytes(8, "big")
        + report.t_hat.to_bytes(8, "big")
        + crypto.encode_bigint(report.solution)
    )


def report_upload_bytes(modulus_bits: int) -> int:
    """Sub-field width a report upload needs: the widest report (its residue
    lies below the modulus) plus the 2-byte length prefix."""
    return 4 + 8 + 8 + 4 + (modulus_bits + 7) // 8 + 2


def report_from_bytes(buf: bytes) -> ExecutionReport:
    if len(buf) < 24:
        raise crypto.FramingError("execution report too short")
    device_id = int.from_bytes(buf[0:4], "big")
    t_com = int.from_bytes(buf[4:12], "big")
    t_hat = int.from_bytes(buf[12:20], "big")
    solution, end = crypto.decode_bigint(buf, 20)
    if end != len(buf):
        raise crypto.FramingError("trailing bytes after execution report")
    return ExecutionReport(device_id=device_id, t_com=t_com, t_hat=t_hat, solution=solution)


def _serialize_commands(entries) -> bytes:
    parts = [len(entries).to_bytes(4, "big")]
    for device_id, wrapped in entries:
        parts.append(device_id.to_bytes(4, "big"))
        parts.append(crypto.encode_blob(wrapped))
    return b"".join(parts)


def _parse_commands(buf: bytes):
    if len(buf) < 4:
        raise crypto.FramingError("command list too short")
    count = int.from_bytes(buf[0:4], "big")
    offset = 4
    out = []
    for _ in range(count):
        if offset + 4 > len(buf):
            raise crypto.FramingError("truncated command entry")
        device_id = int.from_bytes(buf[offset : offset + 4], "big")
        wrapped, offset = crypto.decode_blob(buf, offset + 4)
        out.append((device_id, wrapped))
    if offset != len(buf):
        raise crypto.FramingError("trailing bytes after command list")
    return out


def _order_digest(owner_id: int, hub_id: int, commands: bytes) -> bytes:
    return crypto.hash_digest(
        owner_id.to_bytes(4, "big") + hub_id.to_bytes(4, "big") + commands
    )


def owner_create_order(plan: schedule.SchedulePlan, registry: crypto.KeyRegistry) -> Order:
    commands = _serialize_commands([(e.device_id, e.wrapped) for e in plan.entries])
    digest = _order_digest(OWNER_ID, HUB_ID, commands)
    signature = crypto.sign_order(digest, registry.owner_keypair[0])
    return Order(
        owner_id=OWNER_ID, hub_id=HUB_ID, commands=commands, digest=digest, signature=signature
    )


def hub_verify_order(order: Order, owner_pk) -> bool:
    recomputed = _order_digest(order.owner_id, order.hub_id, order.commands)
    if recomputed != order.digest:
        return False
    return crypto.verify_order_sig(order.digest, order.signature, owner_pk)


@dataclass
class DeviceState:
    device_id: int
    layout: token.TokenLayout
    ring_key: bytes
    secret_key: bytes  # k_dev, the owner-device static key of command slots
    pending_puzzle: Optional[crypto.Puzzle] = None
    solve_progress: int = 0
    solve_residue: int = 0
    actuated: Optional[tuple] = None  # (command bytes, t_com)
    upload_queue: list = field(default_factory=list)
    toggle_requested: bool = False
    last_token_id: int = 0  # newest token processed; hub token ids only increase
    seal_count: int = 0
    last_counter: int = 0

    @property
    def slot_index(self) -> int:
        return self.device_id - 1


def make_device(
    device_id: int, registry: crypto.KeyRegistry, layout: token.TokenLayout
) -> DeviceState:
    return DeviceState(
        device_id=device_id,
        layout=layout,
        ring_key=registry.ring_key,
        secret_key=registry.device_secret(device_id),
    )


def _slot_payload(slot: bytes):
    """Split a slot into its declared wrapped blob, if the prefix is plausible."""
    declared = int.from_bytes(slot[:2], "big")
    if 0 < declared <= len(slot) - 2:
        return slot[2 : 2 + declared]
    return slot[2:]  # implausible prefix: attempt on the remainder anyway


def _try_take_puzzle(state: DeviceState, t: token.Token, now: int):
    slot = t.slot(state.slot_index)
    try:
        # Every device attempts this unwrap on every fresh token, scheduled
        # or not, so per-node processing does not depend on the schedule.
        blob = crypto.unwrap_for_device(_slot_payload(slot), state.secret_key)
        puzzle = crypto.puzzle_from_bytes(blob)
    except (crypto.AuthenticationError, crypto.FramingError, ValueError):
        return
    if now > puzzle.t_val + DEFAULT_T_DIFF:
        return
    state.pending_puzzle = puzzle
    state.solve_progress = 0
    state.solve_residue = puzzle.a % puzzle.n


def device_on_token(state: DeviceState, frame: bytes, now: int) -> bytes:
    """Process one token arrival; returns the frame to forward.

    The decrypted token is edited in place: the counter, this device's toggle
    bit and its own sub-field, nothing else.  `now` is the receive time,
    against which a fresh puzzle's validity window is checked.
    """
    t = token.token_parse(frame, state.ring_key, state.layout)
    index = state.slot_index
    t.counter -= 1

    if t.token_id > state.last_token_id:
        state.last_token_id = t.token_id
        _try_take_puzzle(state, t, now)

        uploaded = False
        if state.upload_queue and t.toggle(index):
            start, end = state.layout.subfield_bounds(index)
            record = state.upload_queue.pop(0)
            t.xor_subfield(index, record + bytes(end - start - len(record)))
            state.toggle_requested = False
            uploaded = True

        # A re-request in the very round of a grant would be indistinguishable
        # from the grant mark itself, so a device with more queued data waits
        # for the next round to raise its bit again.
        if not uploaded and state.upload_queue and not state.toggle_requested:
            t.set_toggle(index, True)
            state.toggle_requested = True

    state.last_counter = t.counter
    state.seal_count += 1
    nonce = (state.device_id << _NONCE_POSITION_SHIFT) | state.seal_count
    return token.token_build(t, state.ring_key, nonce)


def enqueue_upload(state: DeviceState, record: bytes):
    start, end = state.layout.subfield_bounds(state.slot_index)
    capacity = end - start - 2
    if len(record) > capacity:
        raise ProtocolError(
            f"record of {len(record)} bytes exceeds sub-field capacity {capacity}"
        )
    state.upload_queue.append(len(record).to_bytes(2, "big") + record)


def device_tick(state: DeviceState, budget: int, now: int = 0):
    """Advance the squaring chain by up to `budget` steps; actuate on completion."""
    if state.pending_puzzle is None or budget <= 0:
        return
    puzzle = state.pending_puzzle
    steps = min(budget, puzzle.t_hat - state.solve_progress)
    state.solve_residue = crypto._square_chain(state.solve_residue, puzzle.n, steps)
    state.solve_progress += steps
    if state.solve_progress < puzzle.t_hat:
        return

    try:
        solution = crypto.recover_solution(puzzle, state.solve_residue, state.solve_progress)
        _state, command_device, _seq = schedule.decode_command(solution.command)
    except (crypto.AuthenticationError, crypto.FramingError):
        state.pending_puzzle = None
        return
    state.pending_puzzle = None
    if command_device != state.device_id:
        return

    state.actuated = (solution.command, now)
    report = ExecutionReport(
        device_id=state.device_id,
        t_com=now,
        t_hat=puzzle.t_hat,
        solution=state.solve_residue,
    )
    enqueue_upload(state, report_to_bytes(report))


@dataclass
class HubState:
    layout: token.TokenLayout
    ring_key: bytes
    rng: random.Random
    round: int = 0
    pending_plan: Optional[dict] = None  # device_id -> wrapped slot, until delivered
    random_field_log: dict = field(default_factory=dict)
    pending_grants: set = field(default_factory=set)
    requests: set = field(default_factory=set)
    recovered: list = field(default_factory=list)  # (round, device_id, payload)
    seal_count: int = 0


def make_hub(
    registry: crypto.KeyRegistry,
    layout: token.TokenLayout,
    *,
    rng_seed=0,
) -> HubState:
    return HubState(
        layout=layout,
        ring_key=registry.ring_key,
        rng=random.Random(crypto.derive_seed("hub", rng_seed)),
    )


def hub_accept_order(state: HubState, order: Order, owner_pk) -> bool:
    if not hub_verify_order(order, owner_pk):
        return False
    entries = _parse_commands(order.commands)
    plan = dict(entries)
    if len(plan) != len(entries):
        return False  # a device named twice
    if not all(1 <= device_id <= state.layout.n_devices for device_id in plan):
        return False
    state.pending_plan = plan
    return True


def _fill_slot(state: HubState, payload: Optional[bytes]) -> bytes:
    size = state.layout.slot_size
    if payload is None:
        # Padding slots carry a maximal plausible length prefix so every
        # device's unwrap attempt costs the same as on a real slot.
        return (size - 2).to_bytes(2, "big") + state.rng.randbytes(size - 2)
    if len(payload) > size - 2:
        raise ProtocolError("wrapped puzzle does not fit the configured slot size")
    padding = state.rng.randbytes(size - 2 - len(payload))
    return len(payload).to_bytes(2, "big") + payload + padding


def hub_emit_token(state: HubState) -> bytes:
    """Start a round: deliver a pending plan once, pad everything else, and
    mark last round's requests as granted; returns the frame to send."""
    state.round += 1
    round_no = state.round

    slots = []
    deliver = state.pending_plan or {}
    for device_id in range(1, state.layout.n_devices + 1):
        slots.append(_fill_slot(state, deliver.get(device_id)))
    state.pending_plan = None

    b_r = state.rng.randbytes(state.layout.data_capacity)
    state.random_field_log[round_no] = b_r

    state.pending_grants, state.requests = state.requests, set()

    t = token.Token(
        token_id=round_no,
        round=round_no,
        counter=state.layout.n_devices,
        toggle_bits=bytes(state.layout.toggle_bytes),
        command_field=slots,
        data_field=b_r,
        layout=state.layout,
    )
    for idx in state.pending_grants:
        t.set_toggle(idx, True)

    state.seal_count += 1
    return token.token_build(t, state.ring_key, state.seal_count)


def hub_on_token(state: HubState, frame: bytes):
    """Finish a round: recover granted uploads, collect new requests."""
    t = token.token_parse(frame, state.ring_key, state.layout)

    b_r = state.random_field_log.pop(t.round, None)
    returned_bits = token.toggle_read(t)
    if b_r is not None:
        for idx in sorted(state.pending_grants):
            start, end = state.layout.subfield_bounds(idx)
            recovered = token.data_overwrite(t.subfield(idx), b_r[start:end])
            length = int.from_bytes(recovered[:2], "big")
            if 0 < length <= len(recovered) - 2:
                state.recovered.append((t.round, idx + 1, recovered[2 : 2 + length]))
    # Grant bits were consumed this round; anything else set is a new request.
    state.requests |= returned_bits - state.pending_grants
    state.pending_grants = set()


def collect_reports(state: HubState):
    """Parse every recovered upload that decodes as an execution report."""
    reports = []
    for _round, _device, payload in state.recovered:
        try:
            reports.append(report_from_bytes(payload))
        except crypto.FramingError:
            continue
    return reports


def owner_verify_execution(
    reports, params: crypto.PuzzleParams, plan: schedule.SchedulePlan
) -> bool:
    """Check every report's residue through the owner's trapdoor (CRT over the
    factors in ``params``), then the ordering."""
    by_device = {}
    for report in reports:
        if plan.entry_for(report.device_id) is None:
            return False
        if report.device_id in by_device:
            return False  # ambiguous duplicate
        by_device[report.device_id] = report

    for entry in plan.entries:
        report = by_device.get(entry.device_id)
        if report is None:
            return False
        if report.t_hat != entry.t_hat:
            return False
        if report.solution != crypto.puzzle_fast_eval(entry.puzzle, params):
            return False

    for earlier, later in plan.pairs:
        if earlier not in by_device or later not in by_device:
            return False  # the pair names a device with no plan entry
        if by_device[earlier].t_com > by_device[later].t_com:
            return False
    return True
