"""Constant-size encrypted token frames with toggle signaling and XOR data hiding.

A token's plaintext layout is a pure function of the ring configuration, so
every sealed frame in a run has exactly the same length whether it carries a
real schedule, upload data, or random padding.  That constancy is the whole
point: frame size must never leak what the ring is doing.

The plaintext is one buffer; TokenLayout computes its offsets once:

    offset                   bytes                  field
    0                        8, big-endian          token_id
    8                        4, big-endian          round
    12                       4, big-endian signed   counter
    16                       ceil(n_devices / 8)    toggle bits, device i is
                                                    bit i % 8 of byte i // 8
    slots_at + i*slot_size   slot_size              command slot of device i
    data_at                  data_capacity          data field, one equal
                                                    sub-field per device

The frame is nonce(12) || AES-GCM(plaintext) || tag(16).  token_parse
decrypts a frame straight into a fresh buffer; a device hop edits that buffer
in place (the counter, its own toggle bit, its own sub-field) and token_build
seals it again under the token's own layout, so a hop never copies or
re-checks the other slots.
"""

from dataclasses import dataclass, field

from ringveil import crypto
from ringveil.schedule import COMMAND_BYTES

_HEADER_BYTES = 8 + 4 + 4  # token_id, round, counter
_ID, _ROUND, _COUNTER = slice(0, 8), slice(8, 12), slice(12, 16)


@dataclass(frozen=True)
class TokenLayout:
    """Frame geometry for one ring configuration, with its buffer offsets."""

    n_devices: int
    slot_size: int
    data_capacity: int
    toggle_bytes: int = field(init=False, repr=False, compare=False)
    slots_at: int = field(init=False, repr=False, compare=False)
    data_at: int = field(init=False, repr=False, compare=False)
    plaintext_size: int = field(init=False, repr=False, compare=False)
    frame_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_devices < 1:
            raise ValueError("layout needs at least one device")
        if self.slot_size < 1 or self.data_capacity < 0:
            raise ValueError("slot size must be positive; data capacity non-negative")
        if self.data_capacity % self.n_devices != 0:
            raise ValueError("data capacity must split evenly across the devices")
        toggle_bytes = (self.n_devices + 7) // 8
        slots_at = _HEADER_BYTES + toggle_bytes
        data_at = slots_at + self.n_devices * self.slot_size
        plaintext_size = data_at + self.data_capacity
        offsets = dict(
            toggle_bytes=toggle_bytes,
            slots_at=slots_at,
            data_at=data_at,
            plaintext_size=plaintext_size,
            frame_size=plaintext_size + crypto.NONCE_BYTES + crypto.TAG_BYTES,
        )
        for name, value in offsets.items():
            object.__setattr__(self, name, value)

    def _check_index(self, device_index: int):
        if not 0 <= device_index < self.n_devices:
            raise ValueError(f"device index {device_index} outside 0..{self.n_devices - 1}")

    def subfield_bounds(self, device_index: int):
        """Byte range of one device's share of the data field."""
        self._check_index(device_index)
        width = self.data_capacity // self.n_devices
        return device_index * width, (device_index + 1) * width


def max_wrapped_slot_size(modulus_bits: int, command_bytes: int = COMMAND_BYTES) -> int:
    """Upper bound on a command slot: a device-wrapped serialized puzzle.

    Three big integers below the modulus, two 8-byte counters, and the nested
    AE framing of the command ciphertext, all inside the device wrap.
    """
    nb = (modulus_bits + 7) // 8
    e_z = crypto.NONCE_BYTES + command_bytes + crypto.TAG_BYTES
    puzzle = 3 * (4 + nb) + 8 + 8 + (4 + e_z)
    return crypto.WRAP_SALT_BYTES + crypto.NONCE_BYTES + puzzle + crypto.TAG_BYTES


class Token:
    """One token plaintext, held as the buffer that token_build seals.

    Built from fields, every slot must have the layout's width.  token_parse
    wraps a decrypted buffer instead.  The field attributes read the buffer
    on demand, so in-place edits are always visible.
    """

    __slots__ = ("buf", "layout")
    __hash__ = None  # the buffer is mutable

    def __init__(self, token_id, round, counter, toggle_bits, command_field, data_field, layout):
        if len(toggle_bits) != layout.toggle_bytes:
            raise ValueError("toggle field width does not match layout")
        if len(command_field) != layout.n_devices:
            raise ValueError(
                f"expected {layout.n_devices} command slots, got {len(command_field)}"
            )
        for i, slot in enumerate(command_field):
            if len(slot) != layout.slot_size:
                raise ValueError(f"slot {i} is {len(slot)} bytes, layout wants {layout.slot_size}")
        if len(data_field) != layout.data_capacity:
            raise ValueError("data field does not fill its capacity")
        buf = bytearray(layout.plaintext_size)
        buf[_ID] = token_id.to_bytes(8, "big")
        buf[_ROUND] = round.to_bytes(4, "big")
        buf[_COUNTER] = counter.to_bytes(4, "big", signed=True)
        buf[_HEADER_BYTES : layout.slots_at] = toggle_bits
        buf[layout.slots_at : layout.data_at] = b"".join(command_field)
        buf[layout.data_at :] = data_field
        self.buf = buf
        self.layout = layout

    @classmethod
    def _over(cls, buf: bytearray, layout: TokenLayout) -> "Token":
        t = cls.__new__(cls)
        t.buf = buf
        t.layout = layout
        return t

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return self.layout == other.layout and self.buf == other.buf

    @property
    def token_id(self) -> int:
        return int.from_bytes(self.buf[_ID], "big")

    @property
    def round(self) -> int:
        return int.from_bytes(self.buf[_ROUND], "big")

    @property
    def counter(self) -> int:
        return int.from_bytes(self.buf[_COUNTER], "big", signed=True)

    @counter.setter
    def counter(self, value: int):
        self.buf[_COUNTER] = value.to_bytes(4, "big", signed=True)

    @property
    def toggle_bits(self) -> bytes:
        return bytes(self.buf[_HEADER_BYTES : self.layout.slots_at])

    @property
    def command_field(self) -> tuple:
        return tuple(self.slot(i) for i in range(self.layout.n_devices))

    @property
    def data_field(self) -> bytes:
        return bytes(self.buf[self.layout.data_at :])

    def slot(self, device_index: int) -> bytes:
        layout = self.layout
        layout._check_index(device_index)
        start = layout.slots_at + device_index * layout.slot_size
        return bytes(self.buf[start : start + layout.slot_size])

    def toggle(self, device_index: int) -> bool:
        self.layout._check_index(device_index)
        return bool(self.buf[_HEADER_BYTES + device_index // 8] >> (device_index % 8) & 1)

    def set_toggle(self, device_index: int, value: bool):
        self.layout._check_index(device_index)
        mask = 1 << (device_index % 8)
        if value:
            self.buf[_HEADER_BYTES + device_index // 8] |= mask
        else:
            self.buf[_HEADER_BYTES + device_index // 8] &= ~mask

    def _subfield_span(self, device_index: int) -> slice:
        start, end = self.layout.subfield_bounds(device_index)
        return slice(self.layout.data_at + start, self.layout.data_at + end)

    def subfield(self, device_index: int) -> bytes:
        return bytes(self.buf[self._subfield_span(device_index)])

    def xor_subfield(self, device_index: int, operand: bytes):
        """Conceal operand in one device's sub-field, in place."""
        span = self._subfield_span(device_index)
        self.buf[span] = data_overwrite(self.buf[span], operand)


def token_build(t: Token, ring_key: bytes, nonce: int) -> bytes:
    """Seal the token buffer, laid out by t.layout, under nonce, which must
    never repeat under ring_key."""
    return crypto.sym_seal(t.buf, ring_key, nonce)


def token_parse(frame: bytes, ring_key: bytes, layout: TokenLayout) -> Token:
    """Authenticate a frame and decrypt it into one fresh plaintext buffer."""
    if len(frame) != layout.frame_size:
        raise crypto.FramingError(
            f"frame is {len(frame)} bytes, configuration requires {layout.frame_size}"
        )
    buf = bytearray(layout.plaintext_size)
    crypto.sym_open(frame, ring_key, out=buf)
    return Token._over(buf, layout)


def data_overwrite(random_bits: bytes, generated_bits: bytes) -> bytes:
    if len(random_bits) != len(generated_bits):
        raise ValueError("overwrite operands must be the same length")
    mixed = int.from_bytes(random_bits, "big") ^ int.from_bytes(generated_bits, "big")
    return mixed.to_bytes(len(random_bits), "big")


def toggle_read(t: Token):
    bits = t.buf[_HEADER_BYTES : t.layout.slots_at]
    return {i for i in range(t.layout.n_devices) if bits[i // 8] >> (i % 8) & 1}
