"""Time-lock puzzle primitives, authenticated token encryption, and order signing.

A puzzle hides a key k behind t_hat inherently sequential modular squarings:
e_k = (k + a^(2^t_hat)) mod n.  A trapdoor collapses the chain; everyone else
must do the squarings one at a time.  The owner holds the factors p and q
(PuzzleParams) and evaluates the chain by the Chinese remainder theorem, in two
half-width exponentiations mod p and mod q.  A holder of phi(n) alone reduces
the exponent mod phi(n) and makes one exponentiation mod n.
The same module supplies the symmetric AE used to seal tokens, the wrap of
command slots under an owner-device static key, Ed25519 signatures for owner
orders, and the key registry that provisions a ring.
"""

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cached_property

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from ringveil._kernel import modpow, square_chain

NONCE_BYTES = 12
TAG_BYTES = 16
MIN_MODULUS_BITS = 16
DEFAULT_MODULUS_BITS = 512
MILLER_RABIN_ROUNDS = 40  # error probability at most 4^-40 < 2^-80

# Indirection points so tests can count invocations without timing anything.
_modpow = modpow
_square_chain = square_chain

_STATIC_INFO = b"ringveil owner-device key v1"
_WRAP_INFO = b"ringveil device wrap v2"
WRAP_SALT_BYTES = 32


class FramingError(ValueError):
    """A byte frame is structurally malformed (bad length, bad prefix)."""


class AuthenticationError(Exception):
    """A ciphertext failed its integrity check or a key did not match."""


@dataclass(frozen=True)
class PuzzleParams:
    """RSA modulus with its factorization, held only by the puzzle creator."""

    p: int
    q: int
    n: int
    phi: int
    bit_length: int

    @classmethod
    def from_primes(cls, p: int, q: int) -> "PuzzleParams":
        if p == q:
            raise ValueError("prime factors must differ")
        n = p * q
        return cls(p=p, q=q, n=n, phi=(p - 1) * (q - 1), bit_length=n.bit_length())

    @cached_property
    def q_inv(self) -> int:
        """q^-1 mod p, the coefficient of the Garner recombination."""
        return pow(self.q, -1, self.p)


@dataclass(frozen=True)
class Puzzle:
    """The public time-lock tuple.  Deliberately excludes p, q, and phi."""

    n: int
    a: int
    t_hat: int
    e_k: int
    e_z: bytes
    t_val: int  # validity deadline, microseconds


@dataclass(frozen=True)
class PuzzleSolution:
    key: int
    command: bytes
    squarings_performed: int


def _is_probable_prime(candidate: int, rng: random.Random) -> bool:
    if candidate < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if candidate % small == 0:
            return candidate == small
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        witness = rng.randrange(2, candidate - 1)
        x = modpow(witness, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _gen_prime(bits: int, rng: random.Random) -> int:
    while True:
        # Top two bits forced so the product of two such primes has exactly
        # the requested total width.
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def gen_params(bit_length: int, rng_seed) -> PuzzleParams:
    """Generate fresh puzzle parameters, deterministic for a fixed seed."""
    if bit_length < MIN_MODULUS_BITS:
        raise ValueError(
            f"modulus of {bit_length} bits is degenerate; need >= {MIN_MODULUS_BITS}"
        )
    rng = random.Random(rng_seed)
    p_bits = (bit_length + 1) // 2
    q_bits = bit_length // 2
    p = _gen_prime(p_bits, rng)
    q = _gen_prime(q_bits, rng)
    while q == p:
        q = _gen_prime(q_bits, rng)
    return PuzzleParams.from_primes(p, q)


def random_base(rng: random.Random, n: int) -> int:
    """A puzzle base drawn from [2, n), redrawn until it is coprime to n."""
    while True:
        a = rng.randrange(2, n)
        if math.gcd(a, n) == 1:
            return a


def _key_to_aes(key: int) -> bytes:
    # The puzzle key is an integer below n; the AE layer wants fixed-width
    # bytes, so hash the canonical encoding down to an AES-256 key.
    return hashlib.sha256(encode_bigint(key)).digest()


def puzzle_create(
    params: PuzzleParams,
    a: int,
    t_hat: int,
    command: bytes,
    key: int,
    t_val: int,
) -> Puzzle:
    """Build a puzzle cheaply through the owner's trapdoor (CRT over p and q)."""
    n = params.n
    if not 1 < a < n:
        raise ValueError("base a must satisfy 1 < a < n")
    if math.gcd(a, n) != 1:
        raise ValueError("base a shares a factor with n")
    if not 0 <= key < n:
        raise ValueError("key must be a non-negative integer below n")
    if t_hat < 0:
        raise ValueError("t_hat must be non-negative")
    e_k = (key + _trapdoor_residue(params, a, t_hat)) % n
    # Fresh key per puzzle, so a fixed nonce is safe here.
    e_z = sym_seal(command, _key_to_aes(key), 0)
    return Puzzle(n=n, a=a, t_hat=t_hat, e_k=e_k, e_z=e_z, t_val=t_val)


def puzzle_solve(puzzle: Puzzle) -> PuzzleSolution:
    """Recover the key the slow way: exactly t_hat sequential squarings.

    There is no phi(n) parameter on purpose; the solver has no trapdoor.
    """
    residue = _square_chain(puzzle.a, puzzle.n, puzzle.t_hat)
    return recover_solution(puzzle, residue, puzzle.t_hat)


def recover_solution(puzzle: Puzzle, residue: int, squarings_performed: int) -> PuzzleSolution:
    """Finish a solve given the squaring-chain residue a^(2^t_hat) mod n."""
    key = (puzzle.e_k - residue) % puzzle.n
    try:
        command = sym_open(puzzle.e_z, _key_to_aes(key))
    except AuthenticationError as exc:
        raise AuthenticationError(
            "decryption failed after exponentiation: wrong key or corrupted puzzle"
        ) from exc
    return PuzzleSolution(key=key, command=command, squarings_performed=squarings_performed)


def _trapdoor_residue(params: PuzzleParams, a: int, t_hat: int) -> int:
    """a^(2^t_hat) mod n from the factors, by the Chinese remainder theorem.

    Mod each prime k the exponent 2^t_hat reduces mod k-1 (Fermat), so the
    secret-exponent calls are half-width and on odd moduli; Garner's formula
    joins the halves.  The reduced exponent is taken in [1, k-1], not
    [0, k-2], so that a multiple of k still maps to 0.
    """
    p, q = params.p, params.q
    x_p = _modpow(a, _modpow(2, t_hat, p - 1) or p - 1, p)
    x_q = _modpow(a, _modpow(2, t_hat, q - 1) or q - 1, q)
    return x_q + q * ((x_p - x_q) * params.q_inv % p)


def puzzle_fast_eval(puzzle: Puzzle, trapdoor) -> int:
    """Creator-side evaluation of a^(2^t_hat) mod n through a trapdoor.

    With the owner's PuzzleParams it runs by CRT: the exponent reduced mod
    p-1 and q-1, then one exponentiation mod p and one mod q.  With a bare
    phi(n) int it runs a^(2^t_hat mod phi) mod n: two exponentiations, the
    second one mod n.
    """
    if isinstance(trapdoor, PuzzleParams):
        return _trapdoor_residue(trapdoor, puzzle.a, puzzle.t_hat)
    reduced = _modpow(2, puzzle.t_hat, trapdoor)
    return _modpow(puzzle.a, reduced, puzzle.n)


def sym_seal(plaintext: bytes, key: bytes, nonce: int) -> bytes:
    """Authenticated encryption; frame layout nonce(12) || ciphertext || tag(16)."""
    nonce_bytes = nonce.to_bytes(NONCE_BYTES, "big")
    return nonce_bytes + AESGCM(key).encrypt(nonce_bytes, plaintext, None)


def sym_open(frame, key: bytes, out=None):
    """Authenticate and decrypt a frame, read through a memoryview.

    Returns the plaintext as bytes, or, when `out` is a writable buffer of
    exactly the plaintext length, decrypts into it and returns it.
    """
    if len(frame) < NONCE_BYTES + TAG_BYTES:
        raise FramingError(f"frame of {len(frame)} bytes is shorter than nonce plus tag")
    view = memoryview(frame)
    nonce_bytes, sealed = view[:NONCE_BYTES], view[NONCE_BYTES:]
    try:
        if out is None:
            return AESGCM(key).decrypt(nonce_bytes, sealed, None)
        AESGCM(key).decrypt_into(nonce_bytes, sealed, None, out)
        return out
    except InvalidTag as exc:
        raise AuthenticationError("authentication tag mismatch") from exc


def hash_digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def derive_seed(*parts) -> int:
    """The integer seed named by ``parts``: SHA-256 of them joined with ":".

    One run seed and a label give each purpose its own reproducible stream.
    """
    return int.from_bytes(hash_digest(":".join(map(str, parts)).encode()), "big")


def sign_order(payload: bytes, secret_key: Ed25519PrivateKey) -> bytes:
    return secret_key.sign(payload)


def verify_order_sig(payload: bytes, signature: bytes, public_key: Ed25519PublicKey) -> bool:
    try:
        public_key.verify(signature, payload)
        return True
    except Exception:
        # Malformed encodings and bad signatures both mean "not verified";
        # verification must never propagate an exception.
        return False


@dataclass(frozen=True)
class KeyRegistry:
    """Pre-provisioned keys for one ring: signing pairs, device X25519
    pairs, the static key k_dev each device shares with the owner's X25519
    pair, and the shared token key k_s."""

    owner_keypair: tuple
    hub_keypair: tuple
    device_keypairs: dict
    ring_key: bytes
    device_keys: dict

    @classmethod
    def provision(cls, device_ids, seed) -> "KeyRegistry":
        """Deterministically derive every keypair for the given devices.

        Each k_dev is HKDF(X25519(device secret, owner public)), the static
        key of NIST SP 800-56A's C(0e, 2s) scheme, computed here once.  The
        owner's pair has its own stream, so no other key moves with it.
        """
        rng = random.Random(seed)

        def signing_pair():
            sk = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
            return (sk, sk.public_key())

        owner = signing_pair()
        hub = signing_pair()
        devices = {}
        for device_id in device_ids:
            if device_id in devices:
                raise ValueError(f"duplicate device id {device_id}")
            sk = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
            devices[device_id] = (sk, sk.public_key())
        owner_seed = None if seed is None else derive_seed(seed, "owner-wrap")
        owner_sk = X25519PrivateKey.from_private_bytes(random.Random(owner_seed).randbytes(32))
        owner_pk = owner_sk.public_key()
        return cls(
            owner_keypair=owner,
            hub_keypair=hub,
            device_keypairs=devices,
            ring_key=rng.randbytes(32),
            device_keys={
                d: HKDF(algorithm=SHA256(), length=32, salt=None, info=_STATIC_INFO).derive(
                    sk.exchange(owner_pk)
                )
                for d, (sk, _pk) in devices.items()
            },
        )

    def device_public(self, device_id) -> X25519PublicKey:
        return self.device_keypairs[device_id][1]

    def device_secret(self, device_id) -> bytes:
        """k_dev, the key that wraps and unwraps this device's command slots."""
        return self.device_keys[device_id]


def _slot_key(device_key: bytes, salt: bytes) -> bytes:
    return HKDF(algorithm=SHA256(), length=32, salt=salt, info=_WRAP_INFO).derive(device_key)


def wrap_for_device(payload: bytes, device_key: bytes, rng: random.Random) -> bytes:
    """Seal a payload for one device under its static key k_dev.

    Layout: salt(32) || payload sealed under HKDF(k_dev, salt).  The salt is
    SHA-256 of one rng draw and the payload: compilation stays reproducible,
    and two payloads never share a slot key.
    """
    salt = hash_digest(rng.randbytes(WRAP_SALT_BYTES) + payload)
    return salt + sym_seal(payload, _slot_key(device_key, salt), 0)


def unwrap_for_device(frame: bytes, device_key: bytes) -> bytes:
    """One HKDF and one AES-GCM open, whether the slot is real or padding."""
    if len(frame) < WRAP_SALT_BYTES + NONCE_BYTES + TAG_BYTES:
        raise FramingError("wrapped frame too short")
    return sym_open(frame[WRAP_SALT_BYTES:], _slot_key(device_key, frame[:WRAP_SALT_BYTES]))


def encode_bigint(value: int) -> bytes:
    """4-byte big-endian length prefix, then magnitude bytes without leading zeros."""
    if value < 0:
        raise ValueError("bigint encoding is unsigned")
    magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return len(magnitude).to_bytes(4, "big") + magnitude


def decode_bigint(buf: bytes, offset: int = 0):
    value, end = decode_blob(buf, offset)
    if len(value) > 0 and value[0] == 0:
        raise FramingError("bigint magnitude has a leading zero byte")
    return int.from_bytes(value, "big"), end


def encode_blob(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def decode_blob(buf: bytes, offset: int = 0):
    if offset + 4 > len(buf):
        raise FramingError("truncated length prefix")
    length = int.from_bytes(buf[offset : offset + 4], "big")
    end = offset + 4 + length
    if end > len(buf):
        raise FramingError("declared length exceeds buffer")
    return buf[offset + 4 : end], end


def puzzle_to_bytes(puzzle: Puzzle) -> bytes:
    return b"".join(
        (
            encode_bigint(puzzle.n),
            encode_bigint(puzzle.a),
            puzzle.t_hat.to_bytes(8, "big"),
            puzzle.t_val.to_bytes(8, "big"),
            encode_bigint(puzzle.e_k),
            encode_blob(puzzle.e_z),
        )
    )


def puzzle_from_bytes(buf: bytes) -> Puzzle:
    n, offset = decode_bigint(buf, 0)
    a, offset = decode_bigint(buf, offset)
    if offset + 16 > len(buf):
        raise FramingError("truncated t_hat/t_val fields")
    t_hat = int.from_bytes(buf[offset : offset + 8], "big")
    t_val = int.from_bytes(buf[offset + 8 : offset + 16], "big")
    offset += 16
    e_k, offset = decode_bigint(buf, offset)
    e_z, offset = decode_blob(buf, offset)
    if offset != len(buf):
        raise FramingError("trailing bytes after puzzle fields")
    return Puzzle(n=n, a=a, t_hat=t_hat, e_k=e_k, e_z=e_z, t_val=t_val)
