"""Unit tests for the time-lock puzzle and key-management primitives."""

import functools
import math
import random

import pytest
import sympy
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringveil import crypto


def repeated_squaring(a, n, steps):
    """Independent brute-force oracle for a^(2^steps) mod n."""
    v = a % n
    for _ in range(steps):
        v = v * v % n
    return v


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109]

TOY = crypto.PuzzleParams.from_primes(5, 11)


class TestParams:
    def test_from_primes_toy_modulus(self):
        assert TOY.n == 55
        assert TOY.phi == 40
        assert TOY.bit_length == 6

    def test_from_primes_rejects_equal_factors(self):
        with pytest.raises(ValueError):
            crypto.PuzzleParams.from_primes(7, 7)

    def test_gen_params_deterministic(self):
        a = crypto.gen_params(64, 1234)
        b = crypto.gen_params(64, 1234)
        assert (a.p, a.q) == (b.p, b.q)

    def test_gen_params_distinct_seeds_differ(self):
        assert crypto.gen_params(64, 1).n != crypto.gen_params(64, 2).n

    def test_gen_params_factors_are_prime(self):
        params = crypto.gen_params(64, 99)
        assert sympy.isprime(params.p)
        assert sympy.isprime(params.q)
        assert params.p != params.q
        assert params.n == params.p * params.q
        assert params.phi == (params.p - 1) * (params.q - 1)

    def test_gen_params_modulus_width(self):
        for bits in (16, 64, 128):
            assert crypto.gen_params(bits, 7).n.bit_length() == bits

    def test_gen_params_rejects_degenerate_width(self):
        with pytest.raises(ValueError):
            crypto.gen_params(15, 0)


class TestPuzzleCreate:
    def test_known_ciphertext_key(self):
        # 2 -> 4 -> 16 -> 36 under squaring mod 55, so e_k = (17 + 36) mod 55.
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"on", key=17, t_val=0)
        assert puzzle.e_k == 53

    def test_zero_difficulty_uses_base_directly(self):
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=0, command=b"x", key=17, t_val=0)
        assert puzzle.e_k == (17 + 2) % 55

    def test_rejects_base_sharing_factor(self):
        with pytest.raises(ValueError):
            crypto.puzzle_create(TOY, a=5, t_hat=3, command=b"x", key=17, t_val=0)

    def test_rejects_base_out_of_range(self):
        for a in (0, 1, 55, 56):
            with pytest.raises(ValueError):
                crypto.puzzle_create(TOY, a=a, t_hat=3, command=b"x", key=17, t_val=0)

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"x", key=55, t_val=0)


class TestPuzzleSolve:
    def test_known_solution(self):
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"on", key=17, t_val=0)
        solution = crypto.puzzle_solve(puzzle)
        assert solution.key == 17
        assert solution.command == b"on"
        assert solution.squarings_performed == 3

    def test_zero_difficulty_solution(self):
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=0, command=b"z", key=9, t_val=0)
        solution = crypto.puzzle_solve(puzzle)
        assert solution.key == (puzzle.e_k - 2) % 55
        assert solution.squarings_performed == 0

    @settings(max_examples=25)
    @given(command=st.binary(max_size=64), seed=st.integers(0, 2**32))
    def test_roundtrip_recovers_command(self, command, seed):
        rng = random.Random(seed)
        params = crypto.gen_params(32, rng.getrandbits(30))
        a = 2
        while math.gcd(a, params.n) != 1:
            a += 1
        key = rng.randrange(params.n)
        puzzle = crypto.puzzle_create(params, a, rng.randrange(0, 50), command, key, 0)
        assert crypto.puzzle_solve(puzzle).command == command

    def test_solver_performs_exact_squaring_count(self, monkeypatch):
        counted = []

        def counting_chain(value, modulus, steps):
            counted.append(steps)
            return crypto.square_chain(value, modulus, steps)

        monkeypatch.setattr(crypto, "_square_chain", counting_chain)
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=11, command=b"c", key=3, t_val=0)
        crypto.puzzle_solve(puzzle)
        assert counted == [11]

    def test_puzzle_carries_no_trapdoor(self):
        fields = set(crypto.Puzzle.__dataclass_fields__)
        assert fields == {"n", "a", "t_hat", "e_k", "e_z", "t_val"}

    def test_corrupted_ciphertext_detected(self):
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"on", key=17, t_val=0)
        bad = crypto.Puzzle(
            n=puzzle.n, a=puzzle.a, t_hat=puzzle.t_hat,
            e_k=(puzzle.e_k + 1) % puzzle.n, e_z=puzzle.e_z, t_val=puzzle.t_val,
        )
        with pytest.raises(crypto.AuthenticationError):
            crypto.puzzle_solve(bad)


class TestFastEval:
    def test_matches_known_value(self):
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"", key=0, t_val=0)
        assert crypto.puzzle_fast_eval(puzzle, 40) == 36

    def test_exponent_wraps_modulo_totient(self):
        # 2^7 = 128 and 128 mod 40 = 8, landing on the same residue as t_hat=3.
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=7, command=b"", key=0, t_val=0)
        assert crypto.puzzle_fast_eval(puzzle, 40) == 36
        assert repeated_squaring(2, 55, 7) == 36

    def test_zero_difficulty(self):
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=0, command=b"", key=0, t_val=0)
        assert crypto.puzzle_fast_eval(puzzle, 40) == 2

    def test_uses_exactly_two_exponentiations(self, monkeypatch):
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=9, command=b"", key=1, t_val=0)
        monkeypatch.setattr(crypto, "_modpow", counting_pow)
        crypto.puzzle_fast_eval(puzzle, 40)
        assert len(calls) == 2

    @settings(max_examples=60)
    @given(
        pi=st.integers(0, len(SMALL_PRIMES) - 1),
        qi=st.integers(0, len(SMALL_PRIMES) - 1),
        a_raw=st.integers(2, 10_000),
        t_hat=st.integers(0, 12),
    )
    def test_congruence_against_sequential_oracle(self, pi, qi, a_raw, t_hat):
        if pi == qi:
            return
        params = crypto.PuzzleParams.from_primes(SMALL_PRIMES[pi], SMALL_PRIMES[qi])
        a = 2 + a_raw % (params.n - 2)
        if not 1 < a < params.n or math.gcd(a, params.n) != 1:
            return
        puzzle = crypto.puzzle_create(params, a, t_hat, b"", 0, 0)
        assert crypto.puzzle_fast_eval(puzzle, params.phi) == repeated_squaring(
            a, params.n, t_hat
        )



# Primes whose p-1 is a power of two: 2^t_hat mod (p-1) is 0 once t_hat is
# large enough, the one case where the CRT half takes the exponent p-1.
FERMAT_PRIMES = [5, 17, 257]
TRAPDOOR_PRIMES = sorted(set(SMALL_PRIMES) | set(FERMAT_PRIMES))


@functools.cache
def params_2048():
    return crypto.gen_params(2048, 2048)


class TestOwnerTrapdoor:
    """puzzle_fast_eval with the owner's PuzzleParams, evaluated by CRT."""

    def assert_all_paths_agree(self, params, a, t_hat):
        puzzle = crypto.puzzle_create(params, a, t_hat, b"", 0, 0)
        expected = crypto.square_chain(a, params.n, t_hat)
        assert crypto.puzzle_fast_eval(puzzle, params) == expected
        assert crypto.puzzle_fast_eval(puzzle, params.phi) == expected
        assert puzzle.e_k == expected

    @settings(max_examples=150)
    @given(
        p=st.sampled_from(TRAPDOOR_PRIMES),
        q=st.sampled_from(TRAPDOOR_PRIMES),
        a_raw=st.integers(2, 10**6),
        t_hat=st.integers(0, 40),
    )
    @example(p=5, q=17, a_raw=3, t_hat=0)
    @example(p=5, q=17, a_raw=3, t_hat=1)
    @example(p=5, q=17, a_raw=3, t_hat=2)  # e_p = 0
    @example(p=17, q=257, a_raw=10, t_hat=8)  # e_p = e_q = 0
    @example(p=257, q=3, a_raw=2, t_hat=9)  # e_p = e_q = 0
    @example(p=11, q=257, a_raw=7, t_hat=1)
    def test_matches_phi_path_and_squaring_chain(self, p, q, a_raw, t_hat):
        if p == q:
            return
        params = crypto.PuzzleParams.from_primes(p, q)
        a = 2 + a_raw % (params.n - 2)
        if math.gcd(a, params.n) != 1:
            return
        self.assert_all_paths_agree(params, a, t_hat)

    @pytest.mark.parametrize("t_hat", [0, 1, 2, 4096, 70_001])
    def test_2048_bit_params(self, t_hat):
        params = params_2048()
        a = random.Random(t_hat).randrange(2, params.n)
        self.assert_all_paths_agree(params, a, t_hat)

    @pytest.mark.parametrize("p,q", [(5, 17), (17, 257), (3, 11), (2, 7)])
    @pytest.mark.parametrize("t_hat", [0, 1, 2, 8, 9])
    def test_exact_for_a_base_sharing_a_factor(self, p, q, t_hat):
        # puzzle_create refuses such bases; a foreign puzzle may still carry one.
        params = crypto.PuzzleParams.from_primes(p, q)
        for a in (p, 2 * p, q):
            puzzle = crypto.Puzzle(n=params.n, a=a, t_hat=t_hat, e_k=0, e_z=b"", t_val=0)
            assert crypto.puzzle_fast_eval(puzzle, params) == repeated_squaring(
                a, params.n, t_hat
            )


class TestTrapdoorSeam:
    """Every exponentiation of the CRT path goes through crypto._modpow."""

    PARAMS = crypto.gen_params(256, 31)

    def record(self, monkeypatch):
        calls = []

        def counting_modpow(base, exp, modulus):
            calls.append((base, exp, modulus))
            return crypto.modpow(base, exp, modulus)

        monkeypatch.setattr(crypto, "_modpow", counting_modpow)
        return calls

    def assert_crt_calls(self, calls, a, t_hat):
        p, q = self.PARAMS.p, self.PARAMS.q
        e_p = pow(2, t_hat, p - 1) or p - 1
        e_q = pow(2, t_hat, q - 1) or q - 1
        assert calls == [(2, t_hat, p - 1), (a, e_p, p), (2, t_hat, q - 1), (a, e_q, q)]

    @pytest.mark.parametrize("t_hat", [0, 1, 255, 256, 10**6, 2**40])
    def test_fast_eval_makes_four_exponentiations(self, monkeypatch, t_hat):
        puzzle = crypto.puzzle_create(self.PARAMS, 3, t_hat, b"", 0, 0)
        calls = self.record(monkeypatch)
        crypto.puzzle_fast_eval(puzzle, self.PARAMS)
        self.assert_crt_calls(calls, 3, t_hat)

    @pytest.mark.parametrize("t_hat", [0, 1, 255, 256, 10**6, 2**40])
    def test_create_makes_four_exponentiations(self, monkeypatch, t_hat):
        calls = self.record(monkeypatch)
        crypto.puzzle_create(self.PARAMS, 5, t_hat, b"on", 7, 0)
        self.assert_crt_calls(calls, 5, t_hat)


class TestSymmetricSeal:
    KEY = bytes(range(32))

    def test_roundtrip(self):
        frame = crypto.sym_seal(b"hello token", self.KEY, 7)
        assert crypto.sym_open(frame, self.KEY) == b"hello token"

    def test_frame_layout_overhead(self):
        frame = crypto.sym_seal(b"x" * 100, self.KEY, 1)
        assert len(frame) == 100 + crypto.NONCE_BYTES + crypto.TAG_BYTES

    def test_tamper_detected(self):
        frame = bytearray(crypto.sym_seal(b"payload", self.KEY, 2))
        frame[-1] ^= 0x01
        with pytest.raises(crypto.AuthenticationError):
            crypto.sym_open(bytes(frame), self.KEY)

    def test_truncated_frame_is_framing_error(self):
        with pytest.raises(crypto.FramingError):
            crypto.sym_open(b"\x00" * 10, self.KEY)

    def test_distinct_nonces_give_distinct_frames(self):
        a = crypto.sym_seal(b"same", self.KEY, 1)
        b = crypto.sym_seal(b"same", self.KEY, 2)
        assert a != b


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        reg = crypto.KeyRegistry.provision([1], seed=5)
        sk, pk = reg.owner_keypair
        sig = crypto.sign_order(b"order bytes", sk)
        assert crypto.verify_order_sig(b"order bytes", sig, pk)

    def test_wrong_public_key_rejected(self):
        reg = crypto.KeyRegistry.provision([1], seed=5)
        sig = crypto.sign_order(b"m", reg.owner_keypair[0])
        assert not crypto.verify_order_sig(b"m", sig, reg.hub_keypair[1])

    def test_mutated_payload_rejected(self):
        reg = crypto.KeyRegistry.provision([1], seed=5)
        sig = crypto.sign_order(b"m0", reg.owner_keypair[0])
        assert not crypto.verify_order_sig(b"m1", sig, reg.owner_keypair[1])

    def test_malformed_signature_returns_false(self):
        reg = crypto.KeyRegistry.provision([1], seed=5)
        assert not crypto.verify_order_sig(b"m", b"\x00garbage", reg.owner_keypair[1])


class TestHashDigest:
    def test_deterministic(self):
        assert crypto.hash_digest(b"abc") == crypto.hash_digest(b"abc")

    def test_empty_input_defined(self):
        assert len(crypto.hash_digest(b"")) == 32

    def test_sensitivity(self):
        assert crypto.hash_digest(b"abc") != crypto.hash_digest(b"abd")


class TestKeyRegistry:
    def test_provision_deterministic(self):
        ids = [3, 1, 4]
        a = crypto.KeyRegistry.provision(ids, seed=42)
        b = crypto.KeyRegistry.provision(ids, seed=42)
        assert a.ring_key == b.ring_key
        sig_a = crypto.sign_order(b"x", a.owner_keypair[0])
        assert crypto.verify_order_sig(b"x", sig_a, b.owner_keypair[1])

    def test_every_device_has_a_keypair(self):
        reg = crypto.KeyRegistry.provision([10, 20, 30], seed=0)
        assert set(reg.device_keypairs) == {10, 20, 30}

    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError):
            crypto.KeyRegistry.provision([1, 1], seed=0)

    def test_provisioned_keys_are_pinned(self):
        # Adding a key to the registry must not move any key already in it.
        reg = crypto.KeyRegistry.provision([1, 2], seed=42)
        raw = lambda key: key.public_bytes(Encoding.Raw, PublicFormat.Raw).hex()
        assert raw(reg.owner_keypair[1]) == (
            "0b3913fae22de409b1de5726ffe30542199dc65b5181124be16f8253defde4b3"
        )
        assert raw(reg.hub_keypair[1]) == (
            "a2af23b783af2243c7e15bff340d65f668abc9dfd4a4e5509976072c375579a4"
        )
        assert raw(reg.device_public(1)) == (
            "e663ca47f7505f4969a60ecf0928d8e962a824d763b75adf052848ad51112951"
        )
        assert raw(reg.device_public(2)) == (
            "c05c55778c572f3564d5dd014bf1c47d39d1a66974881a066dbf2923232bb85b"
        )
        assert reg.ring_key.hex() == (
            "e0cb6e382a5dff72ac1dda96908137478bd536cf4b778ade1fe7a9010b3341c2"
        )


class TestDeviceWrap:
    def test_roundtrip(self):
        reg = crypto.KeyRegistry.provision([1, 2], seed=9)
        rng = random.Random(0)
        frame = crypto.wrap_for_device(b"secret puzzle", reg.device_secret(1), rng)
        assert crypto.unwrap_for_device(frame, reg.device_secret(1)) == b"secret puzzle"

    def test_wrong_device_cannot_unwrap(self):
        reg = crypto.KeyRegistry.provision([1, 2], seed=9)
        frame = crypto.wrap_for_device(b"p", reg.device_secret(1), random.Random(0))
        with pytest.raises(crypto.AuthenticationError):
            crypto.unwrap_for_device(frame, reg.device_secret(2))

    def test_each_attempt_is_one_key_derivation_and_one_open(self, monkeypatch):
        # A device's work on its slot must not tell a real slot from padding.
        reg = crypto.KeyRegistry.provision([1], seed=9)
        real = crypto.wrap_for_device(b"p" * 200, reg.device_secret(1), random.Random(0))
        padding = random.Random(1).randbytes(len(real))
        counts = {"derive": 0, "open": 0, "exchange": 0}

        def counting(name, original):
            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return call

        key_type = type(reg.device_keypairs[1][0])
        monkeypatch.setattr(crypto, "HKDF", counting("derive", crypto.HKDF))
        monkeypatch.setattr(crypto, "sym_open", counting("open", crypto.sym_open))
        monkeypatch.setattr(key_type, "exchange", counting("exchange", key_type.exchange))
        assert crypto.unwrap_for_device(real, reg.device_secret(1)) == b"p" * 200
        assert counts == {"derive": 1, "open": 1, "exchange": 0}
        with pytest.raises(crypto.AuthenticationError):
            crypto.unwrap_for_device(padding, reg.device_secret(1))
        assert counts == {"derive": 2, "open": 2, "exchange": 0}

    def test_truncated_wrap_is_framing_error(self):
        reg = crypto.KeyRegistry.provision([1], seed=9)
        with pytest.raises(crypto.FramingError):
            crypto.unwrap_for_device(b"\x00" * 20, reg.device_secret(1))


class TestWireFormat:
    def test_puzzle_roundtrip(self):
        puzzle = crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"on", key=17, t_val=123456)
        assert crypto.puzzle_from_bytes(crypto.puzzle_to_bytes(puzzle)) == puzzle

    def test_bigint_zero(self):
        assert crypto.encode_bigint(0) == b"\x00\x00\x00\x00"
        assert crypto.decode_bigint(b"\x00\x00\x00\x00") == (0, 4)

    def test_bigint_rejects_leading_zero(self):
        with pytest.raises(crypto.FramingError):
            crypto.decode_bigint(b"\x00\x00\x00\x02\x00\x07")

    def test_truncated_puzzle_rejected(self):
        buf = crypto.puzzle_to_bytes(
            crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"on", key=17, t_val=0)
        )
        with pytest.raises(crypto.FramingError):
            crypto.puzzle_from_bytes(buf[:-1])

    def test_trailing_bytes_rejected(self):
        buf = crypto.puzzle_to_bytes(
            crypto.puzzle_create(TOY, a=2, t_hat=3, command=b"on", key=17, t_val=0)
        )
        with pytest.raises(crypto.FramingError):
            crypto.puzzle_from_bytes(buf + b"\x00")

    @given(value=st.integers(min_value=0, max_value=2**256))
    @settings(max_examples=30)
    def test_bigint_roundtrip(self, value):
        decoded, end = crypto.decode_bigint(crypto.encode_bigint(value))
        assert decoded == value
        assert end == len(crypto.encode_bigint(value))
