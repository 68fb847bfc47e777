"""Pure-Python kernel: the fallback when the compiled core is absent, and the
reference every compiled backend is tested against."""

BACKEND = "pure"

modpow = pow  # trapdoor exponentiation: the built-in is the reference


def square_chain(value: int, modulus: int, steps: int) -> int:
    """Advance ``value`` by exactly ``steps`` sequential squarings mod ``modulus``.

    Returns value**(2**steps) mod modulus, computed one modular squaring at a
    time on purpose: no exponent shortcut exists on this path.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if modulus <= 1:
        raise ValueError("modulus must be greater than 1")
    v = value % modulus
    for _ in range(steps):
        v = v * v % modulus
    return v
