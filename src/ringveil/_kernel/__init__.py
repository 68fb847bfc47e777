"""Sequential-squaring and modular-exponentiation kernel; the compiled backend
is picked at import when built."""

try:
    from ringveil._kernel._seqsquare import BACKEND, modpow, square_chain
except ImportError:  # extension not compiled for this interpreter
    from ringveil._kernel.pure import BACKEND, modpow, square_chain

__all__ = ["BACKEND", "modpow", "square_chain"]
