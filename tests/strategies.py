"""Hypothesis strategies shared by the file-format tests."""

from hypothesis import strategies as st


def damaged_bytes(blob: bytes):
    """Strategy: `blob` truncated to a shorter length, or with one bit flipped."""
    truncated = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])

    def flip(pos_bit):
        pos, bit = pos_bit
        return blob[:pos] + bytes([blob[pos] ^ (1 << bit)]) + blob[pos + 1 :]

    flipped = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)).map(flip)
    return st.one_of(truncated, flipped)
