"""Read-backs of vectors stored transposed in an SRAM array.

A CMem compute slice holds an ``n``-bit vector in ``n`` consecutive rows,
bit ``i`` of every element on row ``base + i`` (LSB first), one element
per bit-line.  The transpose buffer's vertical byte stores leave the same
layout behind: byte group ``g`` of a vector fills rows ``8g..8g+7``.  The
simulator never reads a vector back as integers; the tests do, to check
what a store or a kernel left in the cells.
"""

import numpy as np


def bits_to_int(bits, *, signed=False):
    """Integers of a transposed ``(n_bits, n_elements)`` bit matrix;
    ``signed`` reads two's complement."""
    bits = np.asarray(bits, dtype=np.int64)
    n_bits = bits.shape[0]
    raw = np.sum(bits * (1 << np.arange(n_bits, dtype=np.int64))[:, None], axis=0)
    if signed:
        return np.where(raw & (1 << (n_bits - 1)), raw - (1 << n_bits), raw)
    return raw


def read_transposed(array, row, n_elements, n_bits, *, signed=False, col_offset=0):
    """The ``n_elements`` values stored transposed in ``array``'s rows
    ``[row, row + n_bits)`` from bit-line ``col_offset`` on."""
    rows = np.stack([array.read_row(r) for r in range(row, row + n_bits)])
    bits = rows[:, col_offset : col_offset + n_elements]
    return bits_to_int(bits, signed=signed)
