"""The CMem geometry of the paper's node (Sec. 3.2), defined once.

A CMem is eight 2 KB slices of 64 rows x 256 bit-lines: slice 0 is the
transpose buffer, slices 1-7 compute.  Each slice's CSR enables its
bit-lines in 32-bit lanes, the same 32-bit words ShiftRow.C moves a row
by.  The bit-true slices, the kernel verifier, the pipeline's CMem issue
queue and the capacity model's defaults all read these numbers.
"""

#: Slices per CMem: the transpose buffer plus seven compute slices.
SLICES = 8
#: Word-lines per slice.
ROWS = 64
#: Bit-lines per slice.
COLS = 256
#: Bit-lines per CSR mask lane, and the word ShiftRow.C shifts by.
LANE_WIDTH = 32
#: CSR mask bits per slice, one per lane.
LANES = COLS // LANE_WIDTH
#: The CSR mask that enables every lane.
FULL_CSR_MASK = (1 << LANES) - 1
