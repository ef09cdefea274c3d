"""Every resource bound of the package, each set by what a route costs.

Rule 1, the enumeration bound: the references that visit all 2**n
cases with no memo, interlace.qn_closed_reference and
eulerian.enumerate_states, run for n <= ENUMERATION_MAX_N, checked
before anything of size n is built.

Rule 2, the memo budget: the memo of one call of recursive, bouchet,
reduction (and so martin), cpp, of the closed walk behind qn and q2
(interlace._rank_profile) or of the choice walk behind avdh, isotropic
and tm (gf2.choice_ranks) holds at most MEMO_BUDGET_BYTES, read at call
time, per process under the pool: each is one Memo, a table per level
and one count of the bytes left.  An entry is charged, in O(1), its
key's price (store_bytes) plus its value's digits, value.bit_length()
// 7, and an entry that grows the digits it gains; a hit costs nothing.
The recursions store each entry once (Memo.store) and the walks add
into their tables (Memo.add).  Nothing is refunded: a walk clears each
level once the next is built, and what the level was charged stays
charged.  So the budget bounds time as well as memory: in the
recursions a node that misses stores once and has at most three
children besides its components, and a walk expands each state of a
level once into at most two of the next, so a call's work follows its
charge.  In one process the walks that spent the budget took 3-8 ns
per byte charged, 4.3 s at most: 2-12 microseconds per state on the
8x8 grid and a dense 30-vertex graph, and up to 21 ms per state on the
2048-vertex path, whose keys are megabytes and are charged so.  No
other bound holds the walks, which merge a sparse graph's subsets into
few states: they run the 16x4 grid and a 30-vertex graph with 40
edges.  A dense 24-vertex graph in one process is charged 213 MiB in
all by closed, 235 MiB by q2 closed with loops (260 MiB with every
vertex looped), 206 MiB by avdh and 89 MiB by tm; of 32 graphs at
n = 24, of density 0.1 to 1 with no, some or every vertex looped, none
was charged more than 276 MiB.

Rule 3, the profile bound: the reduction behind q2 carries its rank
profile as one int, whose final value has (n + 1)**3 bits whatever the
graph, and multiplies profiles of that size, which no memo holds; it
runs for (n + 1)**3 <= PROFILE_MAX_BITS, checked before it starts.  On
n/2 disjoint looped edges one call took 0.30-0.42 microseconds per bit
of that profile at n = 300-400 (10-27 s), so one at the bound takes
about 13 s, as long as a recursion that spends the memo budget.

MAX_INPUT_VERTICES bounds the n rows of n bits a graph holds, which its
check (O(n + m) row operations) and every move work on; a vertex set
is a Python int of any width.

max_cut_rank derives from rule 2 the cut-rank at which the recursions'
vertex order (graph.cut_rank_order) stops choosing; it also stops once
it has scored ORDER_CANDIDATES_PER_VERTEX * n candidates, which bounds
its time on a graph whose frontier is every vertex left, as K_n's is.
A run scores at most n(n-1)/2, so no graph of at most 257 vertices
reaches that bound.
"""

from __future__ import annotations

ENUMERATION_MAX_N = 24
MEMO_BUDGET_BYTES = 512 << 20
MAX_INPUT_VERTICES = 2048
PROFILE_MAX_BITS = 1 << 25
ORDER_CANDIDATES_PER_VERTEX = 128

# An int takes a 28-byte header and 4 bytes per 30-bit digit, in 16-byte
# blocks, but one below 2**8 is shared; a tuple 48 bytes and 8 per slot;
# a dict entry, with the table's spare room and the old table it is
# copied from while it grows, about 96.  Calibrated against peak RSS
# (see README.md).
ENTRY_BYTES = 176  # the dict entry, the key tuple's header, the value's


def check_vertex_count(n: int, what: str = "vertex count") -> None:
    if n < 0 or n > MAX_INPUT_VERTICES:
        raise ValueError(f"{what} must be in 0..{MAX_INPUT_VERTICES}, got {n}")


def check_enumeration(n: int) -> None:
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"the enumeration bound of a walk over all 2**n "
                         f"cases is n <= {ENUMERATION_MAX_N}, got n = {n}")


def check_profile_bits(n: int) -> None:
    bits = (n + 1) ** 3
    if bits > PROFILE_MAX_BITS:
        raise ValueError(f"the profile bound of the q2 reduction is (n+1)**3 <= "
                         f"{PROFILE_MAX_BITS} bits, got n = {n} ({bits} bits)")


def store_bytes(key_len: int, key_bits: int) -> int:
    """Rule 2's price of a key: a tuple of key_len ints of at most
    key_bits bits each, or for key_len = 1 one int of key_bits bits."""
    key_int = 0 if key_bits <= 8 else 40 + key_bits // 7
    return ENTRY_BYTES + key_len * (8 + key_int)


def max_cut_rank() -> int:
    """log2(MEMO_BUDGET_BYTES / ENTRY_BYTES), rounded down: the cut-rank
    past which graph.cut_rank_order stops choosing.  Below a prefix of
    cut-rank r the recursions meet on the order of 2**r distinct graphs,
    so past this r no order keeps their memo inside the budget."""
    return (MEMO_BUDGET_BYTES // ENTRY_BYTES).bit_length() - 1


class Memo(list):
    """A charged memo (rule 2): one table per level and one count of the
    bytes left.  A recursion looks up inline, as memo[level].get(key),
    and stores each miss once with store.  A walk that fills its levels
    forward sums into them with add, and may clear a level once the next
    is built; what it was charged stays charged."""

    __slots__ = ("left",)

    def __init__(self, levels: int) -> None:
        super().__init__({} for _ in range(levels))
        self.left = MEMO_BUDGET_BYTES

    def store(self, level: int, key: object, value: int, price: int) -> None:
        """Store value at key, new there, charged as add charges a new
        entry."""
        self.left -= price + value.bit_length() // 7
        if self.left < 0:
            raise ValueError(f"the memo budget of {MEMO_BUDGET_BYTES} bytes per process is spent")
        self[level][key] = value

    def add(self, level: int, key: object, value: int, price: int) -> None:
        """Add value into the entry at key, or store it there: a new entry
        is charged price, the bytes of its key, plus its value's digits,
        and an entry that grows the digits it gains."""
        table = self[level]
        old = table.get(key)
        if old is None:
            nbytes = price + value.bit_length() // 7
        else:
            value += old
            nbytes = value.bit_length() // 7 - old.bit_length() // 7
        if nbytes:
            self.left -= nbytes
            if self.left < 0:
                raise ValueError(f"the memo budget of {MEMO_BUDGET_BYTES} bytes per process is spent")
        table[key] = value
