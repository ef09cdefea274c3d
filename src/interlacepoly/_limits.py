"""Every resource bound of the package, each set by what a route costs.

Rule 1, the enumeration bound: a walk over all 2**n cases (closed,
avdh, isotropic, tm and the references) runs for n <= ENUMERATION_MAX_N,
checked before anything of size n is built: a level of the closed or
the choice walk may hold up to 2**v states, and the references visit
every case.

Rule 2, the memo budget: the memo of one call of recursive, bouchet,
reduction (and so martin), cpp, of the closed walk behind qn and q2
(interlace._rank_profile) or of the choice walk behind avdh, isotropic
and tm (gf2.choice_ranks) holds at most MEMO_BUDGET_BYTES, read at call
time, per process under the pool: each is one Memo, a table per level
and one count of the bytes left.  A store is charged an upper bound on
the bytes it adds, in O(1) (in cpp, which adds into the values it
stores, on what they can grow to); a hit costs nothing.  The closed and
the choice walk add into their tables (Memo.add), a new entry charged
its key's price and its value's digits and an entry the digits it
gains, and each level is refunded once the next is built
(Memo.release), so their budget bounds the two levels they hold.  On a
dense 24-vertex graph in one process that live charge peaks at 111 MiB
for closed, 125 MiB for q2 closed with loops (143 MiB with every vertex
looped), 255 MiB for avdh and 138 MiB for tm, where tracemalloc peaks
at 72, 77, 99, 40 and 27 MiB: the choice walk prices its key as a tuple
of its rows, which bounds the one int that packs them.  No bound below
the budget is proven on the closed walk's levels, as one was on the
memo of the depth-first walk it replaced, so a closed call at n <= 24
that walk ran may be refused; of 32 graphs measured at n = 24, of
density 0.1 to 1 with no, some or every vertex looped, none charged
more than 158 MiB.
In the recursions a node that misses stores once and has at most three
children besides its components, and cpp stores a state once per level
and gives it two successors, so the budget bounds time too.  cpp's
cleared levels are not refunded, since its budget is its only bound on
time; the closed and the choice walk's time is bounded by rule 1.

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


def store_bytes(key_len: int, key_bits: int, value_bits: int) -> int:
    """Rule 2's charge for an int of value_bits bits stored under a tuple
    of key_len ints of at most key_bits bits each."""
    key_int = 0 if key_bits <= 8 else 40 + key_bits // 7
    return ENTRY_BYTES + key_len * (8 + key_int) + value_bits // 7


def max_cut_rank() -> int:
    """log2(MEMO_BUDGET_BYTES / ENTRY_BYTES), rounded down: the cut-rank
    past which graph.cut_rank_order stops choosing.  Below a prefix of
    cut-rank r the recursions meet on the order of 2**r distinct graphs,
    so past this r no order keeps their memo inside the budget."""
    return (MEMO_BUDGET_BYTES // ENTRY_BYTES).bit_length() - 1


class Memo(list):
    """A charged memo (rule 2): one table per level, lookups inline as
    memo[level].get(key), and one count of the bytes left.  A walk that
    fills its levels forward sums into them with add and clears each
    level once the next is built with release, which refunds what add
    charged that level."""

    __slots__ = ("left", "held")

    def __init__(self, levels: int) -> None:
        super().__init__({} for _ in range(levels))
        self.left = MEMO_BUDGET_BYTES
        self.held = [0] * levels

    def store(self, level: int, key: object, value: int, nbytes: int) -> None:
        self.left -= nbytes
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
            self.held[level] += nbytes
        table[key] = value

    def release(self, level: int) -> None:
        """Clear a level and refund what add charged it."""
        self[level].clear()
        self.left += self.held[level]
