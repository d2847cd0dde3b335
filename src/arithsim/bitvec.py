"""Fixed-width bit vectors and the big-integer reference arithmetic.

Bits are indexed LSB-first: index 0 carries weight 2**0. Display order is
MSB-first, matching the written form of binary numbers. Lowercase unprefixed
hex is the interchange encoding. Everything here is immutable, so values can
be shared freely between threads.

Lane kernels run K circuits side by side in one word (SWAR; Lamport, CACM
1975), every kernel at the one stride `lane_stride`. Values enter and leave
a lane word as bytes, through `pack_lanes`, `unpack_lanes` and
`unpack_narrow_lanes`. Every kernel takes its operands through one check,
`check_operands`, and every one-pair call its widths through
`operand_width`.

Lane masks are nonnegative, and no kernel builds a mask's complement: x & ~m
is written x ^ (x & m), and a range check reads x & m != x (Warren, Hacker's
Delight, section 2-1). Both are exact for every int, but on a word of
thousands of bits any bitwise op with a negative operand copies it through
two's complement, several times the cost of the op itself.

For the same reason a kernel uses a mask it already holds instead of
shifting one: on a lane word a shift or an add costs several ANDs or XORs
(on 45-65 kbit words, 2.6-3.8 us against 0.48-0.65 us; timeit, best of 9,
a 2-core Xeon on Python 3.11), and a popcount more still (about 4 us on a
65,536-bit word, the same host). Each kernel's docstring says which masks
it holds, and where it counts.

A kernel call also makes only one cached layout lookup, since a lookup
costs about two word ops on a one-pair word (0.10-0.14 us against 0.05 us
for a 128-bit AND or add; timeit, best of 7, the same host). `cascade_layout`,
`wire_masks`, `double_width_masks` or `blocked_shape` hands the kernel
every mask it needs, the operands' fit included, and the kernel passes them
down to its ticks and checks. A layout holds the very ints that the mask
functions below cache, and only a few masks of its own.

Every record is a `Record` whose own `__init__` sets each field with `_set`,
then calls its `__post_init__` check if it has one. A `@dataclass` costs
0.6-0.7 ms per import to generate and compile two fields' methods, a plain
class 8 us (timeit, best of 7, the same host), so `flash.ResolveResult` is
the one dataclass left.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache
from itertools import repeat

_HEX = re.compile("[0-9a-fA-F]+")
# `struct` formats of little-endian unsigned words, by size in bytes
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_set = object.__setattr__  # how a record's own __init__ sets its fields


class ModelIntegrityError(RuntimeError):
    """A circuit-model invariant that should be unreachable was violated."""


class Record:
    """An immutable record. Its fields, `__match_args__`, are its `__slots__`
    in `__init__`'s order less those named with a leading underscore, which
    hold derived values; equality, hash, repr, copy and pickle go by them."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({text})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # rebuilt through __init__, checks included
        return type(self), self._values()


class BitVector(Record):
    """A nonnegative integer pinned to an explicit bit width."""

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        _set(self, "width", width)
        _set(self, "value", value)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be a positive integer, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {shown(self.value)} does not fit in {self.width} bits")

    @classmethod
    def from_hex(cls, text: str, width: int) -> BitVector:
        """Parse unprefixed hex text (digits 0-9, a-f, A-F only) into a
        width-checked vector."""
        if not isinstance(text, str) or not _HEX.fullmatch(text):
            raise ValueError(f"malformed hex string: {text!r}")
        return cls(width, int(text, 16))

    def bit(self, index: int) -> int:
        if not 0 <= index < self.width:
            raise ValueError(f"bit index {index} out of range for width {self.width}")
        return (self.value >> index) & 1

    def to_hex(self) -> str:
        """Lowercase hex, zero-padded to the width's nibble count, no prefix."""
        return format(self.value, "0{}x".format((self.width + 3) // 4))

    def to_binary(self) -> str:
        """MSB-first digit string, the display convention."""
        return format(self.value, "0{}b".format(self.width))

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return self.to_binary()


def oracle_add(a: int, b: int) -> int:
    """Reference addition on arbitrary-precision integers."""
    if a < 0 or b < 0:
        raise ValueError("oracle operands must be nonnegative")
    return a + b


def oracle_mul(a: int, b: int) -> int:
    """Reference multiplication on arbitrary-precision integers."""
    if a < 0 or b < 0:
        raise ValueError("oracle operands must be nonnegative")
    return a * b


def increment_mask(value: int, step: int) -> int:
    """The one-tick increment: the bits to complement in a nonnegative word
    to add `step` to it, `step` holding one bit 2**i in each lane it adds to.

    In such a lane the trailing-ones detector finds the lowest 0 bit j >= i,
    and complementing bits i..j adds 2**i, so value ^ increment_mask(value,
    step) == value + step wherever no lane's run passes its top (Warren,
    Hacker's Delight, section 2-1).
    """
    if value < 0:
        raise ValueError("value must be nonnegative")
    return value ^ (value + step)


@lru_cache
def block_bottoms(width: int, w: int) -> int:
    """The bottom bit of every w-bit block of a width-bit word; cached, since
    the cascade asks for the same few masks on every level of every add."""
    return ((1 << width) - 1) // ((1 << w) - 1)


def lane_stride(width: int) -> int:
    """The lane stride of every kernel on `width`-bit values: the width in
    whole bytes plus a padding byte (136 bits at 128), which holds the carry
    out; the double-width adder's padded half blocks plus carry, at most
    2N + 3 bits; `majority << 1`; and every quantizer digit, at most bit
    2N + 5 for N <= 64."""
    return (width + 7) // 8 * 8 + 8


@lru_cache
def lane_mask(bits: int, stride: int, lanes: int = 1) -> int:
    """The low `bits` bits of every lane of a word of `lanes` `stride`-bit
    lanes, none for `bits` < 1; cached, since every tick of a batch asks for
    the same few."""
    return block_bottoms(stride * lanes, stride) * ((1 << max(bits, 0)) - 1)


def shown(value) -> str:
    """A value as a range message shows it: its repr, or for an int past
    Python's int-to-str digit limit, its bit length."""
    try:
        return repr(value)
    except ValueError:
        return f"of {value.bit_length()} bits"


def misfit(word: int, fit: int, stride: int, lanes: int) -> str:
    """A word that breaks its lane mask `fit`, as a range message shows it:
    the whole word on one lane, else the first lane with a bit outside `fit`
    (a wide word passes Python's int-to-str digit limit), by bits and index."""
    if lanes == 1:
        return shown(word)
    out = word ^ (word & fit)
    lane = ((out & -out).bit_length() - 1) // stride
    return f"{word >> lane * stride & ((1 << stride) - 1)} in lane {lane}"


def operand_width(a: BitVector, b: BitVector) -> int:
    """The width two operands share; ValueError if they differ."""
    if a.width != b.width:
        raise ValueError(f"operand widths differ: {a.width} vs {b.width}")
    return a.width


def check_operands(a: int, b: int, bits: int, fit: int, stride: int, lanes: int = 1) -> None:
    """Every lane kernel's input contract: `bits` >= 1, and each operand
    holds `bits`-bit values in `lanes` lanes at `stride`, with no bit in a
    lane's padding, above the top lane or below zero. `fit` is those lanes'
    mask, `lane_mask(bits, stride, lanes)`, from the kernel's layout. A
    failure raises ValueError naming the first operand and lane that break
    it."""
    if bits < 1:
        raise ValueError(f"width must be positive, got {bits}")
    either = a | b
    if either & fit != either:
        value = a if a & fit != a else b
        raise ValueError(f"value {misfit(value, fit, stride, lanes)} does not fit in {bits} bits")


def pack_lanes(values, stride: int) -> int:
    """One word holding `values` side by side, the first in the lowest lane;
    `stride` is a whole number of bytes."""
    size = stride // 8
    data = b"".join(map(int.to_bytes, values, repeat(size), repeat("little")))
    return int.from_bytes(data, "little")


def unpack_lanes(word: int, stride: int, count: int) -> list[int]:
    """The `count` lane values of a `pack_lanes` word, the lowest lane first."""
    size = stride // 8
    data = word.to_bytes(size * count, "little")
    lanes = [data[i : i + size] for i in range(0, len(data), size)]
    return list(map(int.from_bytes, lanes, repeat("little")))


@lru_cache(maxsize=32)
def _narrow_lanes_struct(stride: int, count: int, bits: int) -> struct.Struct | None:
    """The `struct` that reads each of `count` lanes at `stride` as its low
    word of the smallest size that holds `bits` and skips the rest of the
    lane, or None where that word is wider than the lane."""
    size = stride // 8
    item = 1 << ((min(bits, stride) - 1) // 8).bit_length()
    if item > size:
        return None
    return struct.Struct("<" + f"{_WORD_FORMATS[item]}{size - item}x" * count)


def unpack_narrow_lanes(word: int, stride: int, count: int, bits: int) -> list[int]:
    """`unpack_lanes` for lane values of at most `bits` <= 64 bits, in one
    pass at any whole-byte stride: one cached `struct` unpack reads each
    lane's low little-endian word of the smallest size that holds `bits`.
    A lane narrower than that word, as 24 bits at a 3-byte stride, takes
    `unpack_lanes`."""
    layout = _narrow_lanes_struct(stride, count, bits)
    if layout is None:
        return unpack_lanes(word, stride, count)
    return list(layout.unpack(word.to_bytes(layout.size, "little")))


@lru_cache
def block_tops(width: int, w: int) -> int:
    """The top bit of every w-bit block of a width-bit word; cached, since
    each blockwise add asks for it."""
    return block_bottoms(width, w) << (w - 1)


def block_carries(carry_word: int, width: int, w: int) -> tuple[int, ...]:
    """The carries of a width-bit word's w-bit blocks, lowest block first,
    from a carry word holding each just above its block's top, its weight."""
    return tuple((carry_word >> bit) & 1 for bit in range(w, width + 1, w))


def blockwise_add(x: int, y: int, top: int) -> tuple[int, int]:
    """Add x and y inside every block that ends at a bit of `top`, carries
    cut at the block edges (Warren, Hacker's Delight, section 2-18): returns
    the sums and a carry word holding each block's carry just above its top,
    its weight."""
    xt, yt = x & top, y & top
    t = (x ^ xt) + (y ^ yt)  # below the block tops, so no block carries out
    ht = xt ^ yt
    sums = t ^ ht
    carries = ((xt & yt) | (ht & t)) << 1
    return sums, carries
