"""Truth tables for the hard function families and their building blocks.

Everything here is a total Boolean function stored as a packed truth table.
Inputs are enumerated lexicographically: table bit ``i`` is the value at the
assignment whose j-th variable is bit j of ``i`` (variable 0 least
significant).  In the {0,1} convention bits are values; in the {-1,+1}
convention bit 0 decodes to -1 and bit 1 to +1, for inputs and outputs
alike, so switching conventions is a pure relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomial import _snake_terms, _uv_forms
from .shapes import Convention, GroupShape, ShapeError, Variant


class EvalError(ValueError):
    """Assignment does not fit the function."""


def bit_to_value(bit: int, convention: Convention) -> int:
    if convention is Convention.ZERO_ONE:
        return bit
    return 1 if bit else -1


def value_to_bit(value: int, convention: Convention) -> int:
    if convention is Convention.ZERO_ONE:
        if value not in (0, 1):
            raise EvalError(f"value {value} not in {{0,1}}")
        return value
    if value not in (-1, 1):
        raise EvalError(f"value {value} not in {{-1,1}}")
    return 1 if value == 1 else 0


def assignment_of_index(index: int, n: int, convention: Convention) -> tuple[int, ...]:
    return tuple(bit_to_value((index >> j) & 1, convention) for j in range(n))


def index_of_assignment(values, convention: Convention) -> int:
    idx = 0
    for j, v in enumerate(values):
        idx |= value_to_bit(v, convention) << j
    return idx


@dataclass(frozen=True)
class BoolFun:
    """A Boolean function of n variables as a packed truth table.

    ``table`` holds 2^n bits, bit i being the output at input index i
    (output bit 1 encodes value 1; bit 0 encodes 0 or -1 depending on the
    convention).
    """

    n: int
    convention: Convention
    table: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.n < 0:
            raise EvalError("need n >= 0")
        if self.table < 0 or self.table >> (1 << self.n):
            raise EvalError(f"table does not fit 2^{self.n} bits")

    @property
    def size(self) -> int:
        return 1 << self.n

    def bit(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise EvalError(f"input index {index} out of range")
        return (self.table >> index) & 1

    def value_at(self, index: int) -> int:
        return bit_to_value(self.bit(index), self.convention)

    def eval(self, assignment) -> int:
        assignment = tuple(assignment)
        if len(assignment) != self.n:
            raise EvalError(f"expected {self.n} values, got {len(assignment)}")
        return self.value_at(index_of_assignment(assignment, self.convention))

    def to_json(self) -> dict:
        nbytes = max(1, (self.size + 7) // 8)
        return {
            "n": self.n,
            "convention": self.convention.value,
            "label": self.label,
            "table_hex": self.table.to_bytes(nbytes, "little").hex(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BoolFun":
        table = int.from_bytes(bytes.fromhex(obj["table_hex"]), "little")
        return cls(
            n=int(obj["n"]),
            convention=Convention(obj["convention"]),
            table=table,
            label=obj.get("label", ""),
        )


def from_bits(bits, n: int, convention: Convention, label: str = "") -> BoolFun:
    table = 0
    for i, b in enumerate(bits):
        if b:
            table |= 1 << i
    return BoolFun(n=n, convention=convention, table=table, label=label)


# ---------------------------------------------------------------------------
# Base families
# ---------------------------------------------------------------------------


def make_gt(k: int, msb: str = "last") -> BoolFun:
    """Comparison of two k-bit numbers: 1 iff x >= y.

    ``msb="last"`` reads x_k, y_k as the most significant bits (the usual
    direction); ``msb="first"`` reads x_1, y_1 as most significant.
    """
    if k < 1:
        raise ShapeError("comparator needs k >= 1")
    if msb not in ("last", "first"):
        raise ValueError("msb must be 'last' or 'first'")
    weights = [1 << j for j in range(k)] if msb == "last" else [1 << (k - 1 - j) for j in range(k)]
    n = 2 * k
    table = 0
    for idx in range(1 << n):
        x = sum(weights[j] for j in range(k) if (idx >> j) & 1)
        y = sum(weights[j] for j in range(k) if (idx >> (k + j)) & 1)
        if x >= y:
            table |= 1 << idx
    return BoolFun(n=n, convention=Convention.ZERO_ONE, table=table, label=f"gt{k}-msb-{msb}")


def make_g(k: int, variant: str = "g1") -> BoolFun:
    """The all-equal detector on {-1,1}^k.

    g1 outputs -x_k unless all bits agree, in which case it outputs x_k.
    g0 outputs x_1 unless all bits agree, in which case it outputs -x_1.

    The table is built in array steps, with no loop over the inputs: the
    bits of every input index (bit j set where x_(j+1) = 1), the inputs
    whose bits agree (all set or none), and the output bit of each
    (x_k's bit where they agree and its negation elsewhere for g1; x_1's
    bit negated where they agree and as it is elsewhere for g0), packed.
    """
    if k < 2:
        raise ShapeError("all-equal detector needs k >= 2")
    if variant not in ("g1", "g0"):
        raise ValueError("variant must be 'g1' or 'g0'")
    bits = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)
    equal = bits.all(axis=1) | ~bits.any(axis=1)
    out = bits[:, -1] == equal if variant == "g1" else bits[:, 0] != equal
    table = int.from_bytes(np.packbits(out, bitorder="little").tobytes(), "little")
    return BoolFun(n=k, convention=Convention.PLUS_MINUS, table=table, label=f"{variant}-k{k}")


# ---------------------------------------------------------------------------
# The composite hard functions
# ---------------------------------------------------------------------------


# Inputs per block of the whole-cube scan; bounds its working memory.
_SCAN_BLOCK = 1 << 16


def _scan_block(n: int, factors: dict, terms: list, lo: int, size: int) -> np.ndarray:
    """Output bits of inputs lo .. lo + size - 1: the sign of the first
    nonzero term product, 1 where every product vanishes.

    ``factors`` maps a u tag to (p, q, plus): bit_p - bit_q, or
    bit_p + bit_q - 1 when ``plus``, the sign of that u variable.  A term
    is (u monomial, sign).
    """
    idx = np.arange(lo, lo + size, dtype=np.int64)
    bits = [((idx >> v) & 1).astype(np.int8) for v in range(n)]
    vals = {tag: bits[p] + bits[q] - 1 if plus else bits[p] - bits[q] for tag, (p, q, plus) in factors.items()}
    first = np.zeros(size, dtype=np.int8)  # first nonzero product so far
    for key, sign in terms:
        prod = vals[key[0]] if sign > 0 else -vals[key[0]]
        for tag in key[1:]:
            prod = prod * vals[tag]
        np.copyto(first, prod, where=first == 0)
    return first >= 0


def make_hard(shape: GroupShape) -> BoolFun:
    """The d-group hard function for ``shape``.

    Scans K from the top of the snake order and returns the sign of the
    first nonzero coordinate product; inputs on which every product
    vanishes get value 1.  The scan runs on blocks of inputs at once, as
    int8 arrays of u variable signs (x - y per coordinate; for strong
    shapes the sign of each linear form of a group before the last), each
    product times its tuple's sign.  It reads the witness gate's term list
    (``polynomial._snake_terms``) but never evaluates the gate's
    polynomial, so checking the gate against this table checks the
    domination step: that weighting the r-th term by 2^r lets the top
    nonzero term decide the sign.
    """
    # every u variable's form is [(p, 1), (q, s)], s = 1 or -1
    factors = {tag: (p, q, s > 0) for tag, [(p, _), (q, s)] in _uv_forms(shape).items() if tag[0] == "u"}
    terms = _snake_terms(shape)[::-1]
    size = 1 << shape.n
    packed = [
        np.packbits(
            _scan_block(shape.n, factors, terms, lo, min(_SCAN_BLOCK, size - lo)),
            bitorder="little",
        )
        for lo in range(0, size, _SCAN_BLOCK)
    ]
    table = int.from_bytes(np.concatenate(packed).tobytes(), "little")
    convention = Convention.ZERO_ONE if shape.variant is Variant.WEAK else Convention.PLUS_MINUS
    return BoolFun(shape.n, convention, table, f"hard-{shape.describe()}")
