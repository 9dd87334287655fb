"""Group shapes and input conventions shared across the package.

A shape fixes, once and for all, how raw truth-table indices map to named
variables.  Weak shapes lay the variables out as (x^1, ..., x^d, y^1, ...,
y^d); strong shapes as (x^1, ..., x^{d-1}, x^d, y^d).  In both cases the
least significant bit of a table index is the first variable of x^1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Convention(enum.Enum):
    """Alphabet of inputs/outputs: {0,1} or {-1,+1}."""

    ZERO_ONE = "zero-one"
    PLUS_MINUS = "plus-minus"


class Variant(enum.Enum):
    WEAK = "weak"
    STRONG = "strong"


class ShapeError(ValueError):
    """Raised for group sizes that cannot be constructed."""


def _as_variant(variant: Variant | str) -> Variant:
    if isinstance(variant, Variant):
        return variant
    return Variant(variant)


@dataclass(frozen=True)
class GroupShape:
    """Sizes (k_1, ..., k_d) of the coordinate groups plus the variant.

    Weak shapes need every k_i >= 1 and use n = 2 * sum(ks) variables.
    Strong shapes need every k_i >= 2 and use n = sum(ks[:-1]) + 2*ks[-1].
    Theorem hypotheses (parity and minimum sizes) are deliberately *not*
    enforced here; they are checked separately so that counterexample
    shapes remain constructible for experiments.
    """

    ks: tuple[int, ...]
    variant: Variant

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        object.__setattr__(self, "variant", _as_variant(self.variant))
        if not self.ks:
            raise ShapeError("need at least one group")
        lo = 1 if self.variant is Variant.WEAK else 2
        if any(k < lo for k in self.ks):
            raise ShapeError(
                f"{self.variant.value} shape needs every k_i >= {lo}, got {self.ks}"
            )

    @property
    def d(self) -> int:
        return len(self.ks)

    @property
    def n(self) -> int:
        if self.variant is Variant.WEAK:
            return 2 * sum(self.ks)
        return sum(self.ks[:-1]) + 2 * self.ks[-1]

    @property
    def size_K(self) -> int:
        out = 1
        for k in self.ks:
            out *= k
        return out

    # --- variable layout -------------------------------------------------

    def x_index(self, i: int, j: int) -> int:
        """Index of x^i_j (both 1-based) in the canonical variable order."""
        if not (1 <= i <= self.d and 1 <= j <= self.ks[i - 1]):
            raise ShapeError(f"x^{i}_{j} out of range for {self.describe()}")
        return sum(self.ks[: i - 1]) + (j - 1)

    def y_index(self, i: int, j: int) -> int:
        """Index of y^i_j.  Strong shapes only carry the y-block for i = d."""
        if self.variant is Variant.WEAK:
            if not (1 <= i <= self.d and 1 <= j <= self.ks[i - 1]):
                raise ShapeError(f"y^{i}_{j} out of range for {self.describe()}")
            return sum(self.ks) + sum(self.ks[: i - 1]) + (j - 1)
        if i != self.d or not (1 <= j <= self.ks[-1]):
            raise ShapeError(f"y^{i}_{j} out of range for {self.describe()}")
        return sum(self.ks) + (j - 1)

    def var_names(self) -> list[str]:
        names = [
            f"x{i}_{j}"
            for i in range(1, self.d + 1)
            for j in range(1, self.ks[i - 1] + 1)
        ]
        if self.variant is Variant.WEAK:
            names += [
                f"y{i}_{j}"
                for i in range(1, self.d + 1)
                for j in range(1, self.ks[i - 1] + 1)
            ]
        else:
            names += [f"y{self.d}_{j}" for j in range(1, self.ks[-1] + 1)]
        return names

    # --- bookkeeping ------------------------------------------------------

    def theorem_violations(self) -> tuple[str, ...]:
        """Hypotheses of the corresponding weight theorem that fail, if any."""
        bad = []
        if self.variant is Variant.WEAK:
            for i, k in enumerate(self.ks[:-1], start=1):
                if k < 2 or k % 2 != 0:
                    bad.append(f"k_{i}={k} must be even and >= 2")
            if self.ks[-1] < 3:
                bad.append(f"k_d={self.ks[-1]} must be >= 3")
        else:
            for i, k in enumerate(self.ks[:-1], start=1):
                if k < 3 or k % 2 != 1:
                    bad.append(f"k_{i}={k} must be odd and >= 3")
            if self.ks[-1] < 3:
                bad.append(f"k_d={self.ks[-1]} must be >= 3")
        return tuple(bad)

    def describe(self) -> str:
        tag = f"{self.variant.value}({','.join(str(k) for k in self.ks)})"
        if self.theorem_violations():
            tag += "!"
        return tag

    def to_json(self) -> dict:
        return {"variant": self.variant.value, "ks": list(self.ks)}


def make_shape(variant: Variant | str, ks: tuple[int, ...] | list[int]) -> GroupShape:
    return GroupShape(tuple(ks), _as_variant(variant))
