"""Finitely generated abelian groups in invariant-factor form, and gradings.

A group is ``Z^rank + Z/d1 + Z/d2 + ...`` with the divisibility chain
``d1 | d2 | ...`` and every ``di >= 2``.  That form is canonical, so
structural equality of values is isomorphism of groups.

>>> FgAbelianGroup.from_divisors(1, [2, 3, 4]).render()
'Z + Z/2 + Z/12'
>>> FgAbelianGroup(0, (2,)).tensor(FgAbelianGroup(0, (3,))).is_zero
True
"""

from __future__ import annotations

from math import gcd, lcm

from ._record import Record


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FgAbelianGroup(Record):
    _fields = __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        prev = 1
        for d in torsion:
            if d < 2:
                raise ValueError(f"invariant factors must be at least 2, got {d}")
            if d % prev:
                raise ValueError(f"invariant factors must form a chain: {torsion}")
            prev = d
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self) -> int:
        return hash((self.rank, self.torsion))

    @classmethod
    def from_divisors(cls, rank: int, divisors) -> "FgAbelianGroup":
        """Canonicalize an arbitrary list of cyclic orders.

        Orders equal to 1 are dropped; each other order d goes into the
        chain c1 | c2 | ... from the bottom, swapping each ci for gcd(ci, d)
        and carrying lcm(ci, d) up (Z/a + Z/b is Z/gcd + Z/lcm), so no order
        is factored.

        >>> FgAbelianGroup.from_divisors(0, [2, 2, 3]).torsion
        (2, 6)
        """
        chain: list[int] = []
        for d in divisors:
            if d < 1:
                raise ValueError(f"cyclic orders must be positive, got {d}")
            if d > 1:
                for i, c in enumerate(chain):
                    chain[i], d = gcd(c, d), lcm(c, d)
                chain.append(d)
                # only c1 can drop to 1: the old c1 divides the rest
                if chain[0] == 1:
                    del chain[0]
        return cls(rank, tuple(chain))

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        return FgAbelianGroup.from_divisors(
            self.rank + other.rank, self.torsion + other.torsion
        )

    def tensor(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Tensor product over Z.

        >>> FgAbelianGroup(2).tensor(FgAbelianGroup(1, (2,))).render()
        'Z^2 + Z/2 + Z/2'
        """
        divisors = []
        divisors += list(self.torsion) * other.rank
        divisors += list(other.torsion) * self.rank
        for a in self.torsion:
            for b in other.torsion:
                g = gcd(a, b)
                if g > 1:
                    divisors.append(g)
        return FgAbelianGroup.from_divisors(self.rank * other.rank, divisors)

    def render(self, explicit_rank: bool = False) -> str:
        """Canonical text form: ``0``, ``Z``, ``Z^r`` and ``Z/d`` summands.

        With ``explicit_rank`` a rank of one is written ``Z^1``; field
        coefficient output uses this so ranks always carry an exponent.
        """
        if self.is_zero:
            return "0"
        parts = []
        if self.rank == 1 and not explicit_rank:
            parts.append("Z")
        elif self.rank >= 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


ZERO_GROUP = FgAbelianGroup(0)
Z_GROUP = FgAbelianGroup(1)


class GradedGroup(Record):
    """A finitely supported family of groups indexed by integer degrees.

    Zero groups are never stored; equality is degreewise isomorphism.
    """

    _fields = __slots__ = ("groups",)

    def __init__(self, groups: tuple[tuple[int, FgAbelianGroup], ...] = ()):
        object.__setattr__(self, "groups", groups)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.groups == other.groups

    def __hash__(self) -> int:
        return hash((self.groups,))

    @classmethod
    def from_dict(cls, mapping) -> "GradedGroup":
        items = tuple(
            (d, g) for d, g in sorted(mapping.items()) if not g.is_zero
        )
        return cls(items)

    def as_dict(self) -> dict[int, FgAbelianGroup]:
        return dict(self.groups)

    def at(self, degree: int) -> FgAbelianGroup:
        for d, g in self.groups:
            if d == degree:
                return g
        return ZERO_GROUP

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.groups)

    @property
    def is_zero(self) -> bool:
        return not self.groups

    def shift(self, k: int) -> "GradedGroup":
        return GradedGroup(tuple((d + k, g) for d, g in self.groups))

    def direct_sum(self, other: "GradedGroup") -> "GradedGroup":
        acc = self.as_dict()
        for d, g in other.groups:
            acc[d] = acc[d].direct_sum(g) if d in acc else g
        return GradedGroup.from_dict(acc)

    def total_rank(self) -> int:
        return sum(g.rank for _, g in self.groups)

    def render_lines(self, explicit_rank: bool = False) -> list[str]:
        return [f"d{d}: {g.render(explicit_rank)}" for d, g in self.groups]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(f"{d}: {g.render()}" for d, g in self.groups)


ZERO_GRADED = GradedGroup()


def _tensor_pair_additive(a: GradedGroup, b: GradedGroup) -> GradedGroup:
    # torsion on the left tensored with a free right factor is still exact,
    # so only the right factor is required to be torsion-free
    acc: dict[int, FgAbelianGroup] = {}
    for d2, g2 in b.groups:
        if g2.torsion:
            raise ValueError(
                "graded tensor factors after the first must be torsion-free "
                "over Z; use field coefficients"
            )
    for d1, g1 in a.groups:
        for d2, g2 in b.groups:
            d = d1 + d2
            t = g1.tensor(g2)
            acc[d] = acc[d].direct_sum(t) if d in acc else t
    return GradedGroup.from_dict(acc)


def tensor_additive(factors) -> GradedGroup:
    """Degreewise tensor with degrees adding; unit is Z at degree 0.

    The first factor may have torsion; later factors must be torsion-free,
    which keeps the degreewise formula exact (no Tor correction terms).
    """
    acc = None
    for f in factors:
        acc = f if acc is None else _tensor_pair_additive(acc, f)
    if acc is None:
        return GradedGroup.from_dict({0: Z_GROUP})
    return acc


def graded_tensor(factors) -> GradedGroup:
    """Tensor of reduced-degree gradings under the join degree rule.

    The total reduced degree of a product of classes is the sum of the
    factor degrees plus (number of factors - 1): two degree -1 classes meet
    in degree -1, three degree 0 classes meet in degree 2.  All factors must
    be torsion-free (use field coefficients otherwise).
    """
    factors = list(factors)
    return tensor_additive(f.shift(1) for f in factors).shift(-1)
