"""Finitely generated abelian groups and graded tensor bookkeeping."""

import copy
import doctest
import pickle
import random
import time

import pytest

import polyprod.abelian
from polyprod import FgAbelianGroup, GradedGroup, graded_tensor, tensor_additive
from polyprod.abelian import Z_GROUP, ZERO_GRADED, ZERO_GROUP
from polyprod.homology import smith_normal_form


class TestFgAbelianGroup:
    def test_chain_validation(self):
        FgAbelianGroup(0, (2, 4))
        FgAbelianGroup(3, (2, 2, 6))
        with pytest.raises(ValueError, match="chain"):
            FgAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError, match="chain"):
            FgAbelianGroup(0, (2, 3))
        with pytest.raises(ValueError, match="at least 2"):
            FgAbelianGroup(0, (1,))
        with pytest.raises(ValueError, match="nonnegative"):
            FgAbelianGroup(-1)

    @pytest.mark.parametrize("rank, torsion", [
        (1.5, ()), (1.0, ()), (True, ()), ("1", ()),
        (0, [2]), (0, (2.0,)), (0, (True,)), (0, (2, 4.0)),
    ])
    def test_non_integer_input_is_refused(self, rank, torsion):
        with pytest.raises(ValueError, match="integer|tuple"):
            FgAbelianGroup(rank, torsion)

    @pytest.mark.parametrize("rank, divisors", [
        (0, [2.0]), (0, [True]), (0, ["2"]), (1.5, [2]), (False, []),
    ])
    def test_non_integer_divisors_are_refused(self, rank, divisors):
        with pytest.raises(ValueError, match="integer"):
            FgAbelianGroup.from_divisors(rank, divisors)

    def test_from_divisors_canonicalizes(self):
        assert FgAbelianGroup.from_divisors(0, [2, 2, 3]).torsion == (2, 6)
        assert FgAbelianGroup.from_divisors(0, [6, 4]).torsion == (2, 12)
        assert FgAbelianGroup.from_divisors(1, [1, 1]).torsion == ()
        assert FgAbelianGroup.from_divisors(0, [8, 2, 2]).torsion == (2, 2, 8)
        with pytest.raises(ValueError):
            FgAbelianGroup.from_divisors(0, [0])

    def test_from_divisors_matches_the_prime_by_prime_merge(self):
        # the chain from_divisors built by factoring every order, sorting
        # each prime's exponents and multiplying them back level by level
        def merged(divisors):
            exps = {}
            for d in divisors:
                for p, e in polyprod.abelian._factorint(d).items():
                    exps.setdefault(p, []).append(e)
            depth = max((len(v) for v in exps.values()), default=0)
            chain = []
            for i in range(depth):
                f = 1
                for p, es in exps.items():
                    es_sorted = sorted(es, reverse=True)
                    if i < len(es_sorted):
                        f *= p ** es_sorted[i]
                chain.append(f)
            return tuple(reversed(chain))

        rng = random.Random(4471)
        orders = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 36, 49, 60, 97, 210]
        for _ in range(3000):
            divisors = [rng.choice(orders) for _ in range(rng.randint(0, 8))]
            assert FgAbelianGroup.from_divisors(0, divisors).torsion == merged(divisors)

    def test_from_divisors_does_not_factor_a_large_prime(self):
        # trial division up to its square root would take ~10^9 steps
        p = 2**61 - 1
        start = time.monotonic()
        assert FgAbelianGroup.from_divisors(0, [p, p, 2]).torsion == (p, 2 * p)
        assert smith_normal_form([[p]]) == [p]
        assert time.monotonic() - start < 1

    def test_direct_sum_merges_chains(self):
        a = FgAbelianGroup(1, (2,))
        b = FgAbelianGroup(2, (6,))
        assert a.direct_sum(b) == FgAbelianGroup(3, (2, 6))

    def test_tensor(self):
        # Z^2 (x) (Z + Z/2) has rank 2 and two Z/2 summands
        t = FgAbelianGroup(2).tensor(FgAbelianGroup(1, (2,)))
        assert t == FgAbelianGroup(2, (2, 2))
        # torsion meets torsion through the gcd
        t2 = FgAbelianGroup(0, (4,)).tensor(FgAbelianGroup(0, (6,)))
        assert t2 == FgAbelianGroup(0, (2,))
        t3 = FgAbelianGroup(0, (2,)).tensor(FgAbelianGroup(0, (3,)))
        assert t3.is_zero

    def test_render(self):
        assert FgAbelianGroup(0).render() == "0"
        assert FgAbelianGroup(1).render() == "Z"
        assert FgAbelianGroup(3).render() == "Z^3"
        assert FgAbelianGroup(0, (2,)).render() == "Z/2"
        assert FgAbelianGroup(2, (2, 4)).render() == "Z^2 + Z/2 + Z/4"
        assert str(FgAbelianGroup(1, (3,))) == "Z + Z/3"

    def test_render_with_explicit_rank(self):
        # field coefficient output writes every rank with an exponent
        assert FgAbelianGroup(1).render(explicit_rank=True) == "Z^1"
        assert FgAbelianGroup(2).render(explicit_rank=True) == "Z^2"
        assert FgAbelianGroup(0).render(explicit_rank=True) == "0"
        g = GradedGroup.from_dict({1: FgAbelianGroup(1)})
        assert g.render_lines(explicit_rank=True) == ["d1: Z^1"]


class TestGradedGroup:
    def test_from_dict_drops_zero_groups(self):
        g = GradedGroup.from_dict({0: Z_GROUP, 1: ZERO_GROUP})
        assert g.degrees() == (0,)
        assert g.at(1) == ZERO_GROUP
        assert g.at(0) == Z_GROUP

    def test_shift_and_sum(self):
        g = GradedGroup.from_dict({0: Z_GROUP, 2: FgAbelianGroup(2)})
        assert g.shift(3).degrees() == (3, 5)
        s = g.direct_sum(GradedGroup.from_dict({2: Z_GROUP}))
        assert s.at(2) == FgAbelianGroup(3)
        assert s.total_rank() == 4

    def test_stored_degrees_are_no_field(self):
        # the degree tuple sits in a slot of its own: a twin whose tuple is
        # overwritten still equals the group, hashes with it and prints as it
        g = GradedGroup.from_dict({-1: Z_GROUP, 2: FgAbelianGroup(0, (2,))})
        twin = GradedGroup(g.groups)
        object.__setattr__(twin, "_degrees", (7,))
        assert GradedGroup._fields == ("groups",)
        assert g == twin and hash(g) == hash(twin) == hash((g.groups,))
        assert repr(g) == repr(twin) == f"GradedGroup(groups={g.groups!r})"
        assert g.__reduce__() == (GradedGroup, (g.groups,))
        with pytest.raises(AttributeError):
            g._degrees = ()
        for clone in (pickle.loads(pickle.dumps(twin)), copy.copy(twin), copy.deepcopy(twin)):
            assert type(clone) is GradedGroup and clone == g
            assert clone.degrees() == g.degrees() == (-1, 2)

    def test_degrees_are_the_stored_groups_degrees(self):
        g = GradedGroup.from_dict({0: Z_GROUP, 2: FgAbelianGroup(1, (3,)), 5: ZERO_GROUP})
        groups = [g, g.shift(-3), g.direct_sum(GradedGroup.from_dict({1: Z_GROUP})),
                  GradedGroup(), ZERO_GRADED, GradedGroup.from_dict({})]
        for h in groups:
            assert h.degrees() == tuple(d for d, _ in h.groups)
            assert h.degrees() is h.degrees()
        assert [h.degrees() for h in groups] == [(0, 2), (-3, -1), (0, 1, 2), (), (), ()]

    def test_render(self):
        g = GradedGroup.from_dict({-1: Z_GROUP, 1: FgAbelianGroup(0, (2,))})
        assert g.render_lines() == ["d-1: Z", "d1: Z/2"]
        assert str(g) == "-1: Z, 1: Z/2"
        assert str(ZERO_GRADED) == "0"
        assert ZERO_GRADED.is_zero


class TestTensorAdditive:
    def test_unit_and_singleton(self):
        assert tensor_additive([]) == GradedGroup.from_dict({0: Z_GROUP})
        g = GradedGroup.from_dict({1: FgAbelianGroup(2)})
        assert tensor_additive([g]) == g

    def test_degrees_add(self):
        a = GradedGroup.from_dict({0: Z_GROUP, 1: Z_GROUP})
        b = GradedGroup.from_dict({2: FgAbelianGroup(3)})
        t = tensor_additive([a, b])
        assert t == GradedGroup.from_dict({2: FgAbelianGroup(3), 3: FgAbelianGroup(3)})

    def test_left_torsion_is_allowed(self):
        torsion = GradedGroup.from_dict({1: FgAbelianGroup(0, (2,))})
        free = GradedGroup.from_dict({2: FgAbelianGroup(2)})
        t = tensor_additive([torsion, free])
        assert t == GradedGroup.from_dict({3: FgAbelianGroup(0, (2, 2))})

    def test_right_torsion_is_rejected(self):
        torsion = GradedGroup.from_dict({1: FgAbelianGroup(0, (2,))})
        free = GradedGroup.from_dict({2: FgAbelianGroup(2)})
        with pytest.raises(ValueError, match="torsion-free"):
            tensor_additive([free, torsion])

    def test_zero_factor_annihilates(self):
        a = GradedGroup.from_dict({0: Z_GROUP})
        assert tensor_additive([a, ZERO_GRADED]).is_zero


class TestGradedTensor:
    def test_join_degree_rule(self):
        # two reduced degree 0 classes meet in reduced degree 1
        s0 = GradedGroup.from_dict({0: Z_GROUP})
        t = graded_tensor([s0, s0])
        assert t == GradedGroup.from_dict({1: Z_GROUP})
        # degree -1 against degree -1 stays at -1
        m1 = GradedGroup.from_dict({-1: Z_GROUP})
        assert graded_tensor([m1, m1]) == m1

    def test_three_factors(self):
        s0 = GradedGroup.from_dict({0: FgAbelianGroup(1)})
        t = graded_tensor([s0, s0, s0])
        assert t == GradedGroup.from_dict({2: Z_GROUP})


def test_docstring_examples():
    result = doctest.testmod(polyprod.abelian)
    assert result.attempted >= 1
    assert result.failed == 0
