"""Fusion combinatorics: dimensions, boundaries, Folner ratios."""

import re
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (CANONICAL_EDGES, EDGE_COMPONENTS, NON_LITERALS, boundary_sets,
                     enumerate_labels, folner_ratio, full_dual, is_valid_label, multiplicity,
                     schedule_labels, wcard)
from peterweyl import (
    FolnerSchedule,
    FusionRing,
    InvalidInputError,
    LatticeRing,
    boundary,
    fuse,
    get_ring,
)
from peterweyl import fusion
from peterweyl.fusion import SU2_LABEL_BOUND
from peterweyl.groups import _FINITE_NAMES, finite_group_model

Z = get_ring("Z")
Z2 = get_ring("Z^d:2")
SU2 = get_ring("SU2")
S3 = get_ring("finite:S3")
D4 = get_ring("finite:D4")
Q8 = get_ring("finite:Q8")
C5 = get_ring("finite:C5")
C12 = get_ring("finite:C12")

FINITE_RINGS = [S3, D4, Q8, C5, C12]
# a finite dual whose irreps are named "1" and "0"
SWAPPED = fusion.FiniteDualRing("swapped", ("1", "0"), get_ring("finite:C2").dims,
                                get_ring("finite:C2").fusion)


def brute_force_boundary(F, S, ring, prefix):
    """Direct evaluation of both defining sets, quantifying over an
    enumeration prefix that contains all fusion products of F with S and
    conj(S).  No Frobenius rewrite anywhere."""
    F = frozenset(F)
    inner = set()
    for a in F:
        if any(b not in F and ring.fuse(a, g).get(b, 0) > 0 for g in S for b in prefix):
            inner.add(a)
    outer = set()
    for a in prefix:
        if a not in F and any(ring.fuse(a, g).get(b, 0) > 0 for g in S for b in F):
            outer.add(a)
    return frozenset(inner | outer)


def set_boundary(F, S, ring) -> frozenset:
    """The boundary of the one set F: `boundary_sets` of its one-step schedule."""
    return boundary_sets(FolnerSchedule(ring, (F,)), S)[0]


def one_set_wcard(F, ring) -> int:
    """|F|_w as the library computes it: the one-set schedule's."""
    return int(FolnerSchedule(ring, (F,)).weighted_cardinalities[0])


class TestWeightedCardinality:
    def test_empty_sum(self):
        # the full dual of a finite ring has an empty boundary, of |.|_w 0
        full = FolnerSchedule(D4, (full_dual(D4),))
        assert boundary(full, [4]).tolist() == [0]

    def test_su2_first_three_spins(self):
        # dims of 2j = 0, 1, 2 are 1, 2, 3; sum of squares frozen
        assert [SU2.dim(n) for n in (0, 1, 2)] == [1, 2, 3]
        assert one_set_wcard({0, 1, 2}, SU2) == 14
        # a repeated label counts once, as in the one-set schedule
        assert one_set_wcard([1, 1, 2], SU2) == 4 + 9
        assert one_set_wcard([1, 1, 2], Z) == 2
        # the boundary {0, 2} over the same |F|_w = 2
        assert folner_ratio([1, 1, 2], [1], Z) == 1.0

    @pytest.mark.parametrize("N", [0, 1, 4, 100])
    def test_circle_box(self, N):
        assert one_set_wcard(range(-N, N + 1), Z) == 2 * N + 1

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidInputError):
            one_set_wcard({-1}, SU2)
        with pytest.raises(InvalidInputError):
            one_set_wcard({(1,)}, Z2)
        # bool components are rejected at every rank, as bool labels are for rank 1
        assert not is_valid_label(Z, True)
        assert not is_valid_label(Z2, (True, 0))
        with pytest.raises(InvalidInputError):
            one_set_wcard({(True, False)}, Z2)


class TestFuse:
    def test_su2_clebsch_gordan(self):
        assert fuse(1, 1, SU2) == {0: 1, 2: 1}
        assert fuse(2, 3, SU2) == {1: 1, 3: 1, 5: 1}
        assert fuse(0, 4, SU2) == {4: 1}

    def test_lattice_characters_multiply(self):
        assert fuse(3, -5, Z) == {-2: 1}
        assert fuse((1, 2), (3, -1), Z2) == {(4, 1): 1}

    def test_s3_from_hand_character_table(self):
        # classes (e | two 3-cycles | three transpositions), characters frozen
        sizes = np.array([1, 2, 3])
        chars = {
            0: np.array([1, 1, 1]),
            1: np.array([1, 1, -1]),
            2: np.array([2, -1, 0]),
        }

        def oracle(a, b, c):
            return round(float(np.sum(sizes * chars[a] * chars[b] * chars[c])) / 6)

        for a in range(3):
            for b in range(3):
                expected = {c: oracle(a, b, c) for c in range(3) if oracle(a, b, c)}
                assert fuse(a, b, S3) == expected
        assert fuse(2, 2, S3) == {0: 1, 1: 1, 2: 1}  # std x std

    def test_cyclic_fusion_is_index_addition(self):
        for ring, n in [(C5, 5), (C12, 12)]:
            for a in range(n):
                for b in range(n):
                    assert ring.fuse(a, b) == {(a + b) % n: 1}

    def test_two_dim_squares_on_d4_and_q8(self):
        # the 2-dim irrep squares to the sum of all four 1-dims
        for ring in (D4, Q8):
            assert ring.fuse(4, 4) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidInputError):
            fuse(1, -2, SU2)
        with pytest.raises(InvalidInputError):
            fuse(0, 7, S3)


class TestFusionTable:
    """The fusion table of every finite dual against character orthogonality
    computed here, and a ring built from a table with no group behind it."""

    @pytest.mark.parametrize("name", _FINITE_NAMES)
    def test_table_is_character_orthogonality(self, name):
        model = finite_group_model(name)
        ring = model.ring
        k = len(ring.dims)
        chars = model.characters(list(range(k)), range(model.order))
        oracle = np.zeros((k, k, k), dtype=np.int64)
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    n = np.vdot(chars[c], chars[a] * chars[b]) / model.order
                    oracle[a, b, c] = round(n.real)
                    assert abs(n - oracle[a, b, c]) < 1e-9
        assert ring.fusion.dtype == np.int64 and not ring.fusion.flags.writeable
        assert np.array_equal(ring.fusion, oracle)
        for a in range(k):
            # conj(a) is the label of the conjugate character
            assert np.allclose(chars[ring.conj(a)], chars[a].conj())
            for b in range(k):
                for c in range(k):
                    # Frobenius reciprocity
                    assert ring.fusion[a, b, c] == ring.fusion[c, ring.conj(b), a]
        table = np.array([[a] for a in [*range(k), *range(k)[::-1], 0]], dtype=np.int64)
        for g in range(k):
            rows, _ = ring.products(table, g)
            assert ring.product_counts(table, g).tolist() == np.bincount(
                rows, minlength=len(table)).tolist()

    def test_ring_from_a_fusion_table_alone(self):
        names = ("1", "a", "b", "ab", "u")
        ring = fusion.FiniteDualRing("table:D4", names, D4.dims, D4.fusion)
        for a in range(5):
            assert ring.conj(a) == D4.conj(a)
            for b in range(5):
                assert ring.fuse(a, b) == D4.fuse(a, b)
        assert ring.parse_label("u") == 4 and ring.format_label(4) == "u"
        full = full_dual(ring)
        assert set_boundary(full, full, ring) == frozenset()
        schedule = ring.default_schedule(3)
        wcards, boundary_wcards = schedule.weighted_cardinalities, boundary(schedule, list(full))
        assert wcards.tolist() == [8, 8, 8] and boundary_wcards.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("table, why", [
        (np.zeros((5, 5, 4), dtype=np.int64), "does not match"),
        (np.zeros((5, 5, 5), dtype=np.int64), "no conjugate"),
    ])
    def test_malformed_tables_are_rejected(self, table, why):
        with pytest.raises(InvalidInputError, match=why):
            fusion.FiniteDualRing("bad", ("1", "a", "b", "ab", "u"), D4.dims, table)


class CyclicRing(FusionRing):
    """The fusion ring of Z/5, stating only the rules a ring must state."""

    def conj(self, label):
        return -self._one(label) % 5

    def fuse(self, a, b):
        return self._fused(a, b)

    def valid_rows(self, table):
        return (table[:, 0] >= 0) & (table[:, 0] < 5)

    def dims_of(self, table):
        return np.ones(len(table), dtype=np.int64)

    def products(self, table, g):
        return np.arange(len(table)), (table + g) % 5

    def product_counts(self, table, g):
        return np.ones(len(table), dtype=np.int64)

    def first_table(self, count):
        return np.arange(min(count, 5), dtype=np.int64)[:, None]


class TestRingContract:
    def test_a_ring_states_seven_rules(self):
        assert FusionRing.__abstractmethods__ == {
            "conj", "fuse", "valid_rows", "dims_of", "products", "product_counts", "first_table"}

    def test_the_defaults_serve_a_ring_of_seven_rules(self):
        ring = CyclicRing()
        assert ring.trivial == 0 and ring.parse_label("3") == 3 and ring.format_label(3) == "3"
        assert ring.parse_table(["4", "2", "1"]).tolist() == [[4], [2], [1]]
        # a label literal is a string, not a JSON number
        with pytest.raises(InvalidInputError, match="^2 is not a label of ring ring$"):
            ring.parse_table(["4", 2, "1"])
        assert ring.sorted_labels([4, 1, 3, 0]) == [0, 1, 3, 4]
        assert ring.fuse(3, 4) == {2: 1} and ring.conj(2) == 3
        sets = [{0}, {0, 1}, {1, 3}, {4, 2, 0}, set(range(5))]
        for S in ([1], [2, 3], [0]):
            wanted = [len(brute_force_boundary(F, S, ring, range(5))) for F in sets]
            schedule = FolnerSchedule(ring, sets)
            assert boundary(schedule, S).tolist() == wanted
            prefixes = FolnerSchedule.prefixes(ring, [1, 2, 3, 5])
            assert boundary(prefixes, S).tolist() == [
                len(brute_force_boundary(range(k), S, ring, range(5))) for k in (1, 2, 3, 5)]


class TestRingAxioms:
    """Exact integer identities on enumerated prefixes, randomized, seeded."""

    RINGS = [
        (Z, 9),
        (Z2, 9),
        (SU2, 9),
        (S3, 3),
        (D4, 5),
        (Q8, 5),
        (C5, 5),
        (C12, 12),
    ]

    def test_conjugation_involution_and_dimension(self):
        for ring, bound in self.RINGS:
            for a in enumerate_labels(ring, bound):
                assert ring.conj(ring.conj(a)) == a
                assert ring.dim(ring.conj(a)) == ring.dim(a)
                assert ring.dim(a) >= 1

    def test_trivial_fusion_is_identity(self):
        for ring, bound in self.RINGS:
            for b in enumerate_labels(ring, bound):
                assert ring.fuse(ring.trivial, b) == {b: 1}
                assert ring.fuse(b, ring.trivial) == {b: 1}

    def test_dimension_count(self):
        rng = np.random.default_rng(7)
        for ring, bound in self.RINGS:
            prefix = enumerate_labels(ring, bound)
            for _ in range(40):
                a, b = (prefix[i] for i in rng.integers(len(prefix), size=2))
                total = sum(n * ring.dim(c) for c, n in ring.fuse(a, b).items())
                assert total == ring.dim(a) * ring.dim(b)

    def test_frobenius_reciprocity(self):
        rng = np.random.default_rng(11)
        for ring, bound in self.RINGS:
            prefix = enumerate_labels(ring, bound)
            # c must range over everything a x b can reach
            reachable = set(prefix)
            for a in prefix:
                for b in prefix:
                    reachable.update(ring.fuse(a, b))
            reachable = ring.sorted_labels(reachable)
            for _ in range(60):
                a, b = (prefix[i] for i in rng.integers(len(prefix), size=2))
                c = reachable[rng.integers(len(reachable))]
                n = multiplicity(ring, a, b, c)
                assert n == multiplicity(ring, c, ring.conj(b), a)
                assert n == multiplicity(ring, ring.conj(a), c, b)


class TestBoundary:
    @pytest.mark.parametrize("N", [1, 5, 17])
    def test_circle_box_vs_shift(self, N):
        F = frozenset(range(-N, N + 1))
        assert set_boundary(F, {1}, Z) == {N, -N - 1}

    @pytest.mark.parametrize("m", [0, 1, 7, 30])
    def test_su2_spin_interval(self, m):
        F = frozenset(range(m + 1))
        assert set_boundary(F, {1}, SU2) == {m, m + 1}

    def test_full_dual_of_finite_group_has_no_boundary(self):
        for ring in FINITE_RINGS:
            F = full_dual(ring)
            for S in [{0}, set(enumerate_labels(ring, 2)), F]:
                assert set_boundary(F, S, ring) == frozenset()

    def test_empty_S_rejected(self):
        with pytest.raises(InvalidInputError):
            boundary(FolnerSchedule(SU2, ({0, 1},)), set())

    def test_matches_brute_force_su2(self):
        rng = np.random.default_rng(2)
        prefix = enumerate_labels(SU2, 16)
        for _ in range(50):
            F = {int(x) for x in rng.integers(0, 10, size=rng.integers(1, 6))}
            S = {int(x) for x in rng.integers(0, 4, size=rng.integers(1, 3))}
            assert set_boundary(F, S, SU2) == brute_force_boundary(F, S, SU2, prefix)

    def test_matches_brute_force_z2(self):
        rng = np.random.default_rng(3)
        prefix = enumerate_labels(Z2, 13 * 13)  # all shells up to sup-norm 6
        for _ in range(50):
            F = {
                (int(a), int(b))
                for a, b in rng.integers(-3, 4, size=(rng.integers(1, 8), 2))
            }
            S = {(int(a), int(b)) for a, b in rng.integers(-2, 3, size=(rng.integers(1, 3), 2))}
            assert set_boundary(F, S, Z2) == brute_force_boundary(F, S, Z2, prefix)

    def test_matches_brute_force_finite(self):
        rng = np.random.default_rng(4)
        for ring in FINITE_RINGS:
            K = len(full_dual(ring))
            prefix = enumerate_labels(ring, K)
            for _ in range(30):
                F = {int(x) for x in rng.integers(0, K, size=rng.integers(1, K + 1))}
                S = {int(x) for x in rng.integers(0, K, size=rng.integers(1, 3))}
                assert set_boundary(F, S, ring) == brute_force_boundary(F, S, ring, prefix)


class TestFolnerRatio:
    @pytest.mark.parametrize("N", [1, 5, 40])
    def test_circle_box(self, N):
        assert folner_ratio(range(-N, N + 1), {1}, Z) == 2 / (2 * N + 1)

    @pytest.mark.parametrize("m", [1, 5, 60])
    def test_su2_closed_form(self, m):
        # integer numerator and denominator, then one float division
        expected = ((m + 1) ** 2 + (m + 2) ** 2) / sum((k + 1) ** 2 for k in range(m + 1))
        assert folner_ratio(range(m + 1), {1}, SU2) == expected

    def test_finite_full_dual_is_zero(self):
        for ring in FINITE_RINGS:
            assert folner_ratio(full_dual(ring), {1}, ring) == 0.0

    def test_empty_F_rejected(self):
        with pytest.raises(InvalidInputError):
            folner_ratio(set(), {1}, Z)

    def test_su2_invariant_under_conjugate_closure(self):
        # every SU(2) label is self-conjugate, so S and S u conj(S) agree
        for m in (3, 10):
            F = frozenset(range(m + 1))
            for S in [{1}, {1, 2}, {3}]:
                closure = S | {SU2.conj(g) for g in S}
                assert folner_ratio(F, S, SU2) == folner_ratio(F, closure, SU2)


def folner_ratios(schedule, S):
    wcards, boundary_wcards = schedule.weighted_cardinalities, boundary(schedule, S)
    return [b / w for w, b in zip(wcards.tolist(), boundary_wcards.tolist())]


# ring, labels to draw F from, labels to draw S from, and an enumeration
# prefix holding every product of such F with S and conj(S)
SERIES_CASES = {
    "SU2": (SU2, list(range(8)), list(range(4)), enumerate_labels(SU2, 12)),
    "Z2": (Z2, [(a, b) for a in range(-2, 3) for b in range(-2, 3)],
           [(a, b) for a in range(-1, 2) for b in range(-1, 2)], enumerate_labels(Z2, 49)),
    "D4": (D4, list(range(5)), list(range(5)), enumerate_labels(D4, 5)),
}

# ring and labels to draw S from (with SU2's {1, 3}, or D4's and S3's
# two-dimensional irreps, a label is reached by several products)
PREFIX_CASES = {
    "Z": (Z, [1, -1, 2, -3]),
    "Z2": (Z2, [(1, 0), (0, 1), (2, -1), (-1, -1)]),
    "Z3": (get_ring("Z^d:3"), [(1, 0, 0), (0, 1, 1), (0, -2, 0)]),
    "SU2": (SU2, [1, 2, 3, 5]),
    "D4": (D4, list(range(5))),
    "S3": (S3, list(range(3))),
}


class TestFolnerSeries:
    def test_circle_boxes(self):
        schedule = Z.default_schedule(4)
        wcards, boundary_wcards = schedule.weighted_cardinalities, boundary(schedule, {1})
        assert wcards.tolist() == [3, 5, 7, 9]
        assert boundary_wcards.tolist() == [2, 2, 2, 2]
        assert wcards.dtype == boundary_wcards.dtype == np.int64
        assert folner_ratios(schedule, {1}) == [2 / 3, 2 / 5, 2 / 7, 2 / 9]

    def test_su2_spins_decay_like_6_over_n(self):
        ratios = folner_ratios(SU2.default_schedule(100), {1})
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.07
        assert abs(ratios[-1] * 100 - 6) < 0.5

    def test_finite_constant_schedule_is_zero(self):
        assert folner_ratios(S3.default_schedule(5), {2}) == [0.0] * 5

    def test_empty_S_rejected(self):
        with pytest.raises(InvalidInputError):
            boundary(Z.default_schedule(2), [])

    @pytest.mark.parametrize("name", sorted(SERIES_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_on_schedules_that_are_not_nested(self, name, data):
        ring, pool, gens, prefix = SERIES_CASES[name]
        sets = data.draw(st.lists(st.frozensets(st.sampled_from(pool), min_size=1, max_size=6),
                                  min_size=2, max_size=4))
        assume(not all(F <= G for F, G in zip(sets, sets[1:])))
        S = data.draw(st.frozensets(st.sampled_from(gens), min_size=1, max_size=2))
        schedule = FolnerSchedule(ring, sets)
        wcards, boundary_wcards = schedule.weighted_cardinalities, boundary(schedule, S)
        assert wcards.tolist() == schedule.weighted_cardinalities.tolist()
        assert wcards.tolist() == [wcard(F, ring) for F in sets]
        assert boundary_wcards.tolist() == [
            wcard(brute_force_boundary(F, S, ring, prefix), ring) for F in sets
        ]
        assert boundary_sets(schedule, S) == [
            brute_force_boundary(F, S, ring, prefix) for F in sets
        ]

    @pytest.mark.parametrize("name", sorted(PREFIX_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prefix_boundaries_equal_the_stepwise_ones(self, name, data):
        # prefix lengths in any order, repeated, longer than a finite dual
        ring, gens = PREFIX_CASES[name]
        lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
        S = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
        schedule = FolnerSchedule.prefixes(ring, lengths)
        weighted = boundary(schedule, S)
        assert weighted.dtype == np.int64
        # the same sets as index steps, and the set-valued boundaries
        indexed = FolnerSchedule(ring, schedule.sets)
        assert boundary(indexed, S).tolist() == weighted.tolist()
        assert [wcard(B, ring)
                for B in boundary_sets(schedule, S)] == weighted.tolist()

    def test_boundary_of_a_schedule_lists_each_steps_boundary(self):
        schedule = Z2.default_schedule(3)
        S = {(1, 0), (0, 1)}
        expected = [set_boundary(F, S, Z2) for F in schedule.sets]
        assert boundary_sets(schedule, S) == expected

    def test_each_label_fused_once_per_generator_and_conjugate(self, monkeypatch):
        ring = get_ring("Z^d:3")
        units = ring.generating_labels()
        calls = Counter()

        def counting(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        for cls, name in [(LatticeRing, "products"), (LatticeRing, "fuse"),
                          (FusionRing, "check_label")]:
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
        for steps in (2, 4):
            schedule = ring.default_schedule(steps)
            calls.clear()
            wcards, boundary_wcards = schedule.weighted_cardinalities, boundary(schedule, units)
            # the whole table is fused in one batch per generator and per
            # conjugate, however many labels it has; no label is fused or
            # checked one at a time
            assert calls == Counter({"products": 2 * len(units)})
            # inner part: a coordinate at n; outer part: a coordinate at -n-1
            assert boundary_wcards.tolist() == [
                (2 * n + 1) ** 3 - (2 * n) ** 3 + 3 * (2 * n + 1) ** 2
                for n in range(1, steps + 1)
            ]

    def test_z3_boxes_to_15_match_the_closed_form_quickly(self):
        ring = get_ring("Z^d:3")
        units = ring.generating_labels()
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            boundary_wcards = boundary(ring.default_schedule(15), units)
            best = min(best, time.perf_counter() - start)
        assert boundary_wcards.tolist() == [
            (2 * n + 1) ** 3 - (2 * n) ** 3 + 3 * (2 * n + 1) ** 2 for n in range(1, 16)
        ]
        assert best < 0.2


class TestLabelTables:
    @pytest.mark.parametrize("ring, steps, S", [
        (Z, 30, [1, -3]), (Z2, 6, [(1, 0), (0, 1)]), (Z2, 4, [(2, -1), (0, 3)]),
        (SU2, 40, [1, 3]), (D4, 3, [4]), (get_ring("Z^d:3"), 3, [(1, 0, 0), (0, 1, 1)]),
    ])
    def test_weighted_boundary_equals_the_set_boundary(self, ring, steps, S):
        schedule = ring.default_schedule(steps)
        weighted = boundary(schedule, S)
        assert weighted.dtype == np.int64
        assert weighted.tolist() == [wcard(B, ring)
                                     for B in boundary_sets(schedule, S)]
        # the same sets as index steps instead of prefixes
        indexed = FolnerSchedule(ring, schedule.sets)
        assert boundary(indexed, S).tolist() == weighted.tolist()

    def test_labels_far_apart_keep_exact_boundaries(self):
        ring = get_ring("Z^d:3")
        far = 2 ** 40
        F = {(0, 0, 0), (far, 0, -far), (-far, far, 0)}
        units = ring.generating_labels()
        # every label is inner (a + g leaves F), and every a - g is outer
        below = {tuple(x - e for x, e in zip(a, g)) for a in F for g in units}
        assert set_boundary(F, units, ring) == F | below
        assert boundary(FolnerSchedule(ring, (F,)), units).tolist() == [3 + 9]

    def test_weighted_cardinalities_never_wrap(self):
        # 3.1e6 spins have |F|_w = 9.93e18 > 2**63 - 1; refused before building
        with pytest.raises(InvalidInputError, match="exceeds"):
            FolnerSchedule.prefixes(SU2, [3_100_000])
        with pytest.raises(InvalidInputError, match="3100000 prefix steps.*limit of 5 s"):
            SU2.default_schedule(3_100_000)
        top = SU2_LABEL_BOUND - 1
        assert SU2.dim(top) ** 2 <= 2 ** 63 - 1 and not is_valid_label(SU2, top + 1)
        with pytest.raises(InvalidInputError, match="exceeds"):
            FolnerSchedule(SU2, [{top, top - 1}])
        # a set that fits, whose boundary (the label top + 1) does not
        schedule = FolnerSchedule(SU2, [{top}])
        assert schedule.weighted_cardinalities.tolist() == [(top + 1) ** 2]
        with pytest.raises(InvalidInputError, match="exceeds"):
            boundary(schedule, [1])
        # just below the limit the exact value survives
        assert wcard({top}, SU2) == int(schedule.weighted_cardinalities[0])
        # the prefix pass: {0} has boundary {0, top}, just below the limit,
        # and {0, 1} reaches top + 1, above it
        assert boundary(FolnerSchedule.prefixes(SU2, [1]), [top]).tolist() == [
            1 + (top + 1) ** 2]
        with pytest.raises(InvalidInputError, match="exceeds"):
            boundary(FolnerSchedule.prefixes(SU2, [1, 2]), [top])

    def test_prefix_step_sums_are_the_per_step_loop(self):
        rng = np.random.default_rng(5)
        stops = rng.integers(1, 1501, size=600)
        schedule = FolnerSchedule.prefixes(Z, stops.tolist())
        assert schedule.stops.dtype == np.int64 and not schedule.stops.flags.writeable
        assert schedule.stops.tolist() == stops.tolist() and "steps" not in vars(schedule)
        for values in (rng.integers(-2 ** 40, 2 ** 40, size=1500), rng.standard_normal(1500)):
            running = list(accumulate(values.tolist()))
            loop = np.array([running[k - 1] for k in stops.tolist()], dtype=values.dtype)
            sums = fusion._step_sums(values, schedule)
            assert sums.dtype == values.dtype and sums.tobytes() == loop.tobytes()

    def test_passes_above_the_work_limit_are_refused_before_they_start(self, monkeypatch):
        # index steps of SU2 spins 0..3000 with S = {3000}: a stepwise pass of
        # 10 steps and 9.0e7 products is admitted, the 20 steps (1.8e8
        # products) that COST_S["boundary product"] was timed on are not
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        with monkeypatch.context() as patch:
            patch.setattr(fusion, "_fusion_pairs", admitted)
            with pytest.raises(Admitted):
                boundary(FolnerSchedule(SU2, [range(3001)] * 10), [3000])
            with pytest.raises(InvalidInputError, match="boundary pass.*above the limit"):
                boundary(FolnerSchedule(SU2, [range(3001)] * 20), [3000])
        # the weighted boundaries of prefix steps are one linear pass and
        # are not charged: spins 1..262144 run
        steps = 262144
        schedule = SU2.default_schedule(steps)
        assert boundary(schedule, [1]).tolist() == [
            (n + 1) ** 2 + (n + 2) ** 2 for n in range(1, steps + 1)]
        # the guard lets the longest default schedule it admits, and
        # 1,000,000 steps, go on to their tables (that run is timed for the
        # README, not here), and refuses one step more
        cost = fusion.COST_S
        limit = int(fusion.MAX_WORK_S / cost["prefix step"])
        with monkeypatch.context() as patch:
            patch.setattr(fusion.SU2Ring, "first_table", admitted)
            for steps in (1_000_000, limit):
                with pytest.raises(Admitted):
                    SU2.default_schedule(steps)
        with pytest.raises(InvalidInputError, match="above the limit"):
            SU2.default_schedule(limit + 1)
        start = time.perf_counter()
        # 3e6 steps: refused before any table
        with pytest.raises(InvalidInputError, match="3000000 prefix steps.*above the limit"):
            SU2.default_schedule(3_000_000)
        # one-label index steps: 300,000 are admitted, one step past the limit is not
        limit = int(fusion.MAX_WORK_S / (cost["index step"] + cost["index label"]))
        assert limit > 300_000
        with pytest.raises(InvalidInputError, match="above the limit"):
            FolnerSchedule.from_table(SU2, np.zeros((limit + 1, 1), dtype=np.int64),
                                      [1] * (limit + 1))
        assert time.perf_counter() - start < 1.0
        assert len(FolnerSchedule.from_table(SU2, np.zeros((300_000, 1), dtype=np.int64),
                                             [1] * 300_000)) == 300_000

    def test_stepwise_boundary_pass_is_refused_before_any_product(self, monkeypatch):
        # 100 index steps of spins 0..3000 fused with 3000: each step has
        # 9e6 products, within the size limit, but the pass's 9e8 products
        # would take about 34 s
        indexed = FolnerSchedule(SU2, [range(3001)] * 100)

        def unreachable(*args):
            raise AssertionError("the products were built")

        monkeypatch.setattr(fusion, "_fusion_pairs", unreachable)
        with pytest.raises(InvalidInputError, match="boundary pass.*above the limit"):
            boundary(indexed, [3000])

    def test_refused_work_figures_grow_with_the_steps(self):
        # the early check of a default schedule and the one of `prefixes`
        # make the same estimate, so more steps never report less
        def figure(make):
            with pytest.raises(InvalidInputError, match="above the limit") as refused:
                make()
            return float(re.search(r"would take about (\S+) s", str(refused.value)).group(1))

        limit = int(fusion.MAX_WORK_S / fusion.COST_S["prefix step"])
        figures = []
        for steps in (limit + 1, limit + 200, 10 ** 7):
            figures.append(figure(lambda: D4.default_schedule(steps)))
            assert figure(lambda: FolnerSchedule.prefixes(D4, [5] * steps)) == figures[-1]
        assert figures == sorted(set(figures))

    def test_tables_above_the_size_limit_are_refused(self):
        Z3 = get_ring("Z^d:3")
        for make in (lambda: Z3.default_schedule(1_000_000), lambda: Z.default_schedule(10 ** 9),
                     lambda: S3.default_schedule(10 ** 9), lambda: Z3.first_table(10 ** 8),
                     lambda: SU2.fuse(10 ** 9, 10 ** 9)):
            with pytest.raises(InvalidInputError, match="2\\*\\*24"):
                make()

    def test_label_components_stay_in_int64(self):
        assert is_valid_label(Z, 2 ** 62 - 1) and is_valid_label(Z, -(2 ** 62) + 1)
        for bad in (2 ** 62, -(2 ** 62), 2 ** 63, 10 ** 30):
            assert not is_valid_label(Z, bad)
            with pytest.raises(InvalidInputError):
                Z.parse_label(str(bad))
            with pytest.raises(InvalidInputError):
                Z2.parse_label([bad, 0])
        assert Z.fuse(2 ** 62 - 1, 2 ** 62 - 1) == {2 ** 63 - 2: 1}
        # a component beyond int64 gets the message of every other non-label
        with pytest.raises(InvalidInputError, match=f"^{2 ** 63} is not a label of ring Z$"):
            Z.label_table([0, 2 ** 63])
        for refuse in (lambda: Z2.check_label((2 ** 70, 0)), lambda: Z.dim(2 ** 70)):
            with pytest.raises(InvalidInputError, match="is not a label of ring"):
                refuse()

    def test_label_tables_are_checked_as_a_whole(self):
        table = Z2.label_table([(1, 2), (-3, 0)])
        assert table.dtype == np.int64 and table.tolist() == [[1, 2], [-3, 0]]
        assert Z2.label_table(table) is table
        for bad in (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 2), dtype=float),
                    np.array([[2 ** 62, 0]], dtype=np.int64)):
            with pytest.raises(InvalidInputError):
                Z2.label_table(bad)
        with pytest.raises(InvalidInputError):
            SU2.label_table(np.array([[3], [-1]], dtype=np.int64))

    def test_one_label_methods_are_the_table_rules(self):
        assert Z.sorted_labels([-2, 2, 0, -1, 1]) == [0, 1, -1, 2, -2]
        assert SU2.dim(4) == 5 and D4.dim(4) == 2 and Z2.dim((3, -3)) == 1
        assert D4.fuse(4, 4) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert Z2.conj((1, -2)) == (-1, 2) and Q8.conj(4) == 4

    def test_schedule_file_literals_are_read_as_python_ints_read_them(self):
        # each component as int() reads it, with leading zeros, after an optional "w:"
        assert Z2.parse_table(["w:1,-2", "3,4", "-0,007"]).tolist() == [[1, -2], [3, 4], [0, 7]]
        assert Z.parse_table(["w:-4", "05", str(2 ** 62 - 1)]).tolist() == [
            [-4], [5], [2 ** 62 - 1]]
        assert D4.parse_table(["twodim", "trivial", "sign_rs"]).tolist() == [[4], [0], [3]]
        assert SU2.parse_table(["3", "5"]).tolist() == [[3], [5]]
        # a JSON number or list, ';' inside a label and a finite dual's index are refused
        # by name, as are blanks, signs, underscores and empty parts
        for ring, bad in [(Z2, ["w:1,-2", "3;4"]), (Z2, ["3,4", [5, 6]]), (Z, ["05", 3]),
                          (D4, ["twodim", 0]), (D4, ["twodim", "3"]), (SU2, ["3", 4]),
                          (Z2, ["1,2", "1,2,3"]), (Z2, ["1,2", " w:1,2"]), (Z2, ["w:1;x"]),
                          (Z, ["1", 2.0]), (SU2, ["1", "-1"]), (SU2, ["3;4"]), (SU2, ["w:3"]),
                          (D4, ["twodim", "5"]), (Z2, [" 3 ; 4"]), (Z2, ["+5,6"]),
                          (Z2, ["7,,8"]), (Z2, ["3_0,0"]), (Z, [" 5 "]), (SU2, ["3,"])]:
            with pytest.raises(InvalidInputError) as refused:
                ring.parse_table(bad)
            assert str(refused.value) == _refusal(ring, bad[-1])


@st.composite
def _ill_conditioned(draw, n: int, columns: int) -> np.ndarray:
    """An (n, columns) float table from 1e-13 to 1e13 in modulus, drawn from
    a seed, with some entries the negatives of others, so that sums cancel."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(-10, 10, n * columns) * 10.0 ** rng.integers(-13, 14, n * columns)
    pairs = rng.integers(0, n * columns, size=(2, rng.integers(0, n + 1)))
    values[pairs[1]] = -values[pairs[0]]
    return values.reshape(n, columns)


# a ring, and the radius of the box of labels that carry terms
SUM_CASES = {"Z": (Z, 12), "Z^d:2": (Z2, 3)}


class TestStepSums:
    """`reduce_along` sums each step by Sum2 over one running pass."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), columns=st.integers(1, 3))
    def test_running_sums_add_strictly_left_to_right(self, data, n, columns):
        x = data.draw(_ill_conditioned(n, columns))
        loop = np.array([list(accumulate(x[:, j].tolist())) for j in range(columns)]).T
        assert np.add.accumulate(x).tobytes() == loop.tobytes()
        assert np.add.accumulate(x[:, 0]).tobytes() == loop[:, 0].tobytes()
        assert np.cumsum(x, axis=0).tobytes() == loop.tobytes()

    def _draw(self, data, name, nested):
        ring, radius = SUM_CASES[name]
        side = 2 * radius + 1
        columns = data.draw(st.integers(1, 3))
        values = data.draw(_ill_conditioned(side ** ring.rank, 2 * columns))
        values = values[:, :columns] + 1j * values[:, columns:]

        def terms(table, dims):
            rows = values[np.ravel_multi_index(tuple((table + radius).T), (side,) * ring.rank)]
            return rows if columns > 1 else rows[:, 0]

        if nested:
            lengths = data.draw(st.lists(st.integers(1, side ** ring.rank),
                                         min_size=1, max_size=6))
            schedule = FolnerSchedule.prefixes(ring, lengths)
        else:
            # translated windows inside the box
            def window(corner, size):
                ranges = [range(c, min(c + size, radius + 1)) for c in corner]
                return frozenset(product(*ranges)) if ring.rank > 1 else frozenset(ranges[0])

            corners = st.lists(st.integers(-radius, radius), min_size=ring.rank,
                               max_size=ring.rank)
            sets = data.draw(st.lists(st.builds(window, corners, st.integers(1, side)),
                                      min_size=1, max_size=6))
            schedule = FolnerSchedule(ring, sets)
        return ring, terms, columns, schedule

    @pytest.mark.parametrize("nested", [True, False], ids=["nested", "windows"])
    @pytest.mark.parametrize("name", sorted(SUM_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_step_equals_its_set_alone(self, name, nested, data):
        ring, terms, columns, schedule = self._draw(data, name, nested)
        sums = fusion.reduce_along(schedule, ring, terms, columns)
        assert sums.shape == (len(schedule),) + ((columns,) if columns > 1 else ())
        indexed = fusion.reduce_along(FolnerSchedule(ring, schedule.sets), ring, terms, columns)
        assert indexed.tobytes() == sums.tobytes()
        for k, F in enumerate(schedule.sets):
            alone = fusion.reduce_along(FolnerSchedule(ring, (F,)), ring, terms, columns)
            assert alone[0].tobytes() == sums[k].tobytes()

    @pytest.mark.parametrize("nested", [True, False], ids=["nested", "windows"])
    @pytest.mark.parametrize("name", sorted(SUM_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_step_is_within_the_sum2_bound(self, name, nested, data):
        # |sum - S| <= eps |S| + gamma(n - 1)**2 sum |x_i| (Ogita, Rump and
        # Oishi), S the exact sum of the n terms, gamma(k) = k eps / (1 - k eps)
        ring, terms, columns, schedule = self._draw(data, name, nested)
        sums = fusion.reduce_along(schedule, ring, terms, columns)
        sums = sums.reshape(len(schedule), columns)
        eps = Fraction(1, 2 ** 53)
        for k, F in enumerate(schedule.sets):
            rows = np.asarray(terms(ring.label_table(ring.sorted_labels(F)), None))
            rows = rows.reshape(len(F), columns)
            gamma = (len(F) - 1) * eps / (1 - (len(F) - 1) * eps)
            for part in ("real", "imag"):
                for x, got in zip(getattr(rows, part).T, getattr(sums[k], part)):
                    exact = sum(map(Fraction, x.tolist()), Fraction(0))
                    total = sum(abs(Fraction(v)) for v in x.tolist())
                    bound = eps * abs(exact) + gamma ** 2 * total
                    assert abs(Fraction(float(got)) - exact) <= bound

    def test_long_index_steps_are_summed_one_at_a_time(self):
        # 20 windows of 100,000 labels at 6 columns take in 1.2e7 entries,
        # within 2**24: the sums hold one step's rows at a time
        rng = np.random.default_rng(3)
        values = rng.standard_normal((119_000, 12)).view(complex)
        table = np.concatenate([np.arange(1000 * i, 1000 * i + 100_000) for i in range(20)])
        schedule = FolnerSchedule.from_table(Z, table[:, None], [100_000] * 20)
        sums = fusion.reduce_along(schedule, Z, lambda t, d: values[t[:, 0]], 6)
        for i in range(20):
            assert np.allclose(sums[i], values[1000 * i:1000 * i + 100_000].sum(axis=0),
                               rtol=0, atol=1e-10)
        # at 9 columns they would take in 1.8e7, refused before any term
        with pytest.raises(InvalidInputError, match="18000000 entries.*2\\*\\*24"):
            fusion.reduce_along(schedule, Z, None, 9)


@st.composite
def _literals(draw, ring, canonical: bool):
    """A literal of `ring`.  On a ring with irrep names one of them, or when
    not `canonical` maybe a name with a blank or in capitals, or a decimal.
    Else `ring.rank` components (about as often one more or one fewer when
    not `canonical`), each either canonical or from the edge and non-literal
    lists, separated by ',' (when not `canonical` now and then by ';'),
    maybe after a prefix."""
    if ring.irrep_names:
        names = st.sampled_from(ring.irrep_names)
        odd = (names.map(" {}".format) | names.map(str.upper)
               | st.sampled_from(EDGE_COMPONENTS + NON_LITERALS))
        return draw(names if canonical else names | odd)
    rank = ring.rank
    count = rank if canonical else draw(st.sampled_from([rank - 1, rank, rank, rank + 1]))
    digits = st.integers(-10 ** 6, 10 ** 6).map(str) | st.sampled_from(CANONICAL_EDGES)
    odd = st.sampled_from(EDGE_COMPONENTS + NON_LITERALS)
    parts = [draw(digits if canonical else digits | odd) for _ in range(count)]
    text = parts[0] if parts else ""
    for part in parts[1:]:
        text += draw(st.sampled_from("," if canonical else ",,;")) + part
    prefixes = ["", "", ring.literal_prefix] if canonical else ["", "w:", "w:w:", " w:"]
    return draw(st.sampled_from(prefixes)) + text


def _outcome(ring, literals):
    try:
        table = ring.parse_table(literals)
    except InvalidInputError as exc:
        return str(exc)
    assert table.dtype == np.int64 and table.shape == (len(literals), ring.rank)
    return table.tolist()


def _refusal(ring, literal) -> str:
    return f"{literal!r} is not a label of ring {ring.name}"


def _in_grammar(ring, literal) -> bool:
    """Whether the value is a label literal of the ring: one of its irrep
    names, or on a ring without them a string of an optional prefix, then
    `ring.rank` components -?[0-9]{1,19} separated by ','."""
    if ring.irrep_names:
        return literal in ring.irrep_names
    part = "-?[0-9]{1,19}"
    prefix = re.escape(ring.literal_prefix)
    grammar = f"(?:{prefix})?{part}(?:,{part}){{{ring.rank - 1}}}"
    return isinstance(literal, str) and re.fullmatch(grammar, literal) is not None


def _int_oracle(ring, literals):
    """The outcome of a batch: the refusal of its first literal outside the
    grammar, else of its first literal that is no label, else each irrep
    name's index or each component as int() reads it."""
    outside = [x for x in literals if not _in_grammar(ring, x)]
    if outside:
        return _refusal(ring, outside[0])
    if ring.irrep_names:
        return [[ring.irrep_names.index(x)] for x in literals]
    rows = []
    for literal in literals:
        parts = literal.removeprefix(ring.literal_prefix).split(",")
        label = int(parts[0]) if ring.rank == 1 else tuple(map(int, parts))
        if not is_valid_label(ring, label):
            return _refusal(ring, literal)
        rows.append(list(map(int, parts)))
    return rows


class TestCanonicalLiterals:
    RINGS = ["Z", "Z^d:2", "Z^d:3", "SU2", "finite:D4"]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), ring_id=st.sampled_from(RINGS))
    def test_the_canonical_reader_agrees_with_int(self, data, ring_id):
        ring = get_ring(ring_id)
        literals = data.draw(st.lists(_literals(ring, True), min_size=1, max_size=8))
        assert _outcome(ring, literals) == _int_oracle(ring, literals)

    @pytest.mark.parametrize("ring_id", RINGS)
    def test_edge_literals_agree_with_int(self, ring_id):
        # ';' inside a label is refused on every ring, and every decimal on a finite dual
        ring = get_ring(ring_id)
        trivial = ring.format_label(ring.trivial)
        for part in EDGE_COMPONENTS:
            prefix = ring.literal_prefix
            for literal in [part, prefix + part, ",".join([part] * ring.rank),
                            ",".join(["1"] * (ring.rank - 1) + [part]),
                            ";".join(["1"] * (ring.rank - 1) + [part]),
                            prefix + ",".join([part] * ring.rank),
                            prefix + ";".join([part] * ring.rank)]:
                for batch in ([literal], [trivial, literal], [literal, trivial],
                              [trivial, literal, trivial]):
                    assert _outcome(ring, batch) == _int_oracle(ring, batch), batch

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), ring_id=st.sampled_from(RINGS))
    def test_a_batch_is_read_exactly_when_each_literal_is(self, data, ring_id):
        ring = get_ring(ring_id)
        # JSON numbers and lists are no literals either
        literals = data.draw(st.lists(
            _literals(ring, True) | _literals(ring, False) | st.text(max_size=8)
            | st.sampled_from(NON_LITERALS) | st.integers(-3, 3)
            | st.lists(st.integers(-2, 2), min_size=1, max_size=3), min_size=1, max_size=8))
        self._check_batch(ring, literals)

    def test_batches_whose_counts_add_up_are_read_as_their_literals(self):
        Z3 = get_ring("Z^d:3")
        for at in (0, 2, 4):
            for wrong in ("1,2", "1,2,3,4", "1;2;;3", "1,2,"):
                batch = ["1,2,3"] * 5
                batch[at] = wrong
                assert _outcome(Z3, batch) == _refusal(Z3, wrong)
        # counts that add up to the batch's, and a line break inside a literal
        for ring, batch, first in [(Z2, ["1,2,3", "4"], "1,2,3"), (Z3, ["1,2", "3,4,5,6"], "1,2"),
                                   (Z2, ["1,2\n3", "4"], "1,2\n3"),
                                   (Z2, ["1,2", "3\n4,5", "6"], "3\n4,5"),
                                   (Z, ["1", "\n2"], "\n2")]:
            self._check_batch(ring, batch)
            assert _outcome(ring, batch) == _refusal(ring, first)

    @staticmethod
    def _check_batch(ring, literals):
        """A batch is read exactly when each literal is read alone, and then
        as their rows in order; else it is refused naming its first literal
        outside the grammar, or when there is none its first literal that is
        no label."""
        alone = [_outcome(ring, [x]) for x in literals]
        refused = [x for x, outcome in zip(literals, alone) if isinstance(outcome, str)]
        if refused:
            first = [x for x in refused if not _in_grammar(ring, x)] or refused
            assert _outcome(ring, literals) == _refusal(ring, first[0])
        else:
            assert _outcome(ring, literals) == [row for rows in alone for row in rows]

    def test_irrep_names_come_before_decimals(self):
        # a finite dual reads its irrep names and no decimal: SWAPPED's "0" is label 1
        assert SWAPPED.parse_table(["0", "1", "0"]).tolist() == [[1], [0], [1]]
        for ring, batch, refused in [(SWAPPED, ["0", "01"], "01"), (SWAPPED, ["1", 0], 0),
                                     (S3, ["std", "2"], "2"), (S3, ["02"], "02"),
                                     (S3, [2, "std"], 2)]:
            assert _outcome(ring, batch) == _refusal(ring, refused)

    @pytest.mark.parametrize("ring_id, canonical, odd", [
        ("Z", ["w:-3", "4", "-0"], " 5"),
        ("Z^d:2", ["w:1,-2", "3,4", "007,-0"], "w:1,,2"),
        ("Z^d:3", ["1,2,3", "w:-1,0," + "9" * 18], "+1,2,3"),
        ("SU2", ["0", "17", "007"], "3_0"),
        ("finite:D4", ["trivial", "twodim", "sign_r"], "twodim"),
        ("finite:D4", ["trivial", "twodim", "sign_r"], " 3"),
        ("Z^d:2", ["w:1,-2", "3,4", "007,-0"], "3;4"),
        ("finite:D4", ["trivial", "twodim", "sign_r"], "4"),
    ])
    def test_which_path_a_batch_takes(self, monkeypatch, ring_id, canonical, odd):
        ring = get_ring(ring_id)
        expected = ring.parse_table(canonical).tolist()
        scans = []
        decimal_table = FusionRing._decimal_table

        def spy(self, texts):
            scans.append(len(texts))
            return decimal_table(self, texts)

        monkeypatch.setattr(FusionRing, "_decimal_table", spy)
        # the decimals of a batch take one scan, a single literal too; a finite
        # dual's names take none
        decimal = not ring.irrep_names
        assert ring.parse_table(canonical).tolist() == expected
        assert scans == ([len(canonical)] if decimal else [])
        assert ring.parse_label(canonical[0]) == ring.labels_of(np.array([expected[0]]))[0]
        assert scans[1:] == ([1] if decimal else [])
        # any other literal is refused by name, among decimals found by halving
        batch = canonical[:1] + [odd] + canonical[1:]
        del scans[:]
        if odd in ring.irrep_names:
            assert ring.parse_table(batch).tolist()[1] == [ring.irrep_names.index(odd)]
            assert scans == []
        else:
            with pytest.raises(InvalidInputError, match=re.escape(_refusal(ring, odd))):
                ring.parse_table(batch)
            # the first scan reads the batch, the halving about one more in all
            if decimal:
                assert scans[0] == len(batch) and sum(scans[1:]) < len(batch)
            else:
                assert scans == []


@pytest.mark.parametrize("ring_id, literal", [
    ("Z", " 3"), ("Z", "+3"), ("Z", "3_0"), ("Z", "\u0663"), ("Z", "3,"), ("SU2", ";3"),
    ("Z^d:2", "7,,8"), ("Z^d:2", " w:1,2"), ("Z^d:2", "w:w:1,2"), ("Z", "1" + "0" * 19),
    ("SU2", ""), ("Z^d:2", "1;-2"), ("finite:S3", "2"), ("finite:S3", "02"), ("Z", 3),
    ("Z^d:2", [1, -2]),
])
def test_spellings_outside_the_grammar_are_refused_by_name(ring_id, literal):
    # refused alone and first, in the middle or last in a batch of labels, by name
    ring = get_ring(ring_id)
    canonical = [ring.format_label(a) for a in enumerate_labels(ring, 5)]
    for batch in ([literal], [literal] + canonical, canonical[:2] + [literal] + canonical[2:],
                  canonical + [literal]):
        with pytest.raises(InvalidInputError) as refused:
            ring.parse_table(batch)
        assert str(refused.value) == _refusal(ring, literal)


@pytest.mark.parametrize("ring_id", ["Z", "Z^d:2", "Z^d:3", "SU2", "dualgroup:Z^d:2",
                                     *(f"finite:{name}" for name in _FINITE_NAMES)])
def test_every_label_reads_back_from_its_literal(ring_id):
    ring = get_ring(ring_id)
    values = [0, 1, -1, 10 ** 18, -10 ** 18, 2 ** 62 - 1, -(2 ** 62 - 1)]
    labels = ([tuple(v * (-1) ** i for i in range(ring.rank)) for v in values]
              + [(v,) + (0,) * (ring.rank - 1) for v in values])
    labels = [a[0] if ring.rank == 1 else a for a in labels]
    labels += enumerate_labels(ring, 64) if isinstance(ring, fusion.FiniteDualRing) else []
    labels = [a for a in labels if is_valid_label(ring, a)]
    assert labels and [ring.parse_label(ring.format_label(a)) for a in labels] == labels
    assert ring.labels_of(ring.parse_table(map(ring.format_label, labels))) == labels
    # nineteen nines are beyond int64 and read as 2**63 - 1, which is no label
    nines = ["9" * 19, "-" + "9" * 19]
    assert ring._decimal_table([",".join([x] * ring.rank) for x in nines]).tolist() == [
        [2 ** 63 - 1] * ring.rank] * 2
    for literal in nines:
        with pytest.raises(InvalidInputError):
            ring.parse_label(",".join([literal] * ring.rank))


def _rank1_reference(ring, literals):
    """An independent rank-1 reader of strings: a ring's irrep names where
    it has them, else the grammar -?[0-9]{1,19} read by int(); the table as
    a list of rows, or None when it refuses the batch."""
    rows = []
    for x in literals:
        if not isinstance(x, str):
            return None
        if ring.irrep_names:
            if x not in ring.irrep_names:
                return None
            x = ring.irrep_names.index(x)
        elif re.fullmatch("-?[0-9]{1,19}", x):
            x = int(x)
        else:
            return None
        if not is_valid_label(ring, x):
            return None
        rows.append([x])
    return rows


_RANK1_ODD = (
    st.integers(-3, 3000) | st.integers() | st.booleans() | st.floats(-2, 2)
    | st.sampled_from(["sign_s", "w:1", "3;4"] + EDGE_COMPONENTS + NON_LITERALS)
    | st.text(alphabet="0123456789 +-_,;\n\u0661\u2003", max_size=6)
    | st.integers(-10 ** 20, 10 ** 20).map(str)
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ring=st.sampled_from([SU2, D4, SWAPPED]))
def test_every_literal_the_rank1_reference_reads_reads_the_same(data, ring):
    # literals the ring reads, and maybe one from anywhere
    literals = data.draw(st.lists(st.sampled_from(
        ring.irrep_names or ("0", "1", "01", "001")), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        literals.insert(data.draw(st.integers(0, len(literals))), data.draw(_RANK1_ODD))
    reference = _rank1_reference(ring, literals)
    outcome = _outcome(ring, literals)
    # the reader reads exactly what the reference reads
    if reference is None:
        assert isinstance(outcome, str)
    else:
        assert outcome == reference


CSR_LABELS = {
    "Z": (Z, st.integers(-20, 20), [1, -2, 0]),
    "Z^d:2": (Z2, st.tuples(st.integers(-4, 4), st.integers(-4, 4)), [(1, 0), (0, 1), (0, 0)]),
    "SU2": (SU2, st.integers(0, 30), [1, 2, 0]),
    "finite:D4": (D4, st.integers(0, 4), [4, 1, 0]),
}


class TestIndexSchedules:
    """An index schedule is one CSR table of its steps' rows."""

    @pytest.mark.parametrize("name", sorted(CSR_LABELS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_csr_rows_are_each_steps_distinct_ranks(self, name, data):
        # steps of random lengths, with repeats inside and across steps; a
        # trivial generator (or D4's full dual) leaves some boundaries empty
        ring, labels, gens = CSR_LABELS[name]
        steps = data.draw(st.lists(st.lists(labels, min_size=1, max_size=12),
                                   min_size=1, max_size=8))
        S = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2))
        schedule = FolnerSchedule(ring, steps)
        rank = {a: i for i, a in enumerate(schedule_labels(schedule))}
        assert list(schedule_labels(schedule)) == ring.sorted_labels({a for F in steps for a in F})
        ranks = [sorted({rank[a] for a in F}) for F in steps]
        assert schedule.stops is None
        for array in (schedule.indptr, schedule.indices):
            assert array.dtype == np.int64 and not array.flags.writeable
        assert schedule.indptr.tolist() == [0, *accumulate(map(len, ranks))]
        assert schedule.indices.tolist() == [i for r in ranks for i in r]
        assert [s.tolist() for s in schedule.steps] == ranks
        assert schedule.weighted_cardinalities.tolist() == [
            sum(ring.dim(a) ** 2 for a in set(F)) for F in steps]
        assert schedule.sets == tuple(map(frozenset, steps))
        sets = boundary_sets(schedule, S)
        assert sets == [set_boundary(F, S, ring) for F in steps]
        assert boundary(schedule, S).tolist() == [
            wcard(B, ring) for B in sets]

    @pytest.mark.parametrize("name", sorted(CSR_LABELS))
    def test_a_schedule_without_sets_is_refused(self, name):
        ring = CSR_LABELS[name][0]
        with pytest.raises(InvalidInputError, match="at least one set"):
            FolnerSchedule(ring, [])
        with pytest.raises(InvalidInputError, match="at least one set"):
            FolnerSchedule.from_table(ring, np.zeros((0, ring.rank), dtype=np.int64), [])



class TestSchedulesAndEnumeration:
    def test_schedule_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            FolnerSchedule(Z, ())
        with pytest.raises(InvalidInputError):
            FolnerSchedule(Z, (frozenset(), frozenset({1})))

    def test_default_schedules_are_prefixes_of_the_label_order(self):
        assert list(Z.default_schedule(3).sets) == [Z.box(n) for n in (1, 2, 3)]
        assert list(Z2.default_schedule(3).sets) == [Z2.box(n) for n in (1, 2, 3)]
        assert list(SU2.default_schedule(4).sets) == [frozenset(range(n + 1)) for n in (1, 2, 3, 4)]
        assert list(S3.default_schedule(2).sets) == [full_dual(S3)] * 2
        schedule = Z2.default_schedule(5)
        assert schedule_labels(schedule) == tuple(enumerate_labels(Z2, 121))
        assert list(schedule.weighted_cardinalities) == [(2 * n + 1) ** 2 for n in range(1, 6)]
        assert schedule.sets[-1] == Z2.box(5) and len(schedule.sets) == 5

    def test_schedule_table_is_ring_ordered_and_exact(self):
        schedule = FolnerSchedule(SU2, [{3, 0}, {5, 1, 0}, {2}])
        assert schedule_labels(schedule) == (0, 1, 2, 3, 5)
        assert [list(s) for s in schedule.steps] == [[0, 3], [0, 1, 4], [2]]
        assert list(schedule.weighted_cardinalities) == [17, 41, 9]
        assert schedule.sets == (frozenset({0, 3}), frozenset({0, 1, 5}), frozenset({2}))
        with pytest.raises(InvalidInputError):
            FolnerSchedule(SU2, [{0, -1}])

    def test_ring_generating_labels(self):
        assert Z.generating_labels() == [1]
        assert Z2.generating_labels() == [(1, 0), (0, 1)]
        assert SU2.generating_labels() == [1]
        assert S3.generating_labels() == [0, 1, 2]

    def test_circle_enumeration_order(self):
        assert enumerate_labels(Z, 5) == [0, 1, -1, 2, -2]

    def test_su2_enumeration_order(self):
        assert enumerate_labels(SU2, 4) == [0, 1, 2, 3]

    def test_z2_enumeration_walks_shells(self):
        assert enumerate_labels(Z2, 9) == [
            (0, 0),
            (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1),
        ]

    def test_finite_enumeration_stops_at_full_dual(self):
        assert enumerate_labels(S3, 10) == [0, 1, 2]

    def test_label_literals_round_trip(self):
        assert Z.parse_label("-3") == -3
        assert Z2.parse_label("w:1,-2") == Z2.parse_label("1,-2") == (1, -2)
        assert SU2.parse_label("4") == 4
        assert S3.parse_label("std") == 2
        assert S3.format_label(2) == "std"
        # one spelling per label: no list, ';', number or index of an irrep name
        for ring, literal in [(SU2, "-1"), (S3, "spin"), (Z2, [1, -2]), (Z2, "1;-2"),
                              (Z2, "w:1;-2"), (S3, "2"), (S3, 2), (SU2, 4), (Z, -3)]:
            with pytest.raises(InvalidInputError) as refused:
                ring.parse_label(literal)
            assert str(refused.value) == f"{literal!r} is not a label of ring {ring.name}"

    def test_lattice_literals_need_integer_components(self):
        Z3 = get_ring("Z^d:3")
        for ring, bad in [(Z2, [1.5, 0]), (Z2, [True, 0]), (Z2, [0, -0.9]), (Z2, [1.0, 0]),
                          (Z2, ["1", 0]), (Z2, [[1], 0]), (Z2, [1, 2, 3]), (Z3, [0, False, 0]),
                          (Z, 1.5), (Z, True), (Z, [1]), (Z2, 3), (Z2, "1,2,3")]:
            # no literal, a string, and no label either
            with pytest.raises(InvalidInputError):
                ring.parse_label(bad)
            with pytest.raises(InvalidInputError):
                ring.label_table([tuple(bad) if isinstance(bad, list) else bad])
        # numpy ints make labels, and no label literal
        assert Z2.labels_of(Z2.label_table([(np.int64(3), -1)])) == [(3, -1)]
        assert type(Z.labels_of(Z.label_table([np.int64(-4)]))[0]) is int
        for ring, literal in [(Z2, [np.int64(3), -1]), (Z, np.int64(-4))]:
            with pytest.raises(InvalidInputError):
                ring.parse_label(literal)

    @settings(max_examples=300, deadline=None)
    @given(
        ring_id=st.sampled_from(["Z", "Z^d:2", "Z^d:3", "SU2", "finite:D4", "dualgroup:Z^d:2"]),
        literal=st.recursive(
            st.integers() | st.booleans() | st.floats() | st.text(max_size=12)
            | st.sampled_from(["w:1,-2", "1,2,3", "twodim", "w:", ";", "-0", " 7 "]),
            lambda inner: st.lists(inner, max_size=4),
            max_leaves=8,
        ),
    )
    def test_parse_label_returns_a_label_or_rejects(self, ring_id, literal):
        ring = get_ring(ring_id)
        try:
            label = ring.parse_label(literal)
        except InvalidInputError:
            return
        assert is_valid_label(ring, label)

    def test_lattice_rank_validation(self):
        with pytest.raises(InvalidInputError):
            LatticeRing(0)
