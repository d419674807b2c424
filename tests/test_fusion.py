"""Fusion combinatorics: dimensions, boundaries, Folner ratios."""

import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from peterweyl import (
    FolnerSchedule,
    FusionRing,
    InvalidInputError,
    LatticeRing,
    boundary,
    folner_ratio,
    folner_series,
    fuse,
    get_ring,
    weighted_cardinality,
)
from peterweyl import fusion
from peterweyl.fusion import SU2_LABEL_BOUND

Z = get_ring("Z")
Z2 = get_ring("Z^d:2")
SU2 = get_ring("SU2")
S3 = get_ring("finite:S3")
D4 = get_ring("finite:D4")
Q8 = get_ring("finite:Q8")
C5 = get_ring("finite:C5")
C12 = get_ring("finite:C12")

FINITE_RINGS = [S3, D4, Q8, C5, C12]


def brute_force_boundary(F, S, ring, prefix):
    """Direct evaluation of both defining sets, quantifying over an
    enumeration prefix that contains all fusion products of F with S and
    conj(S).  No Frobenius rewrite anywhere."""
    F = frozenset(F)
    inner = set()
    for a in F:
        if any(b not in F and ring.multiplicity(a, g, b) > 0 for g in S for b in prefix):
            inner.add(a)
    outer = set()
    for a in prefix:
        if a not in F and any(ring.multiplicity(a, g, b) > 0 for g in S for b in F):
            outer.add(a)
    return frozenset(inner | outer)


class TestWeightedCardinality:
    def test_empty_sum(self):
        assert weighted_cardinality(frozenset(), SU2) == 0

    def test_su2_first_three_spins(self):
        # dims of 2j = 0, 1, 2 are 1, 2, 3; sum of squares frozen
        assert [SU2.dim(n) for n in (0, 1, 2)] == [1, 2, 3]
        assert weighted_cardinality({0, 1, 2}, SU2) == 14

    @pytest.mark.parametrize("N", [0, 1, 4, 100])
    def test_circle_box(self, N):
        assert weighted_cardinality(range(-N, N + 1), Z) == 2 * N + 1

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidInputError):
            weighted_cardinality({-1}, SU2)
        with pytest.raises(InvalidInputError):
            weighted_cardinality({(1,)}, Z2)
        # bool components are rejected at every rank, as bool labels are for rank 1
        assert not Z.is_valid_label(True)
        assert not Z2.is_valid_label((True, 0))
        with pytest.raises(InvalidInputError):
            weighted_cardinality({(True, False)}, Z2)


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
            for a in ring.enumerate_labels(bound):
                assert ring.conj(ring.conj(a)) == a
                assert ring.dim(ring.conj(a)) == ring.dim(a)
                assert ring.dim(a) >= 1

    def test_trivial_fusion_is_identity(self):
        for ring, bound in self.RINGS:
            for b in ring.enumerate_labels(bound):
                assert ring.fuse(ring.trivial, b) == {b: 1}
                assert ring.fuse(b, ring.trivial) == {b: 1}

    def test_dimension_count(self):
        rng = np.random.default_rng(7)
        for ring, bound in self.RINGS:
            prefix = ring.enumerate_labels(bound)
            for _ in range(40):
                a, b = (prefix[i] for i in rng.integers(len(prefix), size=2))
                total = sum(n * ring.dim(c) for c, n in ring.fuse(a, b).items())
                assert total == ring.dim(a) * ring.dim(b)

    def test_frobenius_reciprocity(self):
        rng = np.random.default_rng(11)
        for ring, bound in self.RINGS:
            prefix = ring.enumerate_labels(bound)
            # c must range over everything a x b can reach
            reachable = set(prefix)
            for a in prefix:
                for b in prefix:
                    reachable.update(ring.fuse(a, b))
            reachable = ring.sorted_labels(reachable)
            for _ in range(60):
                a, b = (prefix[i] for i in rng.integers(len(prefix), size=2))
                c = reachable[rng.integers(len(reachable))]
                n = ring.multiplicity(a, b, c)
                assert n == ring.multiplicity(c, ring.conj(b), a)
                assert n == ring.multiplicity(ring.conj(a), c, b)


class TestBoundary:
    @pytest.mark.parametrize("N", [1, 5, 17])
    def test_circle_box_vs_shift(self, N):
        F = frozenset(range(-N, N + 1))
        assert boundary(F, {1}, Z) == {N, -N - 1}

    @pytest.mark.parametrize("m", [0, 1, 7, 30])
    def test_su2_spin_interval(self, m):
        F = frozenset(range(m + 1))
        assert boundary(F, {1}, SU2) == {m, m + 1}

    def test_full_dual_of_finite_group_has_no_boundary(self):
        for ring in FINITE_RINGS:
            F = ring.full_dual()
            for S in [{0}, set(ring.enumerate_labels(2)), F]:
                assert boundary(F, S, ring) == frozenset()

    def test_empty_S_rejected(self):
        with pytest.raises(InvalidInputError):
            boundary({0, 1}, set(), SU2)

    def test_matches_brute_force_su2(self):
        rng = np.random.default_rng(2)
        prefix = SU2.enumerate_labels(16)
        for _ in range(50):
            F = {int(x) for x in rng.integers(0, 10, size=rng.integers(1, 6))}
            S = {int(x) for x in rng.integers(0, 4, size=rng.integers(1, 3))}
            assert boundary(F, S, SU2) == brute_force_boundary(F, S, SU2, prefix)

    def test_matches_brute_force_z2(self):
        rng = np.random.default_rng(3)
        prefix = Z2.enumerate_labels(13 * 13)  # all shells up to sup-norm 6
        for _ in range(50):
            F = {
                (int(a), int(b))
                for a, b in rng.integers(-3, 4, size=(rng.integers(1, 8), 2))
            }
            S = {(int(a), int(b)) for a, b in rng.integers(-2, 3, size=(rng.integers(1, 3), 2))}
            assert boundary(F, S, Z2) == brute_force_boundary(F, S, Z2, prefix)

    def test_matches_brute_force_finite(self):
        rng = np.random.default_rng(4)
        for ring in FINITE_RINGS:
            K = len(ring.full_dual())
            prefix = ring.enumerate_labels(K)
            for _ in range(30):
                F = {int(x) for x in rng.integers(0, K, size=rng.integers(1, K + 1))}
                S = {int(x) for x in rng.integers(0, K, size=rng.integers(1, 3))}
                assert boundary(F, S, ring) == brute_force_boundary(F, S, ring, prefix)


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
            assert folner_ratio(ring.full_dual(), {1}, ring) == 0.0

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
    wcards, boundary_wcards = folner_series(schedule, S)
    return [b / w for w, b in zip(wcards.tolist(), boundary_wcards.tolist())]


# ring, labels to draw F from, labels to draw S from, and an enumeration
# prefix holding every product of such F with S and conj(S)
SERIES_CASES = {
    "SU2": (SU2, list(range(8)), list(range(4)), SU2.enumerate_labels(12)),
    "Z2": (Z2, [(a, b) for a in range(-2, 3) for b in range(-2, 3)],
           [(a, b) for a in range(-1, 2) for b in range(-1, 2)], Z2.enumerate_labels(49)),
    "D4": (D4, list(range(5)), list(range(5)), D4.enumerate_labels(5)),
}


class TestFolnerSeries:
    def test_circle_boxes(self):
        schedule = Z.default_schedule(4)
        wcards, boundary_wcards = folner_series(schedule, {1})
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
            folner_series(Z.default_schedule(2), [])

    @pytest.mark.parametrize("name", sorted(SERIES_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_on_schedules_that_are_not_nested(self, name, data):
        ring, pool, gens, prefix = SERIES_CASES[name]
        sets = data.draw(st.lists(st.frozensets(st.sampled_from(pool), min_size=1, max_size=6),
                                  min_size=2, max_size=4))
        assume(not all(F <= G for F, G in zip(sets, sets[1:])))
        S = data.draw(st.frozensets(st.sampled_from(gens), min_size=1, max_size=2))
        schedule = FolnerSchedule(ring, sets, "random")
        wcards, boundary_wcards = folner_series(schedule, S)
        assert wcards.tolist() == schedule.weighted_cardinalities.tolist()
        assert wcards.tolist() == [weighted_cardinality(F, ring) for F in sets]
        assert boundary_wcards.tolist() == [
            weighted_cardinality(brute_force_boundary(F, S, ring, prefix), ring) for F in sets
        ]
        assert boundary(schedule, S, ring) == [
            brute_force_boundary(F, S, ring, prefix) for F in sets
        ]

    def test_boundary_of_a_schedule_lists_each_steps_boundary(self):
        schedule = Z2.default_schedule(3)
        S = {(1, 0), (0, 1)}
        expected = [boundary(F, S, Z2) for F in schedule]
        assert boundary(schedule, S, Z2) == expected
        # the labels are fused on the ring given, here an equal ring object
        assert boundary(schedule, S, LatticeRing(2)) == expected

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
            wcards, boundary_wcards = folner_series(schedule, units)
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
            _, boundary_wcards = folner_series(ring.default_schedule(15), units)
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
        weighted = boundary(schedule, S, ring, weighted=True)
        assert weighted.dtype == np.int64
        assert weighted.tolist() == [weighted_cardinality(B, ring)
                                     for B in boundary(schedule, S, ring)]
        # the same sets as index steps instead of prefixes
        indexed = FolnerSchedule(ring, schedule.sets)
        assert boundary(indexed, S, ring, weighted=True).tolist() == weighted.tolist()

    def test_labels_far_apart_keep_exact_boundaries(self):
        ring = get_ring("Z^d:3")
        far = 2 ** 40
        F = {(0, 0, 0), (far, 0, -far), (-far, far, 0)}
        units = ring.generating_labels()
        # every label is inner (a + g leaves F), and every a - g is outer
        below = {tuple(x - e for x, e in zip(a, g)) for a in F for g in units}
        assert boundary(F, units, ring) == F | below
        assert boundary(F, units, ring, weighted=True) == 3 + 9

    def test_weighted_cardinalities_never_wrap(self):
        # 3.1e6 spins have |F|_w = 9.93e18 > 2**63 - 1; refused before building
        with pytest.raises(InvalidInputError, match="exceeds"):
            FolnerSchedule.prefixes(SU2, [3_100_000])
        with pytest.raises(InvalidInputError, match="exceeds"):
            SU2.default_schedule(3_100_000)
        top = SU2_LABEL_BOUND - 1
        assert SU2.dim(top) ** 2 <= 2 ** 63 - 1 and not SU2.is_valid_label(top + 1)
        with pytest.raises(InvalidInputError, match="exceeds"):
            FolnerSchedule(SU2, [{top, top - 1}])
        # a set that fits, whose boundary (the label top + 1) does not
        schedule = FolnerSchedule(SU2, [{top}])
        assert schedule.weighted_cardinalities.tolist() == [(top + 1) ** 2]
        with pytest.raises(InvalidInputError, match="exceeds"):
            folner_series(schedule, [1])
        # just below the limit the exact value survives
        assert weighted_cardinality({top}, SU2) == int(schedule.weighted_cardinalities[0])

    def test_passes_above_the_visit_limit_are_refused_before_they_start(self):
        # SU2 spins 1..20000 with S = {1}: a boundary pass of 8.8e8 visits runs
        schedule = SU2.default_schedule(20000)
        fusion._refuse_long_boundary(schedule, [1])
        start = time.perf_counter()
        # 3e6 steps: the steps alone count 1.2e10 visits, refused before any table
        with pytest.raises(InvalidInputError, match="2\\*\\*30"):
            SU2.default_schedule(3_000_000)
        with pytest.raises(InvalidInputError, match="2\\*\\*30"):
            FolnerSchedule.from_table(SU2, np.zeros((300_000, 1), dtype=np.int64), [1] * 300_000)
        # 200 steps of spins 0..3000 fused with 3000: each step has 9e6
        # products, within the size limit, but the pass would visit 1.8e9
        schedule = FolnerSchedule.prefixes(SU2, [3001] * 200)
        with pytest.raises(InvalidInputError, match="boundary pass.*2\\*\\*30"):
            folner_series(schedule, [3000])
        assert time.perf_counter() - start < 1.0

    def test_tables_above_the_size_limit_are_refused(self):
        Z3 = get_ring("Z^d:3")
        for make in (lambda: Z3.default_schedule(1_000_000), lambda: Z.default_schedule(10 ** 9),
                     lambda: S3.default_schedule(10 ** 9), lambda: Z3.enumerate_labels(10 ** 8),
                     lambda: SU2.fuse(10 ** 9, 10 ** 9)):
            with pytest.raises(InvalidInputError, match="2\\*\\*24"):
                make()

    def test_label_components_stay_in_int64(self):
        assert Z.is_valid_label(2 ** 62 - 1) and Z.is_valid_label(-(2 ** 62) + 1)
        for bad in (2 ** 62, -(2 ** 62), 2 ** 63, 10 ** 30):
            assert not Z.is_valid_label(bad)
            with pytest.raises(InvalidInputError):
                Z.parse_label(str(bad))
            with pytest.raises(InvalidInputError):
                Z2.parse_label([bad, 0])
        assert Z.fuse(2 ** 62 - 1, 2 ** 62 - 1) == {2 ** 63 - 2: 1}

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
        assert Z.sort_key(-2) == (2, 2) and Z.sort_key(2) == (2, -2)
        assert Z2.sort_key((0, -1)) == (1, 0, -1)
        assert Z.sorted_labels([-2, 2, 0, -1, 1]) == [0, 1, -1, 2, -2]
        assert SU2.dim(4) == 5 and D4.dim(4) == 2 and Z2.dim((3, -3)) == 1
        assert D4.fuse(4, 4) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert Z2.conj((1, -2)) == (-1, 2) and Q8.conj(4) == 4

    def test_schedule_file_literals_are_read_as_python_ints_read_them(self):
        assert Z2.parse_table(["w:1,-2", " 3 ; 4", "+5,6", "7,,8", "3_0,0"]).tolist() == [
            [1, -2], [3, 4], [5, 6], [7, 8], [30, 0]]
        assert Z.parse_table([3, "w:-4", " 5 ", "6,"]).tolist() == [[3], [-4], [5], [6]]
        assert D4.parse_table(["twodim", 0, "3"]).tolist() == [[4], [0], [3]]
        for ring, bad in [(Z2, ["1,2", "1,2,3"]), (Z2, ["1,2", " w:1,2"]), (Z2, ["w:1;x"]),
                          (Z, ["1", 2.0]), (SU2, ["1", "-1"]), (D4, ["twodim", "5"])]:
            with pytest.raises(InvalidInputError):
                ring.parse_table(bad)


class TestSchedulesAndEnumeration:
    def test_schedule_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            FolnerSchedule(Z, ())
        with pytest.raises(InvalidInputError):
            FolnerSchedule(Z, (frozenset(), frozenset({1})))

    def test_default_schedules_are_prefixes_of_the_label_order(self):
        assert list(Z.default_schedule(3)) == [Z.box(n) for n in (1, 2, 3)]
        assert list(Z2.default_schedule(3)) == [Z2.box(n) for n in (1, 2, 3)]
        assert list(SU2.default_schedule(4)) == [SU2.spins(n) for n in (1, 2, 3, 4)]
        assert list(S3.default_schedule(2)) == [S3.full_dual()] * 2
        schedule = Z2.default_schedule(5)
        assert schedule.labels == tuple(Z2.enumerate_labels(121))
        assert list(schedule.weighted_cardinalities) == [(2 * n + 1) ** 2 for n in range(1, 6)]
        assert schedule[-1] == Z2.box(5) and len(schedule.sets) == 5

    def test_schedule_table_is_ring_ordered_and_exact(self):
        schedule = FolnerSchedule(SU2, [{3, 0}, {5, 1, 0}, {2}], "scattered")
        assert schedule.labels == (0, 1, 2, 3, 5)
        assert [list(s) for s in schedule.steps] == [[0, 3], [0, 1, 4], [2]]
        assert list(schedule.weighted_cardinalities) == [17, 41, 9]
        assert schedule.sets == (frozenset({0, 3}), frozenset({0, 1, 5}), frozenset({2}))
        with pytest.raises(InvalidInputError):
            FolnerSchedule(SU2, [{0, -1}])

    def test_ring_schedule_names_and_generators(self):
        assert [r.schedule_name for r in (Z, Z2, SU2, S3)] == ["boxes", "boxes", "spins", "full"]
        assert Z.generating_labels() == [1]
        assert Z2.generating_labels() == [(1, 0), (0, 1)]
        assert SU2.generating_labels() == [1]
        assert S3.generating_labels() == [0, 1, 2]

    def test_circle_enumeration_order(self):
        assert Z.enumerate_labels(5) == [0, 1, -1, 2, -2]

    def test_su2_enumeration_order(self):
        assert SU2.enumerate_labels(4) == [0, 1, 2, 3]

    def test_z2_enumeration_walks_shells(self):
        assert Z2.enumerate_labels(9) == [
            (0, 0),
            (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1),
        ]

    def test_finite_enumeration_stops_at_full_dual(self):
        assert S3.enumerate_labels(10) == [0, 1, 2]

    def test_label_literals_round_trip(self):
        assert Z.parse_label("-3") == -3
        assert Z2.parse_label("w:1,-2") == (1, -2)
        assert Z2.parse_label([1, -2]) == (1, -2)
        assert SU2.parse_label("4") == 4
        assert S3.parse_label("std") == 2
        assert S3.format_label(2) == "std"
        with pytest.raises(InvalidInputError):
            SU2.parse_label("-1")
        with pytest.raises(InvalidInputError):
            S3.parse_label("spin")

    def test_lattice_literals_need_integer_components(self):
        Z3 = get_ring("Z^d:3")
        for ring, bad in [(Z2, [1.5, 0]), (Z2, [True, 0]), (Z2, [0, -0.9]), (Z2, [1.0, 0]),
                          (Z2, ["1", 0]), (Z2, [[1], 0]), (Z2, [1, 2, 3]), (Z3, [0, False, 0]),
                          (Z, 1.5), (Z, True), (Z, [1]), (Z2, 3), (Z2, "1,2,3")]:
            with pytest.raises(InvalidInputError):
                ring.parse_label(bad)
        assert Z2.parse_label([np.int64(3), -1]) == (3, -1)
        assert type(Z.parse_label(np.int64(-4))) is int

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
        assert ring.is_valid_label(label)

    def test_lattice_rank_validation(self):
        with pytest.raises(InvalidInputError):
            LatticeRing(0)
