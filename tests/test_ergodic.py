"""Cesaro operator averages, invariant projections, convergence reports."""

import cmath
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (cesaro, chi, from_axis_angle, full_dual, haar_sample, operator, projection,
                     schedule_labels)
from peterweyl import (
    FolnerSchedule,
    InvalidInputError,
    LatticeRing,
    ergodic_limit_check,
    finite_group_model,
    get_model,
    get_ring,
    gns_rep,
    group_rep,
    point_rep,
)
from peterweyl import ergodic

CIRCLE = get_model("Z")
SU2 = get_model("SU2")
S3 = get_model("finite:S3")
DUAL_Z = get_ring("dualgroup:Z^d:1")
DUAL_Z2 = get_ring("dualgroup:Z^d:2")

FINITE_MODELS = [finite_group_model(n) for n in ("C6", "S3", "D4", "Q8")]


def box(N):
    return frozenset(range(-N, N + 1))


def box2(N):
    return frozenset((a, b) for a in range(-N, N + 1) for b in range(-N, N + 1))


def random_unitary(rng, k):
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPointRep:
    def test_at_identity_only(self):
        rep = point_rep(CIRCLE, [CIRCLE.identity()])
        for n in range(-4, 5):
            assert np.allclose(chi(rep, n), [[1.0]], atol=0)
        rep = point_rep(SU2, [SU2.identity()])
        for n in range(5):
            assert np.allclose(chi(rep, n), [[n + 1]], atol=1e-12)

    def test_circle_two_points(self):
        rep = point_rep(CIRCLE, [CIRCLE.identity(), CIRCLE.element(-1 + 0j)])
        for n in range(-5, 6):
            assert np.allclose(chi(rep, n), np.diag([1.0, (-1.0) ** n]), atol=1e-13)

    def test_su2_identity_and_generic_point(self):
        g = from_axis_angle((0, 1, 0), 1.3)
        rep = point_rep(SU2, [SU2.identity(), g])
        for n in range(5):
            expected = np.diag([n + 1.0, SU2.character_value(n, g)])
            assert np.allclose(chi(rep, n), expected, atol=1e-12)

    def test_rejects_empty_points(self):
        with pytest.raises(InvalidInputError):
            point_rep(CIRCLE, [])


class TestGroupRep:
    def test_scalar_geometric_sums(self):
        lam = cmath.exp(0.9j)
        rep = group_rep(DUAL_Z, [[[lam]]])
        for N in (3, 20, 100):
            oracle = sum(lam**n for n in range(-N, N + 1)) / (2 * N + 1)
            assert abs(cesaro(rep, box(N))[0, 0] - oracle) < 1e-12
        fixed = group_rep(DUAL_Z, [[[1.0]]])
        assert np.allclose(cesaro(fixed, box(50)), [[1.0]], atol=1e-12)

    def test_rotation_by_third_of_turn_averages_to_zero(self):
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        rep = group_rep(DUAL_Z, [np.array([[c, -s], [s, c]])])
        # 201 is a multiple of 3, so the geometric sums cancel exactly
        assert np.max(np.abs(cesaro(rep, box(100)))) < 1e-12

    def test_z2_trivial_images(self):
        rep = group_rep(DUAL_Z2, [np.eye(2), np.eye(2)])
        for N in (1, 4):
            assert np.allclose(cesaro(rep, box2(N)), np.eye(2), atol=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            group_rep(DUAL_Z, [np.array([[2.0]])])  # not unitary
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        with pytest.raises(InvalidInputError):
            group_rep(DUAL_Z2, [x, z])  # anticommuting
        with pytest.raises(InvalidInputError):
            group_rep(DUAL_Z2, [np.eye(2)])  # wrong count
        with pytest.raises(InvalidInputError):
            group_rep(SU2.ring, [np.eye(2)])  # not a lattice ring
        for bad in ([[np.nan]], 5, [1.0, 1.0]):
            with pytest.raises(InvalidInputError):
                group_rep(DUAL_Z, [bad])  # non-finite, not a matrix


class TestGnsRep:
    def test_identity_state_is_counit_direction(self):
        for model in FINITE_MODELS:
            phi = np.zeros(model.order)
            phi[model.identity()] = 1.0
            rep = gns_rep(model, phi)
            assert rep.dim == 1
            M = cesaro(rep, full_dual(model.ring))
            v = rep.cyclic_vector
            assert abs((v.conj() @ M @ v) - 1.0) < 1e-12

    def test_off_identity_states_average_to_zero(self):
        for model in FINITE_MODELS:
            for x in range(1, model.order):
                phi = np.zeros(model.order)
                phi[x] = 1.0
                rep = gns_rep(model, phi)
                M = cesaro(rep, full_dual(model.ring))
                v = rep.cyclic_vector
                assert abs(v.conj() @ M @ v) < 1e-12

    def test_uniform_state_on_s3(self):
        rep = gns_rep(S3, np.full(6, 1 / 6))
        M = cesaro(rep, full_dual(S3.ring))
        v = rep.cyclic_vector
        assert abs((v.conj() @ M @ v) - 1 / 6) < 1e-12

    def test_the_support_is_read_before_scaling(self):
        # 5e-324 / 1e308 underflows to 0, yet the state is positive at both elements
        rep = gns_rep(S3, [1e308, 5e-324, 0, 0, 0, 0])
        assert rep.points == [0, 1]
        assert np.all(np.isfinite(rep.cyclic_vector))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            gns_rep(S3, np.zeros(6))
        with pytest.raises(InvalidInputError):
            gns_rep(S3, -np.ones(6) / 6)
        with pytest.raises(InvalidInputError):
            gns_rep(S3, np.ones(4) / 4)
        with pytest.raises(InvalidInputError):
            gns_rep(CIRCLE, np.ones(2) / 2)


class TestCesaroOperator:
    def test_point_rep_at_identity_any_set(self):
        rep = point_rep(CIRCLE, [CIRCLE.identity()])
        for F in (box(1), box(9), frozenset({3, -7})):
            assert np.allclose(cesaro(rep, F), [[1.0]], atol=1e-13)

    @pytest.mark.parametrize("N", [2, 10, 40])
    def test_circle_two_points_alternating_sum(self, N):
        # N even: the (-1)^n sum over the box is exactly 1
        rep = point_rep(CIRCLE, [CIRCLE.identity(), CIRCLE.element(-1 + 0j)])
        expected = np.diag([1.0, 1 / (2 * N + 1)])
        assert np.allclose(cesaro(rep, box(N)), expected, atol=1e-13)

    @pytest.mark.parametrize("N", [2, 10])
    def test_group_rep_minus_one(self, N):
        rep = group_rep(DUAL_Z, [[[-1.0]]])
        assert abs(cesaro(rep, box(N))[0, 0] - 1 / (2 * N + 1)) < 1e-14

    def test_norm_bound(self):
        # weights d^2/|F|_w sum to one over contractions
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            rep = group_rep(DUAL_Z, [random_unitary(rng, k)])
            M = cesaro(rep, box(int(rng.integers(1, 30))))
            assert np.linalg.norm(M, 2) <= 1 + 1e-10
        rep = point_rep(SU2, [haar_sample(SU2, rng) for _ in range(3)])
        M = cesaro(rep, frozenset(range(6)))
        assert np.linalg.norm(M, 2) <= 1 + 1e-10

    def test_empty_F_rejected(self):
        rep = point_rep(CIRCLE, [CIRCLE.identity()])
        with pytest.raises(InvalidInputError):
            cesaro(rep, frozenset())


class TestInvariantProjection:
    def test_separating_points_project_onto_identity_coordinate(self):
        rep = point_rep(CIRCLE, [CIRCLE.identity(), CIRCLE.element(-1 + 0j)])
        assert np.allclose(projection(rep, [1]), np.diag([1.0, 0.0]), atol=1e-12)
        g = from_axis_angle((0, 0, 1), 2.2)
        rep = point_rep(SU2, [SU2.identity(), g])
        assert np.allclose(projection(rep, [1]), np.diag([1.0, 0.0]), atol=1e-12)

    def test_trivial_group_rep_gives_identity(self):
        rep = group_rep(DUAL_Z2, [np.eye(3), np.eye(3)])
        assert np.allclose(projection(rep, [(1, 0), (0, 1)]), np.eye(3), atol=1e-12)

    def test_nontrivial_eigenvalue_gives_zero(self):
        rep = group_rep(DUAL_Z, [[[cmath.exp(0.3j)]]])
        assert np.allclose(projection(rep, [1]), [[0.0]], atol=1e-12)

    def test_idempotent_selfadjoint_and_commutant(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            q = random_unitary(rng, k)
            # spectra containing exact ones so the projection is nontrivial
            d1 = np.exp(1j * np.where(rng.random(k) < 0.4, 0.0, rng.uniform(0.3, 5.9, k)))
            d2 = np.exp(1j * np.where(rng.random(k) < 0.4, 0.0, rng.uniform(0.3, 5.9, k)))
            rep = group_rep(DUAL_Z2, [q @ np.diag(d1) @ q.conj().T,
                                      q @ np.diag(d2) @ q.conj().T])
            gens = [(1, 0), (0, 1)]
            P = projection(rep, gens)
            assert np.max(np.abs(P @ P - P)) < 1e-9
            assert np.max(np.abs(P - P.conj().T)) < 1e-9
            for g in gens:
                u = chi(rep, g)
                assert np.linalg.norm(P @ u - u @ P) < 1e-8

    def test_monotone_localization(self):
        # vectors in the range of P are fixed by every truncated average
        rep = group_rep(DUAL_Z2, [np.diag([1, 1j]), np.diag([1, -1])])
        P = projection(rep, [(1, 0), (0, 1)])
        for N in (1, 3, 7):
            M = cesaro(rep, box2(N))
            assert np.max(np.abs(M @ P - P)) < 1e-9
        rep = point_rep(SU2, [SU2.identity(), from_axis_angle((1, 1, 0), 0.9)])
        P = projection(rep, [1])
        for m in (2, 6):
            M = cesaro(rep, frozenset(range(m + 1)))
            assert np.max(np.abs(M @ P - P)) < 1e-9


class TestRepInvariants:
    """||pi(chi(a))||_op <= dim(a) and pi(chi(conj a)) = pi(chi(a))^H."""

    def reps_and_labels(self):
        rng = np.random.default_rng(11)
        yield point_rep(SU2, [haar_sample(SU2, rng) for _ in range(3)]), range(6)
        yield point_rep(CIRCLE, [haar_sample(CIRCLE, rng) for _ in range(2)]), range(-4, 5)
        yield gns_rep(S3, rng.dirichlet(np.ones(6))), range(3)
        yield group_rep(DUAL_Z, [random_unitary(rng, 3)]), range(-5, 6)

    def test_contraction_and_adjoint(self):
        for rep, labels in self.reps_and_labels():
            for a in labels:
                u = chi(rep, a)
                d = rep.ring.dim(a)
                assert np.linalg.norm(u, 2) <= d + 1e-10
                assert np.max(np.abs(chi(rep, rep.ring.conj(a)) - u.conj().T)) < 1e-12

    def test_group_rep_words_are_unitary(self):
        rng = np.random.default_rng(12)
        rep = group_rep(DUAL_Z, [random_unitary(rng, 3)])
        for s in range(-6, 7):
            u = chi(rep, s)
            assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-10


class TestErgodicLimitCheck:
    def test_z2_commuting_diagonals_match_geometric_oracle(self):
        rep = group_rep(DUAL_Z2, [np.diag([1, 1j]), np.diag([1, -1])])
        steps = (5, 10, 50, 100)
        schedule = FolnerSchedule(DUAL_Z2, [box2(N) for N in steps])
        report = ergodic_limit_check(rep, schedule, [(1, 0), (0, 1)], tol=1e-3)
        assert report.passed
        for i, N in enumerate(steps):
            g1 = sum(1j**n for n in range(-N, N + 1)) / (2 * N + 1)
            g2 = sum((-1.0) ** n for n in range(-N, N + 1)) / (2 * N + 1)
            assert abs(report.distances[i] - abs(g1 * g2)) < 1e-12
        assert np.allclose(operator(rep, report.invariant), np.diag([1.0, 0.0]), atol=1e-12)
        assert report.averages.shape == (len(steps), 2)
        assert np.max(np.abs(report.averages)) <= 1 + 1e-10

    def test_finite_group_full_dual_is_exact_in_one_step(self):
        rng = np.random.default_rng(8)
        for model in FINITE_MODELS:
            points = [model.identity()] + [haar_sample(model, rng) for _ in range(2)]
            rep = point_rep(model, points)
            full = full_dual(model.ring)
            schedule = FolnerSchedule(model.ring, (full,))
            report = ergodic_limit_check(rep, schedule, full, tol=1e-10)
            assert report.passed
            assert report.distances[0] <= 1e-10

    def test_point_rep_at_identity_has_zero_residues(self):
        rep = point_rep(S3, [S3.identity()])
        schedule = S3.ring.default_schedule(3)
        report = ergodic_limit_check(rep, schedule, full_dual(S3.ring), tol=1e-12)
        assert report.passed
        assert np.all(report.distances <= 1e-13)
        assert rep.basis_residue <= 1e-13

    def test_failing_tolerance_reported(self):
        rep = group_rep(DUAL_Z, [[[-1.0]]])
        schedule = FolnerSchedule(DUAL_Z, (box(1), box(3)))
        report = ergodic_limit_check(rep, schedule, [1], tol=1e-8)
        assert not report.passed

    def test_a_schedule_on_another_ring_is_refused(self):
        # a lattice ring built by hand is another ring object than the model's
        rep = point_rep(CIRCLE, [CIRCLE.identity()])
        with pytest.raises(InvalidInputError, match="is not <LatticeRing Z>"):
            ergodic_limit_check(rep, LatticeRing(1).default_schedule(3), [1])

    @pytest.mark.parametrize("nested", [True, False], ids=["default", "windows"])
    def test_operators_equal_single_set_cesaro_operators(self, nested):
        rng = np.random.default_rng(14)
        rep = group_rep(DUAL_Z2, [np.diag(np.exp(1j * rng.uniform(0, 6, 3))) for _ in range(2)])
        if nested:
            schedule = DUAL_Z2.default_schedule(12)
        else:
            schedule = FolnerSchedule(DUAL_Z2, [
                frozenset((x, y) for x in range(a, a + l1) for y in range(b, b + l2))
                for a, b, l1, l2 in ((0, 0, 3, 4), (-5, 2, 10, 7), (4, -9, 6, 6), (1, 1, 1, 1))
            ])
        report = ergodic_limit_check(rep, schedule, [(1, 0), (0, 1)], tol=1.0)
        for a, F in zip(report.averages, schedule.sets):
            assert np.array_equal(operator(rep, a), cesaro(rep, F))

    def test_full_dual_average_equals_projection_on_finite_groups(self):
        # the boundary of the full dual is empty, so the limit is attained
        # at one step: full-dual Cesaro average == invariant projection
        rng = np.random.default_rng(9)
        for model in FINITE_MODELS:
            full = full_dual(model.ring)
            phi = rng.dirichlet(np.ones(model.order))
            for rep in (gns_rep(model, phi),
                        point_rep(model, [haar_sample(model, rng) for _ in range(3)])):
                M = cesaro(rep, full)
                P = projection(rep, full)
                assert np.max(np.abs(M - P)) < 1e-10


class TestDiagonalReport:
    """The report is read on the diagonal; dense operators built in the tests are its oracle."""

    def reps(self):
        rng = np.random.default_rng(31)
        d4 = finite_group_model("D4")
        yield point_rep(SU2, [SU2.identity()] + [haar_sample(SU2, rng) for _ in range(5)]), [1]
        yield point_rep(CIRCLE, [CIRCLE.identity()] + [haar_sample(CIRCLE, rng)
                                                       for _ in range(4)]), [1]
        yield gns_rep(d4, rng.dirichlet(np.ones(8))), d4.ring.generating_labels()
        yield gns_rep(S3, np.full(6, 1.0)), S3.ring.generating_labels()
        q = random_unitary(rng, 6)
        theta = rng.uniform(0, 6, (2, 6))
        theta[:, :2] = 0.0  # a two-dimensional invariant subspace
        yield group_rep(DUAL_Z2, [q @ np.diag(np.exp(1j * t)) @ q.conj().T
                                  for t in theta]), [(1, 0), (0, 1)]

    def schedules(self, ring, rng):
        nested = ring.default_schedule(8)
        labels = schedule_labels(nested)
        yield nested
        yield FolnerSchedule(ring, [
            [labels[i] for i in rng.choice(len(labels), size=int(rng.integers(1, len(labels))),
                                           replace=False)]
            for _ in range(6)
        ])

    def test_distances_and_averages_match_the_dense_path(self):
        rng = np.random.default_rng(32)
        for rep, gens in self.reps():
            for schedule in self.schedules(rep.ring, rng):
                report = ergodic_limit_check(rep, schedule, gens, tol=1.0)
                P = operator(rep, report.invariant)
                assert np.array_equal(P, projection(rep, gens))
                assert np.max(np.abs(report.averages)) <= 1 + 1e-10
                for i, F in enumerate(schedule.sets):
                    M = cesaro(rep, F)
                    assert np.array_equal(operator(rep, report.averages[i]), M)
                    assert abs(report.distances[i] - np.linalg.norm(M - P)) <= 1e-12
                    for g in gens:
                        u = chi(rep, g)
                        assert np.linalg.norm(M @ u - u @ M) <= 1e-12

    def test_basis_residue(self):
        for rep, _ in self.reps():
            if rep.basis is None:
                assert rep.basis_residue == 0.0
            else:
                v = rep.basis
                assert rep.basis_residue == np.linalg.norm(v.conj().T @ v - np.eye(rep.dim))
                assert 0.0 < rep.basis_residue < 1e-13

    def test_basis_residue_decides_with_the_distance(self):
        rep = point_rep(CIRCLE, [CIRCLE.identity()])
        rep.basis_residue = 1e-6
        schedule = CIRCLE.ring.default_schedule(3)
        for tol, passed in ((1e-8, False), (1e-5, True)):
            report = ergodic_limit_check(rep, schedule, [1], tol=tol)
            assert report.passed is passed
            assert np.all(report.distances == 0.0)

    def test_a_large_rep_is_checked_without_an_operator(self):
        rng = np.random.default_rng(33)
        rep = point_rep(CIRCLE, [haar_sample(CIRCLE, rng) for _ in range(5000)])
        tracemalloc.start()
        try:
            report = ergodic_limit_check(rep, CIRCLE.ring.default_schedule(3), [1], tol=10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.averages.shape == (3, 5000)
        assert peak < 2**24  # one 5000 x 5000 operator would take 400 MB


class TestStateCharacterSeparation:
    """Only the identity-evaluation state matches every character dimension."""

    def test_identity_state_matches_exactly(self):
        for model in FINITE_MODELS:
            e = model.identity()
            for a in full_dual(model.ring):
                assert model.character_value(a, e) == model.ring.dim(a)

    def test_other_states_miss_some_character(self):
        rng = np.random.default_rng(10)
        for model in FINITE_MODELS:
            labels = sorted(full_dual(model.ring))
            for _ in range(250):
                phi = rng.dirichlet(np.ones(model.order))
                if phi[model.identity()] > 0.99:
                    continue  # essentially the identity state; skipped
                worst = max(
                    abs(
                        sum(phi[x] * model.character_value(a, x) for x in range(model.order))
                        - model.ring.dim(a)
                    )
                    for a in labels
                )
                assert worst > 1e-6


class TestDiagonalPath:
    """Every representation is a basis and a list of points, and every
    average is read from one batched character table."""

    def su2_points(self, n):
        rng = np.random.default_rng(21)
        return [SU2.identity()] + [haar_sample(SU2, rng) for _ in range(n - 1)]

    def test_characters_are_batched_once_per_check(self, monkeypatch):
        calls = []
        characters = type(SU2).characters

        def counting(model, labels, elements):
            calls.append(len(labels))
            return characters(model, labels, elements)

        monkeypatch.setattr(type(SU2), "characters", counting)
        rep = point_rep(SU2, self.su2_points(8))
        counts = []
        for steps in (20, 200):
            calls.clear()
            ergodic_limit_check(rep, SU2.ring.default_schedule(steps), [1], tol=1.0)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert max(calls) == 201  # spins 0..200 in one table

    def test_su2_point_rep_matches_weyl_character_oracle(self):
        # batched, spins 0..1000 at 48 points take about 0.15 s; evaluating
        # one label per character call takes about 2 s.  The best of three
        # runs is timed, as a single run can stall on a busy machine.
        points = self.su2_points(48)
        rep = point_rep(SU2, points)
        schedule = SU2.ring.default_schedule(1000)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            report = ergodic_limit_check(rep, schedule, [1], tol=1e-3)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 1.0
        # chi_n(t) = sin((n+1)t/2) / sin(t/2) with cos(t/2) = Re a; n+1 at t = 0
        half = np.arccos(np.clip([g[0].real for g in points], -1.0, 1.0))
        n = np.arange(1001)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            chi = np.where(half == 0, n + 1.0, np.sin((n + 1) * half) / np.sin(half))
        wcard = np.cumsum((n[:, 0] + 1) ** 2)[1:]
        averages = np.cumsum((n + 1) * chi, axis=0)[1:] / wcard[:, None]
        invariant = (half == 0).astype(float)
        oracle = np.sqrt(((averages - invariant) ** 2).sum(axis=1))
        assert schedule.weighted_cardinalities.tolist() == wcard.tolist()
        assert np.max(np.abs(report.distances - oracle)) < 1e-9
        assert report.passed

    def test_group_rep_with_repeated_joint_eigenvalues(self):
        # joint eigenvalues (1, 1) twice, (i, -1) twice and (e^0.3i, 1) once:
        # the mixed Hermitian operator is degenerate inside each repeated pair
        rng = np.random.default_rng(22)
        q = random_unitary(rng, 5)
        d1 = np.array([1, 1j, 1, 1j, cmath.exp(0.3j)])
        d2 = np.array([1, -1, 1, -1, 1], dtype=complex)
        rep = group_rep(DUAL_Z2, [q @ np.diag(d) @ q.conj().T for d in (d1, d2)])

        def key(point):
            return tuple(round(c, 9) for z in point for c in (z.real, z.imag))

        assert sorted(map(key, rep.points)) == sorted(map(key, zip(d1, d2)))
        fixed = q[:, [0, 2]]
        P = projection(rep, [(1, 0), (0, 1)])
        assert np.max(np.abs(P - fixed @ fixed.conj().T)) < 1e-10
        for s in ((2, -3), (0, 1), (5, 5)):
            word = q @ np.diag(d1 ** s[0] * d2 ** s[1]) @ q.conj().T
            assert np.max(np.abs(chi(rep, s) - word)) < 1e-12

    def test_failed_joint_diagonalisation_is_rejected(self, monkeypatch):
        # with a real weight, H = U + U^H sends the eigenvalues i and -i to
        # the same value, so its eigenvectors need not diagonalise U
        rng = np.random.default_rng(23)
        q = random_unitary(rng, 3)
        u = q @ np.diag([1j, -1j, 1]) @ q.conj().T
        assert group_rep(DUAL_Z, [u]).dim == 3
        monkeypatch.setattr(ergodic, "_mixing", lambda rank: np.ones(rank))
        with pytest.raises(InvalidInputError, match="jointly diagonal"):
            group_rep(DUAL_Z, [u])
