"""Wiener-type averages: closed forms, series, Wiener's criterion on the energy tail."""

import cmath
import math
import struct
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import average, energy, energy_by_definition, from_axis_angle, haar_sample
from peterweyl import (
    FolnerSchedule,
    InvalidInputError,
    LatticeRing,
    MeasureSpec,
    TorusModel,
    dirac,
    get_model,
    get_ring,
    haar,
    run_series,
    total_mass,
)
from peterweyl import wiener

CIRCLE = get_model("Z")
SU2 = get_model("SU2")
S3 = get_model("finite:S3")


def circle_mix():
    # 0.5 delta_1 + 0.5 Haar
    return MeasureSpec(CIRCLE, atoms=[(CIRCLE.identity(), 0.5)], density={0: [[0.5]]})


def box(N):
    return frozenset(range(-N, N + 1))


def combine(model, mu, nu, a, b):
    """a*mu + b*nu as one spec (atom lists assumed disjoint)."""
    atoms = [(g, a * w) for g, w in mu.atoms] + [(g, b * w) for g, w in nu.atoms]
    density = {}
    for label in set(mu.density) | set(nu.density):
        d = model.ring.dim(label)
        density[label] = a * mu.density.get(label, np.zeros((d, d))) + b * nu.density.get(
            label, np.zeros((d, d))
        )
    return MeasureSpec(model, atoms=atoms, density=density)


class TestAtomAverage:
    @pytest.mark.parametrize("N", [1, 10, 100])
    def test_circle_mix_closed_form(self, N):
        value = average("atom", circle_mix(), box(N), at=CIRCLE.identity())
        assert abs(value - (0.5 + 0.5 / (2 * N + 1))) < 1e-13

    def test_point_mass_detects_itself_at_every_truncation(self):
        rng = np.random.default_rng(1)
        cases = [
            (CIRCLE, box(7)),
            (SU2, frozenset(range(6))),
            (S3, frozenset(range(3))),
        ]
        for model, F in cases:
            y = haar_sample(model, rng)
            value = average("atom", dirac(model, y), F, at=y)
            assert abs(value - 1.0) < 1e-12

    @pytest.mark.parametrize("N", [1, 3, 10, 47])
    def test_circle_fourth_root_oscillation(self, N):
        mu = dirac(CIRCLE, CIRCLE.element(1j))
        value = average("atom", mu, box(N), at=CIRCLE.identity())
        oracle = sum(1j**n for n in range(-N, N + 1)) / (2 * N + 1)
        assert abs(value - oracle) < 1e-14
        assert abs(value) <= 3 / (2 * N + 1)

    def test_empty_F_rejected(self):
        with pytest.raises(InvalidInputError):
            average("atom", haar(CIRCLE), frozenset(), at=CIRCLE.identity())


class TestEnergyAverage:
    @pytest.mark.parametrize("N", [1, 5, 30])
    def test_haar_energy_is_reciprocal_weight(self, N):
        assert abs(energy(haar(CIRCLE), box(N)) - 1 / (2 * N + 1)) < 1e-15
        F = frozenset(range(N + 1))
        w = sum((k + 1) ** 2 for k in range(N + 1))
        assert abs(energy(haar(SU2), F) - 1 / w) < 1e-15

    def test_point_mass_energy_is_one(self):
        rng = np.random.default_rng(2)
        for model, F in [(CIRCLE, box(9)), (SU2, frozenset(range(5)))]:
            mu = dirac(model, haar_sample(model, rng))
            assert abs(energy(mu, F) - 1.0) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 9, 10])
    def test_two_atom_circle_expansion(self, N):
        mu = MeasureSpec(
            CIRCLE,
            atoms=[(CIRCLE.identity(), 0.3), (CIRCLE.element(-1 + 0j), 0.7)],
        )
        # |0.3 + 0.7 (-1)^n|^2 = 0.58 + 0.42 (-1)^n; the box mean of (-1)^n
        # is +-1/(2N+1) depending on the parity of N
        sign = 1 if N % 2 == 0 else -1
        expected = 0.58 + 0.42 * sign / (2 * N + 1)
        assert abs(energy(mu, box(N)) - expected) < 1e-13


class TestCharAverage:
    def test_identity_point_mass(self):
        assert abs(average("char", dirac(CIRCLE, CIRCLE.identity()), box(12)) - 1) < 1e-13
        assert abs(average("char", dirac(S3, S3.identity()), frozenset(range(3))) - 1) < 1e-13

    @pytest.mark.parametrize("N", [2, 20])
    def test_haar(self, N):
        assert abs(average("char", haar(CIRCLE), box(N)) - 1 / (2 * N + 1)) < 1e-15

    def test_su2_rotation_decays_and_matches_dirichlet_form(self):
        theta = 1.0
        g = from_axis_angle((0, 0, 1), theta)
        mu = dirac(SU2, g)

        def oracle(m):
            w = sum((k + 1) ** 2 for k in range(m + 1))
            total = sum(
                (n + 1) * math.sin((n + 1) * theta / 2) / math.sin(theta / 2)
                for n in range(m + 1)
            )
            return total / w

        for m in (10, 40, 60):
            value = average("char", mu, frozenset(range(m + 1)))
            assert abs(value - oracle(m)) < 1e-10
        assert abs(average("char", mu, frozenset(range(61)))) < 0.02


class TestRunSeries:
    def test_haar_energy_series(self):
        schedule = CIRCLE.ring.default_schedule(50)
        series = run_series("energy", haar(CIRCLE), schedule)
        expected = np.array([1 / (2 * N + 1) for N in range(1, 51)])
        assert np.allclose(series.values.real, expected, atol=1e-15)
        assert list(schedule.weighted_cardinalities) == [2 * N + 1 for N in range(1, 51)]

    def test_point_mass_atom_series_is_constant_one(self):
        mu = dirac(SU2, SU2.identity())
        series = run_series("atom", mu, SU2.ring.default_schedule(15), at=SU2.identity())
        assert np.allclose(series.values, 1.0, atol=1e-12)

    def test_mix_energy_series(self):
        series = run_series("energy", circle_mix(), CIRCLE.ring.default_schedule(80))
        expected = np.array([0.25 + 0.75 / (2 * N + 1) for N in range(1, 81)])
        assert np.allclose(series.values.real, expected, atol=1e-13)

    def test_energy_series_values_are_real_and_nonnegative(self):
        mu = MeasureSpec(CIRCLE, atoms=[(CIRCLE.element(1j), 0.8)], density={2: [[0.3]]})
        series = run_series("energy", mu, CIRCLE.ring.default_schedule(25))
        assert np.all(np.abs(series.values.imag) == 0.0)
        assert np.all(series.values.real >= -1e-12)

    def test_non_nested_schedule_matches_direct_calls(self):
        mu = circle_mix()
        schedule = FolnerSchedule(CIRCLE.ring, (box(3), box(1), box(5)))
        series = run_series("energy", mu, schedule)
        direct = [energy(mu, F) for F in schedule.sets]
        assert list(series.values.real) == direct

    def test_a_schedule_on_an_equal_ring_is_not_rebuilt_from_its_sets(self):
        # a torus model built without a ring is on get_ring's ring, so a
        # schedule of get_ring("Z") is on the model's own ring object
        model = TorusModel(1)
        assert model.ring is get_ring("Z")
        own_schedule = model.ring.default_schedule(100_000)
        own = run_series("char", dirac(model, 1), own_schedule)
        start = time.perf_counter()
        schedule = get_ring("Z").default_schedule(100_000)
        same = run_series("char", dirac(model, 1), schedule)
        assert time.perf_counter() - start < 1.0
        assert same.values.tobytes() == own.values.tobytes()
        assert (schedule.weighted_cardinalities.tobytes()
                == own_schedule.weighted_cardinalities.tobytes())

    def test_a_schedule_on_another_ring_is_refused(self):
        # C4's irreps are not the integers 0..3 of the circle's dual
        mu = dirac(get_model("Z"), 1j)
        with pytest.raises(InvalidInputError, match="FiniteDualRing finite:C4.*LatticeRing Z>"):
            run_series("char", mu, get_ring("finite:C4").default_schedule(2))
        with pytest.raises(InvalidInputError, match="is not <LatticeRing Z>"):
            run_series("char", mu, LatticeRing(1).default_schedule(2))

    @pytest.mark.parametrize("kind", ["atom", "energy", "char"])
    @pytest.mark.parametrize("model, steps", [(CIRCLE, 100), (SU2, 40)], ids=["circle", "su2"])
    def test_nested_schedule_matches_direct_calls(self, kind, model, steps):
        # every step of a nested series is the single-set average of its set, to the bit
        rng = np.random.default_rng(17)
        points = [haar_sample(model, rng) for _ in range(3)]
        mu = MeasureSpec(model, atoms=[(model.identity(), 0.3), (points[0], 0.2),
                                       (points[1], 0.1)],
                         density={model.ring.trivial: [[0.4]]})
        schedule = model.ring.default_schedule(steps)
        at = points[0] if kind == "atom" else None
        series = run_series(kind, mu, schedule, at=at)
        if kind == "atom":
            direct = [average("atom", mu, F, at=at) for F in schedule.sets]
        elif kind == "energy":
            direct = [complex(energy(mu, F)) for F in schedule.sets]
        else:
            direct = [average("char", mu, F) for F in schedule.sets]
        assert [complex(v) for v in series.values] == direct

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
        st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
        st.integers(1, 2**63 - 1) | st.integers(2**53 - 4, 2**53 + 2**12)), min_size=1))
    def test_values_are_python_complex_over_int(self, rows):
        # every value is the quotient complex(s) / int(w) of its step, to the
        # bit: signed zeros, nan and infinite parts, and w above 2**53 included
        sums = np.array([complex(re, im) for re, im, _ in rows])
        wcards = np.array([w for _, _, w in rows], dtype=np.int64)
        schedule = SimpleNamespace(weighted_cardinalities=wcards)
        with mock.patch.object(wiener, "reduce_along", return_value=sums):
            values = run_series("char", haar(CIRCLE), schedule).values
        for (re, im, w), value in zip(rows, values.tolist()):
            quotient = complex(re, im) / w
            assert struct.pack("dd", value.real, value.imag) == struct.pack(
                "dd", quotient.real, quotient.imag)

    def test_energy_of_many_atom_pairs_is_refused_before_the_first_pair(self):
        # 1000 circle atoms pass the distinct check, but the energy's 499,500
        # pairs at 401 labels would take about 20 s
        model = TorusModel(1)
        mu = MeasureSpec(model, [(cmath.exp(1j * k / 200), 1.0) for k in range(1000)])
        start = time.perf_counter()
        with mock.patch.object(TorusModel, "multiply", side_effect=AssertionError("multiplied")):
            with pytest.raises(InvalidInputError,
                               match="energy average's 499500 character columns.*above the limit"):
                run_series("energy", mu, model.ring.default_schedule(200))
        assert time.perf_counter() - start < 1.0

    def test_long_series_memory_stays_linear(self):
        # the schedule keeps one label table, not one stored set per step
        tracemalloc.start()
        try:
            schedule = CIRCLE.ring.default_schedule(1000)
            series = run_series("energy", haar(CIRCLE), schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series.values) == 1000
        assert peak < 8 * 2**20

    def test_su2_energy_memory_stays_below_a_pair_table(self):
        # a labels x atoms^2 complex table would take about 128 MB here
        rng = np.random.default_rng(53)
        atoms = [(haar_sample(SU2, rng), float(w)) for w in rng.uniform(0.01, 0.02, 200)]
        mu = MeasureSpec(SU2, atoms=atoms)
        schedule = SU2.ring.default_schedule(200)
        tracemalloc.start()
        try:
            series = run_series("energy", mu, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.values.imag.tolist() == [0.0] * 200
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("kind", ["atom", "energy", "char"])
    def test_su2_series_match_the_weyl_formula(self, kind):
        # atoms plus a density c * I at two labels: every term is a sum of
        # Weyl characters sin((n+1)t/2)/sin(t/2), written out here with numpy
        rng = np.random.default_rng(59)
        q = rng.normal(size=(6, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        w = rng.uniform(0.05, 0.2, size=6)
        c = {0: 0.4, 3: -0.02}
        mu = MeasureSpec(SU2, atoms=[(SU2.element(complex(*v[:2]), complex(*v[2:])), wi)
                                     for v, wi in zip(q, w)],
                         density={a: v * np.eye(a + 1) for a, v in c.items()})
        n = np.arange(81)[:, None]

        def chi(cos_half):
            half = np.arccos(np.clip(cos_half, -1, 1))
            at_identity = np.sin(half) < 1e-7  # the limit n + 1; no atom sits near -1
            s = np.where(at_identity, 1.0, np.sin(half))
            return np.where(at_identity, n + 1.0, np.sin((n + 1) * half) / s)

        cn = np.array([c.get(a, 0.0) for a in range(81)])
        d = n[:, 0] + 1.0
        if kind == "atom":
            terms = d * ((w * chi(q @ q[2])).sum(axis=1) + cn * chi(q[2, :1])[:, 0])
        elif kind == "energy":
            pairs = np.stack([chi(col) for col in (q @ q.T)], axis=1)
            terms = d * ((w[:, None] * w * pairs).sum(axis=(1, 2))
                         + 2 * cn * (w * chi(q[:, 0])).sum(axis=1) + cn * cn * d)
        else:
            terms = d * ((w * chi(q[:, 0])).sum(axis=1) + cn * d)
        expected = np.cumsum(terms)[1:] / np.cumsum(d * d)[1:]
        at = mu.atoms[2][0] if kind == "atom" else None
        series = run_series(kind, mu, SU2.ring.default_schedule(80), at=at)
        assert np.max(np.abs(series.values - expected)) < 1e-10

    def test_targets_from_atom_oracle(self):
        z = CIRCLE.element(cmath.exp(0.9j))
        mu = MeasureSpec(CIRCLE, atoms=[(z, 0.3), (CIRCLE.identity(), 0.7)])
        schedule = CIRCLE.ring.default_schedule(10)
        assert run_series("atom", mu, schedule, at=z).target == 0.3
        assert run_series("energy", mu, schedule).target == pytest.approx(0.09 + 0.49)
        assert run_series("char", mu, schedule).target == 0.7

    def test_oracle_agreement_at_final_step(self):
        z1 = CIRCLE.element(cmath.exp(0.9j))
        z2 = CIRCLE.element(cmath.exp(2.3j))
        mu = MeasureSpec(CIRCLE, atoms=[(z1, 0.3), (z2, 0.7)])
        schedule = CIRCLE.ring.default_schedule(300)
        series = run_series("energy", mu, schedule)
        assert abs(series.final.real - series.target) < 0.01
        atom_series = run_series("atom", mu, schedule, at=z1)
        assert abs(atom_series.final - atom_series.target) < 0.01

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            run_series("mean", haar(CIRCLE), CIRCLE.ring.default_schedule(3))
        with pytest.raises(InvalidInputError):
            run_series("atom", haar(CIRCLE), CIRCLE.ring.default_schedule(3))


class TestContinuityTest:
    """Wiener's criterion read off the tail of the energy series: the energy
    averages tend to the sum of the squared atom weights, so they decay to 0
    exactly when the measure is continuous."""

    def tail(self, mu, schedule):
        return run_series("energy", mu, schedule).values.real[-5:]

    def test_haar_is_continuous(self):
        tail = self.tail(haar(CIRCLE), CIRCLE.ring.default_schedule(200))
        assert np.all(tail < 1e-2) and np.all(np.diff(tail) <= 0)

    def test_point_mass_is_atomic_with_unit_mass(self):
        mu = dirac(SU2, from_axis_angle((1, 0, 0), 0.8))
        tail = self.tail(mu, SU2.ring.default_schedule(30))
        assert np.ptp(tail) <= 1e-3 and abs(tail[-1] - 1.0) < 1e-9

    def test_mix_is_atomic_with_quarter_mass(self):
        tail = self.tail(circle_mix(), CIRCLE.ring.default_schedule(200))
        assert np.ptp(tail) <= 1e-2 and abs(tail[-1] - 0.25) < 0.002


class TestAverageProperties:
    def test_linearity_in_the_measure(self):
        mu = MeasureSpec(CIRCLE, atoms=[(CIRCLE.element(1j), 1.0)], density={2: [[0.4]]})
        nu = MeasureSpec(CIRCLE, atoms=[(CIRCLE.element(-1j), 1.0)], density={0: [[0.5]]})
        both = combine(CIRCLE, mu, nu, 0.6, 1.7)
        y = CIRCLE.element(cmath.exp(0.3j))
        for F in (box(1), box(6)):
            lhs = average("atom", both, F, at=y)
            rhs = 0.6 * average("atom", mu, F, at=y) + 1.7 * average("atom", nu, F, at=y)
            assert abs(lhs - rhs) < 1e-12

    def test_mass_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            atoms = []
            while len(atoms) < 3:
                g = haar_sample(CIRCLE, rng)
                if all(CIRCLE.distance(g, h) > 1e-6 for h, _ in atoms):
                    atoms.append((g, float(rng.uniform(0.1, 1.5))))
            mu = MeasureSpec(CIRCLE, atoms=atoms, density={0: [[rng.uniform(0.0, 1.0)]]})
            y = haar_sample(CIRCLE, rng)
            N = int(rng.integers(1, 40))
            assert abs(average("atom", mu, box(N), at=y)) <= total_mass(mu) + 1e-12

    def test_energy_equals_weighted_sum_of_fourier_norms(self):
        rng = np.random.default_rng(4)
        for model, F in [(CIRCLE, box(8)), (SU2, frozenset(range(4))),
                         (S3, frozenset(range(3)))]:
            for _ in range(10):
                atoms = [(haar_sample(model, rng), float(rng.uniform(0.2, 1.0)))]
                density = {model.ring.trivial: [[float(rng.uniform(0.1, 0.8))]]}
                mu = MeasureSpec(model, atoms=atoms, density=density)
                assert abs(energy(mu, F) - energy_by_definition(mu, F)) < 1e-10
