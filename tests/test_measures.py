"""Measures as atoms + Peter-Weyl densities: coefficients, convolution, conjugation."""

import cmath

import numpy as np
import pytest

from helpers import density_value, energy, haar_sample
from peterweyl import (
    ConsistencyError,
    InvalidInputError,
    MeasureSpec,
    atom_list,
    atom_weight_at,
    conjugate_measure,
    convolve,
    dirac,
    fourier_matrix,
    get_model,
    haar,
    measure_from_json,
    measure_to_json,
    total_mass,
)

CIRCLE = get_model("Z")
SU2 = get_model("SU2")
S3 = get_model("finite:S3")


def distinct_atoms(model, rng, count, low=0.1, high=2.0):
    atoms = []
    while len(atoms) < count:
        g = haar_sample(model, rng)
        if all(model.distance(g, h) > 1e-6 for h, _ in atoms):
            atoms.append((g, float(rng.uniform(low, high))))
    return atoms


def random_measure(model, rng, labels, max_atoms=3):
    atoms = distinct_atoms(model, rng, int(rng.integers(1, max_atoms + 1)))
    density = {}
    for label in labels:
        if rng.random() < 0.7:
            d = model.ring.dim(label)
            density[label] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    triv = model.ring.trivial
    if triv in density:
        density[triv] = np.full((1, 1), float(rng.uniform(0.1, 1.0)))
    return MeasureSpec(model, atoms=atoms, density=density)


MODEL_LABEL_SETS = [
    (CIRCLE, [0, 1, -1, 2, -2, 3]),
    (SU2, [0, 1, 2, 3]),
    (S3, [0, 1, 2]),
]


class TestFourierMatrix:
    def test_point_mass_gives_irrep_matrix(self):
        rng = np.random.default_rng(1)
        for model, labels in MODEL_LABEL_SETS:
            x = haar_sample(model, rng)
            mu = dirac(model, x)
            for label in labels:
                assert np.allclose(
                    fourier_matrix(mu, label), model.irrep_matrix(label, x), atol=0
                )

    def test_haar_kills_nontrivial_coefficients(self):
        for model, labels in MODEL_LABEL_SETS:
            mu = haar(model)
            triv = model.ring.trivial
            assert np.allclose(fourier_matrix(mu, triv), [[1.0]], atol=0)
            for label in labels:
                if label != triv:
                    assert np.all(fourier_matrix(mu, label) == 0)

    def test_point_mass_at_identity_gives_identity(self):
        for model, labels in MODEL_LABEL_SETS:
            mu = dirac(model, model.identity())
            for label in labels:
                d = model.ring.dim(label)
                assert np.allclose(fourier_matrix(mu, label), np.eye(d), atol=1e-14)

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidInputError):
            fourier_matrix(haar(SU2), -1)


class TestConstruction:
    def test_rejects_nonpositive_weights(self):
        for w in (0.0, -0.5):
            with pytest.raises(InvalidInputError):
                MeasureSpec(CIRCLE, atoms=[(CIRCLE.identity(), w)])

    def test_rejects_duplicate_atoms(self):
        z = CIRCLE.element(cmath.exp(1j))
        with pytest.raises(InvalidInputError):
            MeasureSpec(CIRCLE, atoms=[(z, 1.0), (z, 0.5)])

    def test_rejects_bad_density_shapes(self):
        with pytest.raises(InvalidInputError):
            MeasureSpec(SU2, density={1: [[1.0]]})  # dim 2 needs 2x2
        with pytest.raises(InvalidInputError):
            MeasureSpec(SU2, density={-3: [[1.0]]})

    def test_rejects_imaginary_trivial_density(self):
        with pytest.raises(ConsistencyError):
            MeasureSpec(CIRCLE, density={0: [[1j]]})

    def test_mass_examples(self):
        assert total_mass(haar(CIRCLE)) == 1.0
        mix = MeasureSpec(CIRCLE, atoms=[(CIRCLE.identity(), 0.5)], density={0: [[0.5]]})
        assert abs(total_mass(mix) - 1.0) < 1e-15
        assert total_mass(dirac(SU2, SU2.identity(), weight=2.0)) == 2.0

    def test_atom_oracle_accessors(self):
        x = CIRCLE.element(1j)
        mu = MeasureSpec(CIRCLE, atoms=[(x, 0.3), (CIRCLE.identity(), 0.7)])
        assert atom_list(mu) == ((x, 0.3), (CIRCLE.identity(), 0.7))
        assert atom_weight_at(mu, x) == 0.3
        assert atom_weight_at(mu, CIRCLE.element(-1 + 0j)) == 0.0


class TestDensityEval:
    """The density coefficients D(a) stand for the function
    sum_a dim(a) tr(D(a) U^a(g)^H) against Haar."""

    def test_haar_density_is_one(self):
        rng = np.random.default_rng(2)
        for model, _ in MODEL_LABEL_SETS:
            mu = haar(model)
            for _ in range(10):
                assert abs(density_value(mu, haar_sample(model, rng)) - 1.0) < 1e-12

    def test_circle_cosine_density(self):
        mu = MeasureSpec(CIRCLE, density={1: [[0.5]], -1: [[0.5]]})
        for theta in (0.0, 0.4, 2.0, -1.1):
            z = CIRCLE.element(cmath.exp(1j * theta))
            assert abs(density_value(mu, z) - np.cos(theta)) < 1e-12

    def test_zero_density(self):
        mu = MeasureSpec(CIRCLE)
        assert density_value(mu, CIRCLE.identity()) == 0.0


class TestConvolve:
    def test_point_masses_convolve_to_product_point(self):
        rng = np.random.default_rng(5)
        for model, labels in MODEL_LABEL_SETS:
            x, y = (haar_sample(model, rng) for _ in range(2))
            conv = convolve(dirac(model, x, 0.5), dirac(model, y, 3.0))
            assert len(conv.atoms) == 1
            assert not conv.density
            g, w = conv.atoms[0]
            assert model.distance(g, model.multiply(x, y)) == 0
            assert w == 1.5

    def test_identity_point_mass_is_neutral(self):
        rng = np.random.default_rng(6)
        for model, labels in MODEL_LABEL_SETS:
            mu = random_measure(model, rng, labels)
            conv = convolve(mu, dirac(model, model.identity()))
            for label in labels:
                assert np.allclose(
                    fourier_matrix(conv, label), fourier_matrix(mu, label), atol=1e-12
                )

    def test_haar_absorbs(self):
        rng = np.random.default_rng(7)
        for model, labels in MODEL_LABEL_SETS:
            mu = random_measure(model, rng, labels)
            conv = convolve(haar(model), mu)
            triv = model.ring.trivial
            assert abs(fourier_matrix(conv, triv)[0, 0] - total_mass(mu)) < 1e-12
            for label in labels:
                if label != triv:
                    assert np.max(np.abs(fourier_matrix(conv, label))) < 1e-12

    def test_coefficient_homomorphism(self):
        rng = np.random.default_rng(8)
        for model, labels in MODEL_LABEL_SETS:
            for _ in range(20):
                mu = random_measure(model, rng, labels)
                nu = random_measure(model, rng, labels)
                conv = convolve(mu, nu)
                for label in labels:
                    lhs = fourier_matrix(conv, label)
                    rhs = fourier_matrix(mu, label) @ fourier_matrix(nu, label)
                    assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_atomic_convolution_matches_double_sum(self):
        rng = np.random.default_rng(9)
        mu = MeasureSpec(CIRCLE, atoms=distinct_atoms(CIRCLE, rng, 17))
        nu = MeasureSpec(CIRCLE, atoms=distinct_atoms(CIRCLE, rng, 20))
        conv = convolve(mu, nu)
        oracle_atoms = [
            (CIRCLE.multiply(x, y), wx * wy) for x, wx in mu.atoms for y, wy in nu.atoms
        ]
        oracle = MeasureSpec(CIRCLE, atoms=oracle_atoms)  # generic: no collisions
        for n in range(-6, 7):
            assert np.max(np.abs(fourier_matrix(conv, n) - fourier_matrix(oracle, n))) < 1e-12

    def test_colliding_products_merge(self):
        one = CIRCLE.identity()
        minus = CIRCLE.element(-1 + 0j)
        mu = MeasureSpec(CIRCLE, atoms=[(one, 1.0), (minus, 1.0)])
        conv = convolve(mu, mu)
        assert sorted(w for _, w in conv.atoms) == [2.0, 2.0]

    def test_model_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            convolve(haar(CIRCLE), haar(SU2))

    def test_requested_support_is_honored(self):
        mu = dirac(CIRCLE, CIRCLE.element(1j))
        conv = convolve(mu, haar(CIRCLE), support=[5, -5])
        assert set(conv.density) == {0, 5, -5}
        assert conv.meta["exact_support_bound"] == [0, 5, -5]

    def test_continuity_preserved_through_energy(self):
        # density-only measure convolved with an atomic one stays continuous:
        # the energy average along boxes keeps decaying toward zero
        density_only = MeasureSpec(
            CIRCLE, density={0: [[1.0]], 1: [[0.5]], -1: [[0.5]]}
        )
        atomic = MeasureSpec(
            CIRCLE,
            atoms=[(CIRCLE.element(1j), 0.7), (CIRCLE.element(-1 + 0j), 0.5)],
        )
        conv = convolve(density_only, atomic)
        small = energy(conv, frozenset(range(-10, 11)))
        tiny = energy(conv, frozenset(range(-100, 101)))
        assert tiny < small
        assert tiny < 0.05


class TestConjugate:
    def test_point_mass_moves_to_inverse(self):
        rng = np.random.default_rng(10)
        for model, _ in MODEL_LABEL_SETS:
            x = haar_sample(model, rng)
            bar = conjugate_measure(dirac(model, x, 0.4))
            (g, w), = bar.atoms
            assert model.distance(g, model.inverse(x)) == 0
            assert w == 0.4

    def test_haar_is_inversion_invariant(self):
        for model, labels in MODEL_LABEL_SETS:
            mu = haar(model)
            bar = conjugate_measure(mu)
            for label in labels:
                assert np.allclose(
                    fourier_matrix(bar, label), fourier_matrix(mu, label), atol=0
                )

    def test_adjoint_identity_and_involution(self):
        rng = np.random.default_rng(11)
        for model, labels in MODEL_LABEL_SETS:
            mu = random_measure(model, rng, labels)
            bar = conjugate_measure(mu)
            double = conjugate_measure(bar)
            for label in labels:
                m = fourier_matrix(mu, label)
                assert np.max(np.abs(fourier_matrix(bar, label) - m.conj().T)) < 1e-12
                assert np.max(np.abs(fourier_matrix(double, label) - m)) < 1e-12

    def test_positive_measures_have_mass_contractive_coefficients(self):
        # states/positive functionals contract unitaries: ||mu_hat(a)||_op <= mass
        rng = np.random.default_rng(14)
        for model, labels in MODEL_LABEL_SETS:
            for _ in range(10):
                atoms = distinct_atoms(model, rng, 2)
                mu = MeasureSpec(
                    model,
                    atoms=atoms,
                    density={model.ring.trivial: [[float(rng.uniform(0.0, 1.0))]]},
                )
                mass = total_mass(mu)
                for label in labels:
                    norm = np.linalg.norm(fourier_matrix(mu, label), 2)
                    assert norm <= mass + 1e-10

    def test_energy_identity(self):
        # sum_ij |mu(u_ij)|^2 = trace(fourier(mu) @ fourier(conj mu))
        rng = np.random.default_rng(12)
        for model, labels in MODEL_LABEL_SETS:
            for _ in range(10):
                mu = random_measure(model, rng, labels)
                bar = conjugate_measure(mu)
                for label in labels:
                    m = fourier_matrix(mu, label)
                    lhs = float(np.sum(np.abs(m) ** 2))
                    rhs = complex(np.trace(m @ fourier_matrix(bar, label)))
                    assert abs(rhs.imag) < 1e-10
                    assert abs(lhs - rhs.real) < 1e-10


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for model, labels in MODEL_LABEL_SETS:
            mu = random_measure(model, rng, labels)
            back = measure_from_json(measure_to_json(mu))
            assert back.model is mu.model
            for label in labels:
                assert np.max(np.abs(fourier_matrix(back, label) - fourier_matrix(mu, label))) < 1e-12

    def test_canonical_form_is_deterministic(self):
        mu = MeasureSpec(
            CIRCLE,
            atoms=[(CIRCLE.element(1j), 0.25)],
            density={-2: [[0.1]], 0: [[1.0]], 1: [[0.3]]},
        )
        doc = measure_to_json(mu)
        assert [entry["irrep"] for entry in doc["density"]] == ["0", "1", "-2"]
        assert doc == measure_to_json(mu)

    def test_real_entries_accepted(self):
        doc = {
            "group": "Z",
            "atoms": [{"element": "z:1,0", "weight": 0.5}],
            "density": [{"irrep": "0", "matrix": [[0.5]]}],
        }
        mu = measure_from_json(doc)
        assert abs(total_mass(mu) - 1.0) < 1e-15

    def test_validation_errors(self):
        bad_specs = [
            {},  # missing group
            {"group": "nope"},
            {"group": "dualgroup:Z^d:1"},  # no point model
            {"group": "Z", "atoms": [{"weight": 1.0}]},  # missing element
            {"group": "Z", "atoms": [{"element": "z:1,0"}]},  # missing weight
            {"group": "Z", "density": [{"irrep": "0"}]},  # missing matrix
            {"group": "Z", "density": [{"irrep": "x", "matrix": [[1]]}]},
            {"group": "SU2", "density": [{"irrep": "1", "matrix": [[1]]}]},  # bad shape
            {"group": "Z", "density": [{"irrep": "0", "matrix": [["a"]]}]},
            {
                "group": "Z",
                "density": [
                    {"irrep": "0", "matrix": [[1]]},
                    {"irrep": "0", "matrix": [[2]]},
                ],
            },
        ]
        for doc in bad_specs:
            with pytest.raises(InvalidInputError):
                measure_from_json(doc)
