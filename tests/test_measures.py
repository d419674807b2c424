"""Measures as atoms + Peter-Weyl densities: coefficients, construction, JSON."""

import cmath

import numpy as np
import pytest

from helpers import density_value, haar_sample
from peterweyl import (
    InvalidInputError,
    LatticeRing,
    MeasureSpec,
    SU2Model,
    TorusModel,
    atom_list,
    atom_weight_at,
    dirac,
    fourier_matrix,
    get_model,
    get_ring,
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
        with pytest.raises(InvalidInputError, match="trivial density entry must be real"):
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


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for model, labels in MODEL_LABEL_SETS:
            mu = random_measure(model, rng, labels)
            back = measure_from_json(measure_to_json(mu))
            assert back.model is mu.model
            for label in labels:
                assert np.max(np.abs(fourier_matrix(back, label) - fourier_matrix(mu, label))) < 1e-12

    def test_round_trip_of_models_built_without_get_ring(self):
        # a model built without a ring is on get_ring's ring, and a lattice
        # ring built by hand is named by an id that get_ring reads
        models = [TorusModel(1), TorusModel(2), TorusModel(3), SU2Model()]
        for model in models:
            assert get_ring(model.ring.name) is model.ring
        assert [get_ring(LatticeRing(d).name).rank for d in (1, 2, 3)] == [1, 2, 3]
        models.append(TorusModel(2, ring=LatticeRing(2)))
        for model in models:
            if isinstance(model, SU2Model):
                atoms = [(model.element(1j, 0), 0.25), (model.element(0, -1), 0.5)]
                density = {0: [[0.125]], 2: np.diag([0.5j, 0, -0.25])}
            else:
                coords = [(1j, -1, 1)[:model.rank], (-1, 1j, -1j)[:model.rank]]
                atoms = [(model.element(*z), w) for z, w in zip(coords, (0.25, 0.5))]
                zero = (0,) * model.rank if model.rank > 1 else 0
                unit = tuple(range(1, model.rank + 1)) if model.rank > 1 else 3
                density = {zero: [[0.125]], unit: [[0.5 - 0.25j]]}
            mu = MeasureSpec(model, atoms=atoms, density=density)
            back = measure_from_json(measure_to_json(mu))
            assert back.model.ring is get_ring(model.ring.name)
            assert back.atoms == mu.atoms
            assert back.density.keys() == mu.density.keys()
            assert all(np.array_equal(back.density[a], D) for a, D in mu.density.items())

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
