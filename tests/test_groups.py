"""Group models: unitarity, homomorphism, characters, Schur orthogonality."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peterweyl import InvalidInputError, MeasureSpec, get_model, get_ring, resolve, run_series
from peterweyl import groups

CIRCLE = get_model("Z")
TORUS2 = get_model("Z^d:2")
SU2 = get_model("SU2")
S3 = get_model("finite:S3")
D4 = get_model("finite:D4")
Q8 = get_model("finite:Q8")
C7 = get_model("finite:C7")

ALL_MODELS = [CIRCLE, TORUS2, SU2, S3, D4, Q8, C7]


def random_element(model, rng):
    return model.haar_sample(rng)


def random_label(model, rng):
    if model is SU2:
        return int(rng.integers(0, 7))
    if model is CIRCLE:
        return int(rng.integers(-6, 7))
    if model is TORUS2:
        return (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
    return int(rng.integers(0, len(model.ring.full_dual())))


class TestEvaluation:
    def test_identity_maps_to_identity_matrix(self):
        for model in ALL_MODELS:
            e = model.identity()
            for label in model.enumerate_dual(4):
                d = model.ring.dim(label)
                assert np.allclose(model.irrep_matrix(label, e), np.eye(d), atol=1e-12)

    def test_circle_characters(self):
        z = CIRCLE.element(cmath.exp(0.7j))
        for n in range(-5, 6):
            mat = CIRCLE.irrep_matrix(n, z)
            assert mat.shape == (1, 1)
            assert abs(mat[0, 0] - z**n) < 1e-14
            assert abs(CIRCLE.character_value(n, z) - z**n) < 1e-14

    def test_su2_defining_representation_is_itself(self):
        g = SU2.element(complex(0.5, 0.1), complex(-0.3, 0.8))
        assert np.allclose(SU2.irrep_matrix(1, g), SU2.defining_matrix(g), atol=0)

    @pytest.mark.parametrize("n", range(6))
    def test_su2_character_at_rotation_angle(self, n):
        theta = 0.7
        g = SU2.from_axis_angle((0, 0, 1), theta)
        expected = sum(cmath.exp(1j * (n / 2 - k) * theta) for k in range(n + 1))
        assert abs(SU2.character_value(n, g) - expected) < 1e-12

    def test_character_at_identity_is_dimension(self):
        # counit value on characters
        for model in ALL_MODELS:
            for label in model.enumerate_dual(5):
                value = model.character_value(label, model.identity())
                assert abs(value - model.ring.dim(label)) < 1e-12

    def test_character_bound(self):
        rng = np.random.default_rng(5)
        for model in ALL_MODELS:
            for _ in range(50):
                g = random_element(model, rng)
                label = random_label(model, rng)
                assert abs(model.character_value(label, g)) <= model.ring.dim(label) + 1e-10

    @pytest.mark.parametrize("model,labels", [
        (TORUS2, TORUS2.enumerate_dual(81)),
        # the symmetric-power matrices are themselves off by up to 2e-8 at
        # n = 60, so the 1e-12 comparison stops where they still hold it
        (SU2, list(range(25))),
        (S3, S3.enumerate_dual(10)),
        (D4, D4.enumerate_dual(10)),
        (Q8, Q8.enumerate_dual(10)),
        (get_model("finite:C5"), list(range(5))),
    ], ids=["torus2", "SU2", "S3", "D4", "Q8", "C5"])
    def test_batched_characters_are_irrep_traces(self, model, labels):
        rng = np.random.default_rng(37)
        elements = [model.haar_sample(rng) for _ in range(12)]
        if isinstance(elements[0], int):
            elements = list(range(model.order))
        table = model.characters(labels, elements)
        assert table.shape == (len(labels), len(elements))
        traces = [[np.trace(model.irrep_matrix(a, g)) for g in elements] for a in labels]
        assert np.max(np.abs(table - np.array(traces))) < 1e-12
        assert model.characters(labels[::-1], elements[:3]).tolist() == table[::-1, :3].tolist()

    @pytest.mark.parametrize("model", [CIRCLE, TORUS2, SU2, D4], ids=lambda m: m.name)
    def test_character_sums_do_not_depend_on_the_chunking(self, model, monkeypatch):
        rng = np.random.default_rng(47)
        labels = model.enumerate_dual(40)
        weighted = [(float(w), model.haar_sample(rng)) for w in rng.uniform(-1, 1, 30)]
        sums = model.character_sums(labels, weighted)
        table = model.characters(labels, [g for _, g in weighted])
        assert np.max(np.abs(sums - table @ [w for w, _ in weighted])) < 1e-12
        monkeypatch.setattr(groups, "_TABLE_ENTRIES", 7)  # tables of one element
        assert model.character_sums(labels, iter(weighted)).tolist() == sums.tolist()
        assert model.character_sums(labels[5:9], weighted).tolist() == sums[5:9].tolist()

    def test_su2_characters_follow_the_weyl_formula_to_high_spin(self):
        rng = np.random.default_rng(43)
        elements = [SU2.haar_sample(rng) for _ in range(20)]
        n = np.arange(2001)
        table = SU2.characters(n.tolist(), elements)
        half = np.arccos([g[0].real for g in elements])
        weyl = np.sin((n[:, None] + 1) * half) / np.sin(half)
        assert np.all(np.abs(table - weyl) <= 1e-9 * (n[:, None] + 1))

    def test_su2_atom_series_stays_accurate_at_high_spin(self):
        # delta_g + Haar at a generic h != g: the atom series tends to mu{h} = 0
        g = SU2.element(0.6, 0.8)
        h = SU2.element(0.5 + 0.5j, 0.5 + 0.5j)
        mu = MeasureSpec(SU2, atoms=[(g, 1.0)], density={0: [[1.0]]})
        series = run_series("atom", mu, SU2.ring.default_schedule(240), at=h)
        assert abs(series.final) < 0.05

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidInputError):
            SU2.characters([3, -2], [SU2.identity()])
        with pytest.raises(InvalidInputError):
            SU2.irrep_matrix(-2, SU2.identity())
        with pytest.raises(InvalidInputError):
            S3.irrep_matrix(5, S3.identity())


class TestModelInvariants:
    """Unitarity and homomorphism on >= 1e3 random pairs per model."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_unitary_homomorphism_pairs(self, model):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            g = random_element(model, rng)
            h = random_element(model, rng)
            label = random_label(model, rng)
            d = model.ring.dim(label)
            ug = model.irrep_matrix(label, g)
            uh = model.irrep_matrix(label, h)
            assert np.max(np.abs(ug @ ug.conj().T - np.eye(d))) < 1e-10
            ugh = model.irrep_matrix(label, model.multiply(g, h))
            assert np.max(np.abs(ug @ uh - ugh)) < 1e-10

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_inverse_multiplies_to_identity(self, model):
        rng = np.random.default_rng(23)
        e = model.identity()
        for _ in range(200):
            g = random_element(model, rng)
            assert model.distance(model.multiply(g, model.inverse(g)), e) < 1e-12
            assert model.distance(model.multiply(model.inverse(g), g), e) < 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_character_multiplicativity(self, model):
        rng = np.random.default_rng(29)
        ring = model.ring
        for _ in range(150):
            g = random_element(model, rng)
            a = random_label(model, rng)
            b = random_label(model, rng)
            total = sum(
                n * model.character_value(c, g) for c, n in ring.fuse(a, b).items()
            )
            product = model.character_value(a, g) * model.character_value(b, g)
            assert abs(total - product) < 1e-9

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_conjugate_character(self, model):
        rng = np.random.default_rng(31)
        ring = model.ring
        for _ in range(150):
            g = random_element(model, rng)
            a = random_label(model, rng)
            lhs = model.character_value(a, g).conjugate()
            assert abs(lhs - model.character_value(ring.conj(a), g)) < 1e-10
            if ring.conj(a) == a:
                # self-conjugate labels: same identity read through inversion
                inv_val = model.character_value(a, model.inverse(g))
                assert abs(inv_val - lhs) < 1e-10


def test_schur_orthogonality_monte_carlo():
    """Sample means of u^a_ij conj(u^b_kl) over 1e5 Haar points sit within
    5 standard errors of the orthogonality values delta/d."""
    rng = np.random.default_rng(123)
    n_samples = 100_000
    sum_11 = np.zeros((2, 2, 2, 2), dtype=complex)
    sq_11 = np.zeros((2, 2, 2, 2))
    sum_12 = np.zeros((2, 2, 3, 3), dtype=complex)
    sq_12 = np.zeros((2, 2, 3, 3))
    for _ in range(n_samples):
        g = SU2.haar_sample(rng)
        u1 = SU2.irrep_matrix(1, g)
        u2 = SU2.irrep_matrix(2, g)
        p11 = np.einsum("ij,kl->ijkl", u1, u1.conj())
        p12 = np.einsum("ij,kl->ijkl", u1, u2.conj())
        sum_11 += p11
        sq_11 += np.abs(p11) ** 2
        sum_12 += p12
        sq_12 += np.abs(p12) ** 2
    mean_11 = sum_11 / n_samples
    mean_12 = sum_12 / n_samples
    se_11 = np.sqrt(np.maximum(sq_11 / n_samples - np.abs(mean_11) ** 2, 0) / n_samples)
    se_12 = np.sqrt(np.maximum(sq_12 / n_samples - np.abs(mean_12) ** 2, 0) / n_samples)
    eye2 = np.eye(2)
    target = np.einsum("ik,jl->ijkl", eye2, eye2) / 2
    assert np.all(np.abs(mean_11 - target) <= 5 * se_11 + 1e-12)
    assert np.all(np.abs(mean_12) <= 5 * se_12 + 1e-12)


class TestSampling:
    def test_haar_deterministic_per_seed(self):
        for model in ALL_MODELS:
            a = [model.haar_sample(np.random.default_rng(42)) for _ in range(3)]
            b = [model.haar_sample(np.random.default_rng(42)) for _ in range(3)]
            assert all(model.distance(x, y) == 0 for x, y in zip(a, b))

    def test_samples_are_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = CIRCLE.haar_sample(rng)
            assert abs(abs(z) - 1) < 1e-12
            a, b = SU2.haar_sample(rng)
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1) < 1e-12


class TestLiteralsAndRegistry:
    def test_circle_literal_round_trip(self):
        z = CIRCLE.parse_element("z:0.6,0.8")
        assert abs(z - complex(0.6, 0.8)) < 1e-12
        assert CIRCLE.parse_element(CIRCLE.format_element(z)) == z

    def test_circle_literal_renormalizes(self):
        z = CIRCLE.parse_element("z:3.0,4.0")
        assert abs(abs(z) - 1) < 1e-14

    def test_torus_literals(self):
        g = TORUS2.parse_element("z:1,0;0,1")
        assert TORUS2.distance(g, (1 + 0j, 1j)) < 1e-14
        assert TORUS2.parse_element(["z:1,0", "z:0,1"]) == g
        assert TORUS2.parse_element(TORUS2.format_element(g)) == g

    def test_su2_literal_round_trip_and_renormalize(self):
        g = SU2.parse_element("q:2,0,0,0")
        assert g == (1 + 0j, 0j)
        h = SU2.parse_element("q:0.5,0.5,0.5,0.5")
        assert abs(abs(h[0]) ** 2 + abs(h[1]) ** 2 - 1) < 1e-14
        assert SU2.parse_element(SU2.format_element(h)) == h

    def test_finite_literals(self):
        assert S3.parse_element("g:4") == 4
        assert S3.format_element(4) == "g:4"
        with pytest.raises(InvalidInputError):
            S3.parse_element("g:9")

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_finite_elements_are_not_bools(self, flag):
        for check in (S3.parse_element, S3.inverse, lambda g: S3.multiply(g, 0),
                      lambda g: S3.characters([0], [g])):
            with pytest.raises(InvalidInputError):
                check(flag)

    @settings(max_examples=300, deadline=None)
    @given(
        ring_id=st.sampled_from(["Z", "Z^d:2", "SU2", "finite:S3", "finite:C5"]),
        literal=st.recursive(
            st.integers() | st.booleans() | st.floats() | st.text(max_size=12)
            | st.sampled_from(["z:1,0", "z:0.6,0.8;0,1", "z:1e308,1e308", "z:nan,0", "z:1e-300,0",
                               "z:1.7e308,1.7e308", "q:0.5,0.5,0.5,0.5", "q:1.7e308,0,1.7e308,0",
                               "q:1e308,0,1e308,0", "q:inf,0,0,0",
                               "g:3", "g:-1", "g:5", "g:", " g:2"]),
            lambda inner: st.lists(inner, max_size=4),
            max_leaves=8,
        ),
    )
    def test_parse_element_returns_an_element_or_rejects(self, ring_id, literal):
        model = get_model(ring_id)
        try:
            g = model.parse_element(literal)
        except InvalidInputError:
            return
        assert np.all(np.isfinite(model.characters([model.ring.trivial], [g])))
        assert model.distance(model.multiply(g, model.inverse(g)), model.identity()) < 1e-12

    def test_bad_literals_rejected(self):
        for model, bad in [
            (CIRCLE, "q:1,0,0,0"),
            (CIRCLE, "z:1"),
            (CIRCLE, "z:0,0"),
            (SU2, "z:1,0"),
            (SU2, "q:0,0,0,0"),
            (S3, "4"),
        ]:
            with pytest.raises(InvalidInputError):
                model.parse_element(bad)

    def test_enumerate_dual_examples(self):
        assert CIRCLE.enumerate_dual(5) == [0, 1, -1, 2, -2]
        assert S3.enumerate_dual(10) == [0, 1, 2]
        assert SU2.enumerate_dual(4) == [0, 1, 2, 3]

    def test_registry(self):
        ring, model = resolve("dualgroup:Z^d:2")
        assert model is None
        assert ring.rank == 2
        with pytest.raises(InvalidInputError):
            get_model("dualgroup:Z^d:2")
        assert get_model("Z") is CIRCLE
        assert get_ring("finite:S3") is S3.ring
        for bad in ["zz", "Z^d:0", "finite:C99", "finite:A5", "dualgroup:Z^d:x"]:
            with pytest.raises(InvalidInputError):
                resolve(bad)

    def test_dual_group_ring_is_group_algebra(self):
        # all dims 1, fusion = group law, conjugate = inverse
        ring, _ = resolve("dualgroup:Z^d:2")
        assert ring.dim((3, -2)) == 1
        assert ring.fuse((1, 2), (0, -5)) == {(1, -3): 1}
        assert ring.conj((1, 2)) == (-1, -2)
