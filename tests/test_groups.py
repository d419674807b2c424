"""Group models: unitarity, homomorphism, characters, Schur orthogonality."""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import enumerate_labels, from_axis_angle, full_dual, haar_sample
from peterweyl import InvalidInputError, MeasureSpec, get_model, get_ring, resolve, run_series
from peterweyl import fusion, groups

CIRCLE = get_model("Z")
TORUS2 = get_model("Z^d:2")
SU2 = get_model("SU2")
S3 = get_model("finite:S3")
D4 = get_model("finite:D4")
Q8 = get_model("finite:Q8")
C7 = get_model("finite:C7")

ALL_MODELS = [CIRCLE, TORUS2, SU2, S3, D4, Q8, C7]


def random_label(model, rng):
    if model is SU2:
        return int(rng.integers(0, 7))
    if model is CIRCLE:
        return int(rng.integers(-6, 7))
    if model is TORUS2:
        return (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
    return int(rng.integers(0, len(full_dual(model.ring))))


class TestEvaluation:
    def test_identity_maps_to_identity_matrix(self):
        for model in ALL_MODELS:
            e = model.identity()
            for label in enumerate_labels(model.ring, 4):
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
        g = from_axis_angle((0, 0, 1), theta)
        expected = sum(cmath.exp(1j * (n / 2 - k) * theta) for k in range(n + 1))
        assert abs(SU2.character_value(n, g) - expected) < 1e-12

    def test_character_at_identity_is_dimension(self):
        # counit value on characters
        for model in ALL_MODELS:
            for label in enumerate_labels(model.ring, 5):
                value = model.character_value(label, model.identity())
                assert abs(value - model.ring.dim(label)) < 1e-12

    def test_character_bound(self):
        rng = np.random.default_rng(5)
        for model in ALL_MODELS:
            for _ in range(50):
                g = haar_sample(model, rng)
                label = random_label(model, rng)
                assert abs(model.character_value(label, g)) <= model.ring.dim(label) + 1e-10

    @pytest.mark.parametrize("model,labels", [
        (TORUS2, enumerate_labels(TORUS2.ring, 81)),
        # the symmetric-power matrices are themselves off by up to 2e-8 at
        # n = 60, so the 1e-12 comparison stops where they still hold it
        (SU2, list(range(25))),
        (S3, enumerate_labels(S3.ring, 10)),
        (D4, enumerate_labels(D4.ring, 10)),
        (Q8, enumerate_labels(Q8.ring, 10)),
        (get_model("finite:C5"), list(range(5))),
    ], ids=["torus2", "SU2", "S3", "D4", "Q8", "C5"])
    def test_batched_characters_are_irrep_traces(self, model, labels):
        rng = np.random.default_rng(37)
        elements = [haar_sample(model, rng) for _ in range(12)]
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
        labels = enumerate_labels(model.ring, 40)
        weighted = [(float(w), haar_sample(model, rng)) for w in rng.uniform(-1, 1, 30)]
        sums = model.character_sums(labels, weighted)
        table = model.characters(labels, [g for _, g in weighted])
        assert np.max(np.abs(sums - table @ [w for w, _ in weighted])) < 1e-12
        monkeypatch.setattr(groups, "_TABLE_ENTRIES", 7)  # tables of one element
        assert model.character_sums(labels, iter(weighted)).tolist() == sums.tolist()
        assert model.character_sums(labels[5:9], weighted).tolist() == sums[5:9].tolist()

    @pytest.mark.parametrize("entries", [2**16, 7])
    def test_su2_character_sums_run_one_recurrence(self, entries, monkeypatch):
        rng = np.random.default_rng(53)
        labels = list(range(0, 4000, 7)) + [3, 3]
        weighted = [(w, haar_sample(SU2, rng)) for w in [*rng.uniform(-1, 1, 30), -0.0, 2j]]
        one_by_one = np.zeros(len(labels), dtype=complex)
        for w, g in weighted:
            one_by_one += w * SU2.characters(labels, [g])[:, 0]
        runs = []
        recurrence = groups._chebyshev_rows
        monkeypatch.setattr(groups, "_chebyshev_rows", lambda wanted, x, size: (
            runs.append(len(x)) or recurrence(wanted, x, size)))
        monkeypatch.setattr(groups, "_TABLE_ENTRIES", entries)  # blocks of 2048 or 1 rows
        assert SU2.character_sums(labels, iter(weighted)).tobytes() == one_by_one.tobytes()
        assert runs == [32]
        assert SU2.character_sums(labels, []).tolist() == [0j] * len(labels) and runs == [32]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_torus_characters_equal_the_plain_two_sum_expressions(self, rank):
        # the in-place table against the same arithmetic written as plain
        # expressions: equal to the bit, signed-zero angles and label 0 included
        rng = np.random.default_rng(59 + rank)
        model = groups.TorusModel(rank)
        table = rng.integers(-3000, 3000, size=(300, rank))
        table[:3] = 0
        z = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(61, rank)))
        z[:2], z[2:4], z[4] = 1, complex(1, -0.0), -1
        elements = [row[0] if rank == 1 else tuple(row) for row in z.tolist()]
        theta = np.angle(z)
        assert np.signbit(theta[2:4]).all()
        hi, lo = np.zeros((len(table), len(theta))), 0.0
        for c in range(rank):
            k, t = table[:, c, None].astype(float), theta[None, :, c]
            t_hi = 134217729.0 * t - (134217729.0 * t - t)
            prod = k * t
            total = hi + prod
            back = total - hi
            lo += ((k * t_hi - prod) + k * (t - t_hi)) + ((hi - (total - back)) + (prod - back))
            hi = total
        got = model.characters(table, elements)
        assert got.tobytes() == (np.exp(1j * hi) * (1 + 1j * lo)).tobytes()

    def test_su2_characters_follow_the_weyl_formula_to_high_spin(self):
        rng = np.random.default_rng(43)
        elements = [haar_sample(SU2, rng) for _ in range(20)]
        n = np.arange(2001)
        table = SU2.characters(n.tolist(), elements)
        half = np.arccos([g[0].real for g in elements])
        weyl = np.sin((n[:, None] + 1) * half) / np.sin(half)
        assert np.all(np.abs(table - weyl) <= 1e-9 * (n[:, None] + 1))

    def test_su2_characters_refuse_a_recurrence_past_the_work_limit(self, monkeypatch):
        rng = np.random.default_rng(5)
        elements = [haar_sample(SU2, rng) for _ in range(48)]
        start = time.perf_counter()
        with pytest.raises(InvalidInputError, match="label 3037000000 at 48 elements.*limit"):
            SU2.characters([3_037_000_000], elements)
        with pytest.raises(InvalidInputError, match="label 3037000000 at 48 elements.*limit"):
            SU2.character_sums([3_037_000_000], [(1.0, g) for g in elements])
        assert time.perf_counter() - start < 1.0
        assert SU2.characters([10 ** 5], elements).shape == (1, 48)
        # labels 0..99 at 48 elements are 100 recurrence steps of 48 entries each
        cost = fusion.COST_S
        monkeypatch.setattr(fusion, "MAX_WORK_S",
                            100 * (cost["recurrence step"] + 48 * cost["recurrence entry"]))
        assert SU2.characters([99, 3], elements).shape == (2, 48)
        with pytest.raises(InvalidInputError):
            SU2.characters([100, 3], elements)

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
            g = haar_sample(model, rng)
            h = haar_sample(model, rng)
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
            g = haar_sample(model, rng)
            assert model.distance(model.multiply(g, model.inverse(g)), e) < 1e-12
            assert model.distance(model.multiply(model.inverse(g), g), e) < 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_character_multiplicativity(self, model):
        rng = np.random.default_rng(29)
        ring = model.ring
        for _ in range(150):
            g = haar_sample(model, rng)
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
            g = haar_sample(model, rng)
            a = random_label(model, rng)
            lhs = model.character_value(a, g).conjugate()
            assert abs(lhs - model.character_value(ring.conj(a), g)) < 1e-10
            if ring.conj(a) == a:
                # self-conjugate labels: same identity read through inversion
                inv_val = model.character_value(a, model.inverse(g))
                assert abs(inv_val - lhs) < 1e-10


def test_schur_orthogonality_by_exact_quadrature():
    """The Haar integral of u^a_ij conj(u^b_kl) is delta_ab delta_ik delta_jl / d_a
    to 1e-12 for every index pair of every label pair up to L = 24.

    Every element is T(phi) R(beta) T(psi), T(phi) = diag(e^{i phi}, e^{-i phi})
    and R(beta) the real rotation by beta in [0, pi/2]; Haar measure makes phi,
    psi uniform and x = cos 2 beta uniform on [-1, 1].  By the homomorphism
    property (checked at sample nodes) the integral factorises into two torus
    averages, exact on 2L + 2 uniform nodes since the torus images are diagonal
    with frequencies below 2L + 1, and an integral over x.  Where the torus
    averages are nonzero the x-integrand is a polynomial of degree (a + b) / 2,
    exact on L // 2 + 1 Gauss-Legendre nodes (Kostelec and Rockmore, "FFTs on
    the rotation group", 2008).  Labels above 24 wait for accurate irrep
    matrices at large labels (`_sym_power` loses unitarity there).
    """
    L = 24
    phis = 2 * np.pi * np.arange(2 * L + 2) / (2 * L + 2)
    x, weights = np.polynomial.legendre.leggauss(L // 2 + 1)
    betas = np.arccos(x) / 2
    tori = [(cmath.exp(1j * phi), 0j) for phi in phis]
    rotations = [(complex(math.cos(beta)), complex(-math.sin(beta))) for beta in betas]
    diagonals, blocks = [], []
    for a in range(L + 1):
        torus = np.array([SU2.irrep_matrix(a, t) for t in tori])
        assert np.all(torus * (1 - np.eye(a + 1)) == 0)
        diagonals.append(np.diagonal(torus, axis1=1, axis2=2))
        blocks.append(np.array([SU2.irrep_matrix(a, r) for r in rotations]))
        for t, r, u in [(1, 0, 3), (5, 12, 40), (49, 7, 2)]:
            g = SU2.multiply(SU2.multiply(tori[t], rotations[r]), tori[u])
            factors = torus[t] @ blocks[a][r] @ torus[u]
            assert np.max(np.abs(SU2.irrep_matrix(a, g) - factors)) < 1e-12
    worst = 0.0
    for a in range(L + 1):
        for b in range(L + 1):
            torus = diagonals[a].T @ diagonals[b].conj() / len(phis)  # [i, k]
            rotation = ((blocks[a].reshape(len(x), -1).T * weights / 2)
                        @ blocks[b].reshape(len(x), -1).conj()).reshape(a + 1, a + 1, b + 1, b + 1)
            integral = torus[:, None, :, None] * rotation * torus[None, :, None, :]
            expected = np.zeros_like(integral)
            if a == b:
                expected = np.einsum("ik,jl->ijkl", np.eye(a + 1), np.eye(a + 1)) / (a + 1)
            worst = max(worst, np.max(np.abs(integral - expected)))
    assert worst < 1e-12


def _character_quadrature(ring_id: str):
    """(model, labels, elements, weights) of a rule that integrates every
    product chi_a conj(chi_b) of the labels exactly against Haar measure."""
    model = get_model(ring_id)
    if ring_id == "SU2":
        # Weyl's formula in x = Re a: chi_n = U_n(x) against (2 / pi) sqrt(1 - x^2) dx,
        # exact on 1001 Gauss-Chebyshev nodes of the second kind up to degree 2001
        theta = np.arange(1, 1002) * np.pi / 1002
        elements = [(complex(math.cos(t), math.sin(t)), 0j) for t in theta]
        return model, list(range(1001)), elements, 2 / 1002 * np.sin(theta) ** 2
    if ring_id == "Z":
        # z^(a - b) with |a - b| <= 2000 averages to delta_ab on 2001 roots of unity
        return (model, list(range(-1000, 1001)),
                [cmath.exp(2j * np.pi * k / 2001) for k in range(2001)], np.full(2001, 1 / 2001))
    if ring_id == "Z^d:2":
        circle = [cmath.exp(2j * np.pi * k / 41) for k in range(41)]
        return (model, sorted(model.ring.box(10)), [(z, w) for z in circle for w in circle],
                np.full(41 ** 2, 1 / 41 ** 2))
    return (model, sorted(full_dual(model.ring)), range(model.order),
            np.full(model.order, 1 / model.order))


@pytest.mark.parametrize("ring_id", ["SU2", "Z", "Z^d:2"] + [f"finite:{name}"
                                                             for name in groups._FINITE_NAMES])
def test_character_orthogonality_by_exact_quadrature(ring_id):
    """The Haar integral of chi_a conj(chi_b) is delta_ab to 1e-12: SU(2)
    labels 0..1000, Z labels up to |n| = 1000 and Z^2 labels up to |n| = 10
    on uniform grids, and every irrep of every shipped finite group by the
    exact sum over its elements.  The rules use only `model.characters`."""
    model, labels, elements, weights = _character_quadrature(ring_id)
    chi = model.characters(labels, elements)
    gram = (chi * weights) @ chi.conj().T
    assert np.max(np.abs(gram - np.eye(len(labels)))) < 1e-12


class TestSampling:
    def test_haar_deterministic_per_seed(self):
        for model in ALL_MODELS:
            a = [haar_sample(model, np.random.default_rng(42)) for _ in range(3)]
            b = [haar_sample(model, np.random.default_rng(42)) for _ in range(3)]
            assert all(model.distance(x, y) == 0 for x, y in zip(a, b))

    def test_samples_are_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            z = haar_sample(CIRCLE, rng)
            assert abs(abs(z) - 1) < 1e-12
            a, b = haar_sample(SU2, rng)
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
            # one spelling per element: no bare index, no list of circle literals
            (S3, 4),
            (TORUS2, ["z:1,0", "z:0,1"]),
            (TORUS2, "z:1,0"),
        ]:
            with pytest.raises(InvalidInputError):
                model.parse_element(bad)

    def test_torus_model_needs_a_lattice_ring_of_its_rank(self):
        # a rank-2 torus on Z would read the label 1 as a pair; a circle on
        # SU2 would read spins as circle characters
        for rank, ring_id in [(2, "Z"), (1, "SU2"), (1, "finite:C5"), (3, "dualgroup:Z^d:2")]:
            with pytest.raises(InvalidInputError, match="LatticeRing of rank"):
                groups.TorusModel(rank, ring=get_ring(ring_id))
        assert groups.TorusModel(2, ring=get_ring("dualgroup:Z^d:2")).ring.rank == 2

    def test_enumerate_dual_examples(self):
        assert enumerate_labels(CIRCLE.ring, 5) == [0, 1, -1, 2, -2]
        assert enumerate_labels(S3.ring, 10) == [0, 1, 2]
        assert enumerate_labels(SU2.ring, 4) == [0, 1, 2, 3]

    def test_registry(self):
        ring, model = resolve("dualgroup:Z^d:2")
        assert model is None
        assert ring.rank == 2
        with pytest.raises(InvalidInputError):
            get_model("dualgroup:Z^d:2")
        assert get_model("Z") is CIRCLE
        assert get_ring("finite:S3") is S3.ring
        # one spelling per ring: no blanks, signs, `_`, leading zeros or
        # non-ASCII digits, and no rank past nine digits
        for bad in ["zz", "Z^d:0", "finite:C99", "finite:A5", "dualgroup:Z^d:x", "Z^d: 2",
                    "Z^d:+2", "Z^d:2_0", "Z^d:02", "Z^d:\u0662", "dualgroup:Z^d:02",
                    "finite:C05", "finite:C 5", "finite:C+5", "finite:C5 ", "finite:C\u0665",
                    "Z^d:" + "9" * 5000]:
            with pytest.raises(InvalidInputError):
                resolve(bad)

    def test_dual_group_ring_is_group_algebra(self):
        # all dims 1, fusion = group law, conjugate = inverse
        ring, _ = resolve("dualgroup:Z^d:2")
        assert ring.dim((3, -2)) == 1
        assert ring.fuse((1, 2), (0, -5)) == {(1, -3): 1}
        assert ring.conj((1, 2)) == (-1, -2)
