"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line.  Expected values are closed forms derived independently
(geometric sums, character tables) or brute-force oracles computed in-test.
"""

import time
from itertools import product

import numpy as np

from helpers import (average, cesaro, chi, energy, energy_by_definition, enumerate_labels,
                     folner_ratio, from_axis_angle, full_dual, haar_sample, multiplicity,
                     projection, wcard)
from peterweyl import (
    MeasureSpec,
    finite_group_model,
    get_model,
    get_ring,
    gns_rep,
    group_rep,
    point_rep,
    run_series,
)

CIRCLE = get_model("Z")
SU2 = get_model("SU2")
S3 = get_model("finite:S3")


def _report(n, ok, description):
    print(f"[acceptance {n}] {'PASS' if ok else 'FAIL'}: {description}")


def random_unitary(rng, k):
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_1_classical_wiener_on_the_circle():
    ok = False
    try:
        mu = MeasureSpec(CIRCLE, atoms=[(CIRCLE.identity(), 0.5)], density={0: [[0.5]]})
        start = time.perf_counter()
        schedule = CIRCLE.ring.default_schedule(500)
        atom = run_series("atom", mu, schedule, at=CIRCLE.identity())
        energy_series = run_series("energy", mu, schedule)
        elapsed = time.perf_counter() - start
        ns = np.arange(1, 501)
        atom_expected = 0.5 + 0.5 / (2 * ns + 1)
        energy_expected = 0.25 + 0.75 / (2 * ns + 1)
        assert np.max(np.abs(atom.values - atom_expected)) <= 1e-12
        assert np.max(np.abs(energy_series.values.real - energy_expected)) <= 1e-12
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(1, ok, "circle 0.5*delta_1 + 0.5*Haar, boxes to N=500, closed forms at 1e-12, < 1s")


def test_criterion_2_nonabelian_finite_group():
    ok = False
    try:
        ring = S3.ring
        full = full_dual(ring)
        w_full = wcard(full, ring)  # = 6
        elements = range(S3.order)
        for g in elements:
            if g == S3.identity():
                continue
            mu = MeasureSpec(S3, atoms=[(g, 0.3)], density={0: [[0.7]]})

            # brute-force oracle: Haar on a finite group is the uniform atom
            # measure, so mu discretizes to weights 0.7/6 everywhere + 0.3 at g;
            # the full-dual averaging kernel is computed by direct summation
            weights = {x: 0.7 / 6 for x in elements}
            weights[g] += 0.3

            def kernel(x, y):
                total = 0j
                for a in sorted(full):
                    s = S3.multiply(x, S3.inverse(y))
                    total += ring.dim(a) * S3.character_value(a, s)
                return total / w_full

            atom_oracle = sum(w * kernel(x, g) for x, w in weights.items())
            value = average("atom", mu, full, at=g)
            assert abs(value - atom_oracle) <= 1e-12
            assert abs(value - (0.3 + 0.7 / 6)) <= 1e-12  # oracle mu{g} + Haar trivial term

            # energy oracle: coefficients by direct double sums over the atoms
            energy_oracle = 0.0
            for a in sorted(full):
                d = ring.dim(a)
                coeff = sum(w * S3.irrep_matrix(a, x) for x, w in weights.items())
                energy_oracle += d * float(np.sum(np.abs(coeff) ** 2))
            energy_oracle /= w_full
            value_e = energy(mu, full)
            assert abs(value_e - energy_oracle) <= 1e-12
            # 0.09*|G^|_w-correction from the atom plus the Haar cross terms:
            # (0.09*(6-1) + |0.3+0.7|^2) / 6
            assert abs(value_e - (0.09 * 5 + 1.0) / 6) <= 1e-12
        ok = True
    finally:
        _report(2, ok, "S3, 0.3*delta_g + 0.7*Haar at the full dual vs atom oracle, 1e-12")


def test_criterion_3_su2_atom_detection():
    ok = False
    try:
        g = from_axis_angle((0, 0, 1), 1.0)
        h = from_axis_angle((1, 2, -1), 2.0)
        mu = MeasureSpec(SU2, atoms=[(g, 1.0)], density={0: [[1.0]]})  # mass 2
        start = time.perf_counter()
        schedule = SU2.ring.default_schedule(60)
        at_g = run_series("atom", mu, schedule, at=g)
        at_h = run_series("atom", mu, schedule, at=h)
        energy_series = run_series("energy", mu, schedule)
        elapsed = time.perf_counter() - start
        assert abs(at_g.final - 1.0) <= 0.05
        assert abs(at_h.final) <= 0.05
        assert abs(energy_series.final.real - 1.0) <= 0.05
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(3, ok, "SU(2), delta_g + Haar on spins to m=60: atom detection within 0.05, < 30s")


def test_criterion_4_folner_condition():
    ok = False
    try:
        ring = SU2.ring
        for m in range(1, 81):
            F = frozenset(range(m + 1))
            closed_form = ((m + 1) ** 2 + (m + 2) ** 2) / sum(
                (k + 1) ** 2 for k in range(m + 1)
            )
            assert folner_ratio(F, {1}, ring) == closed_form
            if m >= 60:
                assert folner_ratio(F, {1}, ring) < 0.1
        for d, n_max in [(1, 40), (2, 10), (3, 6)]:
            lattice = get_ring(f"Z^d:{d}") if d > 1 else get_ring("Z")
            units = [
                tuple(1 if i == j else 0 for i in range(d)) if d > 1 else 1
                for j in range(d)
            ]
            for N in range(1, n_max + 1):
                F = lattice.box(N)
                bound = 2 * d / (2 * N + 1) + 1e-12
                for u in units:
                    assert folner_ratio(F, {u}, lattice) < bound
                assert folner_ratio(F, set(units), lattice) < bound
        ok = True
    finally:
        _report(4, ok, "SU(2) spin ratios equal the closed form exactly; Z^d boxes < 2d/(2N+1)")


def test_criterion_5_mean_ergodic_convergence():
    ok = False
    c_measured = float("nan")
    try:
        rng = np.random.default_rng(2024)
        q = random_unitary(rng, 3)
        u1 = q @ np.diag([1.0, np.exp(2.0j), 1.0]) @ q.conj().T
        u2 = q @ np.diag([1.0, 1.0, np.exp(1.3j)]) @ q.conj().T
        ring = get_ring("dualgroup:Z^d:2")
        rep = group_rep(ring, [u1, u2])

        # oracle: joint eigenvalue-1 eigenprojection by direct eigendecomposition
        def eigenvalue_one_projection(u):
            w, v = np.linalg.eig(u)
            cols = v[:, np.abs(w - 1) < 1e-8]
            if cols.shape[1] == 0:
                return np.zeros_like(u)
            qq, _ = np.linalg.qr(cols)
            return qq @ qq.conj().T

        p1 = eigenvalue_one_projection(u1)
        p2 = eigenvalue_one_projection(u2)
        evals, vecs = np.linalg.eigh((p1 + p2) / 2)
        joint = vecs[:, evals > 1 - 1e-8]
        p_oracle = joint @ joint.conj().T
        assert np.max(np.abs(p_oracle - q @ np.diag([1.0, 0, 0]) @ q.conj().T)) < 1e-10

        steps = (10, 25, 50, 100, 150, 200)
        dists = []
        for N in steps:
            box = frozenset(product(range(-N, N + 1), repeat=2))
            m = cesaro(rep, box)
            dists.append(float(np.linalg.norm(m - p_oracle)))
        c_measured = max(N * dist for N, dist in zip(steps, dists))
        assert dists[-1] <= 0.02
        assert all(dist <= c_measured / N for N, dist in zip(steps, dists))

        # finite groups: the full-dual step is exact (Peter-Weyl cancellation)
        rng2 = np.random.default_rng(7)
        s3 = S3
        d4 = finite_group_model("D4")
        q8 = finite_group_model("Q8")
        cases = []
        points = [s3.identity(), 3, 5]
        cases.append((point_rep(s3, points),
                      np.diag([1.0 if x == s3.identity() else 0.0 for x in points])))
        phi = rng2.dirichlet(np.ones(d4.order))
        support = [i for i in range(d4.order) if phi[i] > 0]
        cases.append((gns_rep(d4, phi),
                      np.diag([1.0 if x == d4.identity() else 0.0 for x in support])))
        pts = [haar_sample(q8, rng2) for _ in range(3)]
        cases.append((point_rep(q8, pts),
                      np.diag([1.0 if x == q8.identity() else 0.0 for x in pts])))
        for rep_f, p_direct in cases:
            full = full_dual(rep_f.ring)
            m = cesaro(rep_f, full)
            p_lib = projection(rep_f, full)
            assert np.linalg.norm(m - p_direct) <= 1e-10
            assert np.linalg.norm(m - p_lib) <= 1e-10
        ok = True
    finally:
        _report(5, ok,
                f"Z^2 commuting unitaries: ||M_N - P_oracle|| <= C/N with measured "
                f"C = {c_measured:.3f}, <= 0.02 at N=200; finite duals exact at 1e-10")


def test_criterion_6_pure_state_dichotomy():
    ok = False
    try:
        for name in ("C6", "D4", "S3"):
            model = finite_group_model(name)
            full = full_dual(model.ring)
            for x in range(model.order):
                phi = np.zeros(model.order)
                phi[x] = 1.0
                rep = gns_rep(model, phi)
                m = cesaro(rep, full)
                v = rep.cyclic_vector
                value = complex(v.conj() @ m @ v)
                expected = 1.0 if x == model.identity() else 0.0
                assert abs(value - expected) <= 1e-12
        ok = True
    finally:
        _report(6, ok, "gns(delta_x) on C6, D4, S3: <M 1,1> is 1 at e and 0 elsewhere, 1e-12")


def test_criterion_7_invariant_suites():
    ok = False
    counts = {}
    try:
        start = time.perf_counter()
        rings = [
            (get_ring("Z"), 9),
            (get_ring("Z^d:2"), 9),
            (SU2.ring, 10),
            (S3.ring, 3),
            (get_ring("finite:D4"), 5),
            (get_ring("finite:Q8"), 5),
            (get_ring("finite:C5"), 5),
            (get_ring("finite:C12"), 12),
        ]

        # exact fusion identities
        rng = np.random.default_rng(100)
        counts["frobenius"] = counts["dimension"] = 0
        for ring, bound in rings:
            prefix = enumerate_labels(ring, bound)
            reachable = set(prefix)
            for a in prefix:
                for b in prefix:
                    reachable.update(ring.fuse(a, b))
            reachable = ring.sorted_labels(reachable)
            for _ in range(150):
                a, b = (prefix[i] for i in rng.integers(len(prefix), size=2))
                c = reachable[rng.integers(len(reachable))]
                n = multiplicity(ring, a, b, c)
                assert n == multiplicity(ring, c, ring.conj(b), a)
                assert n == multiplicity(ring, ring.conj(a), c, b)
                counts["frobenius"] += 1
                total = sum(m * ring.dim(x) for x, m in ring.fuse(a, b).items())
                assert total == ring.dim(a) * ring.dim(b)
                counts["dimension"] += 1

        # character multiplicativity and conjugation
        rng = np.random.default_rng(101)
        models = [CIRCLE, get_model("Z^d:2"), SU2, S3, get_model("finite:D4"),
                  get_model("finite:Q8"), get_model("finite:C7")]
        counts["characters"] = 0
        for model in models:
            ring = model.ring
            for _ in range(150):
                g = haar_sample(model, rng)
                if model is SU2:
                    a, b = (int(x) for x in rng.integers(0, 6, size=2))
                elif model is CIRCLE:
                    a, b = (int(x) for x in rng.integers(-5, 6, size=2))
                elif getattr(model, "rank", 0) == 2:
                    a = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                    b = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                else:
                    a, b = (int(x) for x in rng.integers(0, len(full_dual(ring)), size=2))
                product_val = model.character_value(a, g) * model.character_value(b, g)
                total = sum(n * model.character_value(c, g) for c, n in ring.fuse(a, b).items())
                assert abs(total - product_val) < 1e-9
                assert abs(model.character_value(a, g).conjugate()
                           - model.character_value(ring.conj(a), g)) < 1e-10
                counts["characters"] += 1

        # the energy average against the definition of mu_hat
        measure_models = [(CIRCLE, [0, 1, -1, 2, -2, 3]), (SU2, [0, 1, 2, 3]), (S3, [0, 1, 2])]

        def random_measure(model, labels):
            atoms = []
            while len(atoms) < 2:
                g = haar_sample(model, rng)
                if all(model.distance(g, x) > 1e-6 for x, _ in atoms):
                    atoms.append((g, float(rng.uniform(0.1, 1.5))))
            density = {}
            for label in labels:
                if rng.random() < 0.6:
                    d = model.ring.dim(label)
                    density[label] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            triv = model.ring.trivial
            if triv in density:
                density[triv] = np.full((1, 1), float(rng.uniform(0.1, 1.0)))
            return MeasureSpec(model, atoms=atoms, density=density)

        rng = np.random.default_rng(103)
        counts["energy"] = 0
        sets = {
            CIRCLE: [frozenset(range(-N, N + 1)) for N in (1, 3, 6)],
            SU2: [frozenset(range(m + 1)) for m in (1, 2, 3)],
            S3: [frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2})],
        }
        for model, labels in measure_models:
            for _ in range(120):
                mu = random_measure(model, labels)
                for F in sets[model]:
                    assert abs(energy(mu, F) - energy_by_definition(mu, F)) <= 1e-10
                    counts["energy"] += 1

        # projections: idempotent, self-adjoint, in the commutant
        rng = np.random.default_rng(104)
        counts["projection"] = counts["commutant"] = 0
        dual1 = get_ring("dualgroup:Z^d:1")
        dual2 = get_ring("dualgroup:Z^d:2")
        finite_models = [S3, get_model("finite:D4"), get_model("finite:Q8"),
                         get_model("finite:C6")]
        for i in range(1000):
            mode = i % 3
            if mode == 0:
                k = int(rng.integers(1, 5))
                q = random_unitary(rng, k)
                spectra = [
                    np.exp(1j * np.where(rng.random(k) < 0.4, 0.0, rng.uniform(0.3, 5.9, k)))
                    for _ in range(2)
                ]
                rep = group_rep(dual2, [q @ np.diag(s) @ q.conj().T for s in spectra])
                gens = [(1, 0), (0, 1)]
            elif mode == 1:
                model = finite_models[int(rng.integers(len(finite_models)))]
                if rng.random() < 0.5:
                    rep = gns_rep(model, rng.dirichlet(np.ones(model.order)))
                else:
                    rep = point_rep(model, [haar_sample(model, rng) for _ in range(3)])
                gens = sorted(full_dual(model.ring))
            else:
                model = SU2 if rng.random() < 0.5 else CIRCLE
                points = [model.identity()] + [haar_sample(model, rng)
                                               for _ in range(int(rng.integers(1, 3)))]
                rep = point_rep(model, points)
                gens = [1]
            P = projection(rep, gens)
            assert np.max(np.abs(P @ P - P)) <= 1e-9
            assert np.max(np.abs(P - P.conj().T)) <= 1e-9
            counts["projection"] += 1
            residue = max(
                float(np.linalg.norm(P @ chi(rep, g) - chi(rep, g) @ P)) for g in gens
            )
            assert residue <= 1e-8
            counts["commutant"] += 1

        elapsed = time.perf_counter() - start
        assert all(n >= 1000 for n in counts.values()), counts
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        sizes = ", ".join(f"{k}={v}" for k, v in counts.items())
        _report(7, ok, f"randomized invariant suites ({sizes}) within tolerances, < 60s")
