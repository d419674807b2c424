"""Concrete compact groups with exact irreducible matrix coefficients.

Shipped models: the circle and d-torus, SU(2), and a family of finite groups
(C2..C12, S3, D4, Q8) with hard-coded irreducible *matrix* representations,
not just characters.  Duals of discrete abelian groups (the group-algebra
side, where the underlying "space" is noncommutative for nonabelian
examples) are exposed as plain fusion rings without a model.

Every model evaluates u^a_ij(g), the (i,j) entry of a unitary matrix
realizing the irrep a at the element g, and, in one batched call, the
characters chi_a(g) = trace u^a(g) of many labels at many elements without
building any matrix: exp(i n.theta) on the torus, the Chebyshev form
U_n(cos(t/2)) on SU(2), and a character-table lookup on finite groups.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import lru_cache
from itertools import islice, permutations

import numpy as np

from .errors import InvalidInputError
from .fusion import COST_S, FiniteDualRing, FusionRing, LatticeRing, SU2Ring, _check_work, get_ring

# entries of one character table in `character_sums` (labels x a chunk of
# elements), about 1 MB
_TABLE_ENTRIES = 1 << 16


class CompactGroupModel(ABC):
    """A compact group together with its fusion ring and irrep evaluator.

    Elements are plain values (complex numbers, tuples, indices) interpreted
    by the model; they are normalized on construction and all operations are
    pure, so models are safe to share between threads.
    """

    ring: FusionRing
    name: str

    @abstractmethod
    def identity(self): ...

    @abstractmethod
    def multiply(self, g, h): ...

    @abstractmethod
    def inverse(self, g): ...

    @abstractmethod
    def irrep_matrix(self, label, g) -> np.ndarray: ...

    def characters(self, labels, elements) -> np.ndarray:
        """chi_a(g) for every label a and element g, as a complex array of
        shape (len(labels), len(elements)).  `labels` is a list of labels or
        an int64 label table of the ring (`ring.label_table`), checked as a
        whole.  Each entry depends only on its own label and element, never
        on the rest of the batch."""
        return self._character_table(self.ring.label_table(labels), list(elements))

    def character_sums(self, labels, weighted) -> np.ndarray:
        """sum_j w_j chi_a(g_j) for every label a, over the pairs (w_j, g_j)
        of the iterable `weighted`.

        The labels (a list or a label table) are checked once; the elements
        are taken in chunks that keep each character table near
        _TABLE_ENTRIES entries, so memory stays linear in the labels however
        many pairs there are.  The sum adds one element at a time, so a
        label's value depends neither on the chunking nor on the other
        labels.
        """
        table = self.ring.label_table(labels)
        total = np.zeros(len(table), dtype=complex)
        width = max(1, _TABLE_ENTRIES // max(len(table), 1))
        weighted = iter(weighted)
        while chunk := list(islice(weighted, width)):
            weights, elements = zip(*chunk)
            for w, column in zip(weights, self._character_table(table, elements).T):
                total += w * column
        return total

    @abstractmethod
    def _character_table(self, table, elements) -> np.ndarray:
        """`characters` on a checked label table of the ring."""

    @abstractmethod
    def distance(self, g, h) -> float: ...

    @abstractmethod
    def parse_element(self, literal): ...

    @abstractmethod
    def format_element(self, g) -> str: ...

    def character_value(self, label, g) -> complex:
        """chi(a)(g), the trace of the irrep matrix; |chi(a)(g)| <= dim(a)."""
        return complex(self.characters([label], [g])[0, 0])

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _parse_floats(text: str, expected: int, literal) -> list[float]:
    parts = text.split(",")
    if len(parts) != expected:
        raise InvalidInputError(f"cannot parse element literal {literal!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse element literal {literal!r}") from exc
    # |x| <= 1e300 also keeps the norms taken to renormalize from overflowing
    if not all(abs(v) <= 1e300 for v in values):
        raise InvalidInputError(f"element literal {literal!r} has a non-finite or huge coordinate")
    return values


class TorusModel(CompactGroupModel):
    """The d-torus; rank 1 is the circle.

    Elements are unit complex numbers (a tuple of them for rank >= 2),
    renormalized on construction.  The irrep labelled by n is the character
    z -> z^n, a 1x1 unitary.
    """

    def __init__(self, rank: int = 1, ring: LatticeRing | None = None):
        self.rank = rank
        self.ring = ring if ring is not None else get_ring(f"Z^d:{rank}")
        if not (isinstance(self.ring, LatticeRing) and self.ring.rank == rank):
            raise InvalidInputError(f"TorusModel({rank}) needs a LatticeRing of rank {rank}")
        self.name = "circle" if rank == 1 else f"torus^{rank}"

    def element(self, *coords):
        """Build an element from complex coordinates, renormalizing each."""
        if len(coords) != self.rank:
            raise InvalidInputError(f"{self.name} element needs {self.rank} coordinates")
        zs = []
        for z in coords:
            z = complex(z)
            r = abs(z)
            if r < 1e-9:
                raise InvalidInputError("torus coordinate too close to zero to normalize")
            zs.append(z / r)
        return zs[0] if self.rank == 1 else tuple(zs)

    def identity(self):
        return 1 + 0j if self.rank == 1 else (1 + 0j,) * self.rank

    def multiply(self, g, h):
        if self.rank == 1:
            return g * h
        return tuple(a * b for a, b in zip(g, h))

    def inverse(self, g):
        # unit modulus: the inverse is the conjugate, exactly
        if self.rank == 1:
            return g.conjugate()
        return tuple(z.conjugate() for z in g)

    def irrep_matrix(self, label, g):
        self.ring.check_label(label)
        if self.rank == 1:
            return np.array([[g ** label]], dtype=complex)
        value = 1 + 0j
        for z, n in zip(g, label):
            value *= z ** n
        return np.array([[value]], dtype=complex)

    def _character_table(self, table, elements):
        """exp(i n.theta) with theta the angles of the element; the phase is
        kept as hi + lo, so its rounding does not grow with the label."""
        theta = np.angle(np.array(elements, dtype=complex)).reshape(len(elements), self.rank)
        hi, lo = _exact_phase(table.astype(float), theta)
        # exp(i hi) (1 + i lo), written in place
        phase, factor = np.zeros(hi.shape, complex), np.ones(hi.shape, complex)
        phase.imag, factor.imag = hi, lo
        return np.multiply(np.exp(phase, out=phase), factor, out=phase)

    def distance(self, g, h):
        if self.rank == 1:
            return abs(g - h)
        return max(abs(a - b) for a, b in zip(g, h))

    def parse_element(self, literal):
        if isinstance(literal, str) and literal.startswith("z:"):
            # element() refuses a wrong number of coordinates
            return self.element(*(complex(*_parse_floats(c, 2, literal))
                                  for c in literal[2:].split(";")))
        raise InvalidInputError(f"cannot parse element literal {literal!r}")

    def format_element(self, g):
        if self.rank == 1:
            return f"z:{g.real!r},{g.imag!r}"
        return "z:" + ";".join(f"{z.real!r},{z.imag!r}" for z in g)


def _exact_phase(n: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n.theta for every row of n (labels) and row of theta (angles), as
    hi + lo with hi the rounded value and lo its rounding error.

    Dekker's product splits each angle into two 26-bit halves, so for
    integer |n| < 2^26 every product n_c theta_c is exact as a pair, and
    Knuth's two-sum keeps the error of adding the coordinates.  Everything
    is elementwise, so no entry depends on the rest of the batch, and every
    full-size step writes into one of six preallocated arrays.
    """
    hi, lo, total = (np.zeros((len(n), len(theta))) for _ in range(3))
    prod, err, back = (np.empty_like(hi) for _ in range(3))
    for c in range(n.shape[1]):
        k, t = n[:, c, None], theta[None, :, c]
        big = 134217729.0 * t  # 2^27 + 1
        t_hi = big - (big - t)
        np.multiply(k, t, out=prod)
        # err = (k t_hi - prod) + k (t - t_hi), the rounding error of prod
        np.subtract(np.multiply(k, t_hi, out=err), prod, out=err)
        np.add(err, np.multiply(k, t - t_hi, out=back), out=err)
        # two-sum of hi + prod: lo += err + ((hi - (total - back)) + (prod - back))
        np.add(hi, prod, out=total)
        np.subtract(total, hi, out=back)
        np.subtract(prod, back, out=prod)
        np.subtract(hi, np.subtract(total, back, out=back), out=back)
        np.add(lo, np.add(err, np.add(back, prod, out=back), out=err), out=lo)
        hi, total = total, hi
    return hi, lo


def _sym_power(u: np.ndarray, n: int) -> np.ndarray:
    """Matrix of the n-th symmetric tensor power of a 2x2 matrix, in the
    orthonormal monomial basis x^(n-k) y^k / sqrt(binom(n,k))^{-1} of
    homogeneous degree-n polynomials.

    Column k is the expansion of (u00 x + u10 y)^(n-k) (u01 x + u11 y)^k;
    for unitary u the result is unitary and (UV)^sym = U^sym V^sym, so no
    angle convention enters anywhere.
    """
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    top = np.array([u[0, 0], u[1, 0]], dtype=complex)
    bot = np.array([u[0, 1], u[1, 1]], dtype=complex)
    pow_top = [np.ones(1, dtype=complex)]
    pow_bot = [np.ones(1, dtype=complex)]
    for _ in range(n):
        pow_top.append(np.convolve(pow_top[-1], top))
        pow_bot.append(np.convolve(pow_bot[-1], bot))
    m = np.empty((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        m[:, k] = np.convolve(pow_top[n - k], pow_bot[k])
    root_binom = np.sqrt(np.array([math.comb(n, l) for l in range(n + 1)], dtype=float))
    m *= root_binom[None, :] / root_binom[:, None]
    return m


class SU2Model(CompactGroupModel):
    """SU(2) with elements stored as unit quaternions (a, b), realizing the
    defining matrix [[a, b], [-conj(b), conj(a)]].  The irrep 2j = n acts on
    degree-n polynomials as the n-th symmetric power of the defining matrix.
    """

    name = "SU2"

    def __init__(self):
        self.ring = get_ring("SU2")

    def element(self, a, b):
        a, b = complex(a), complex(b)
        norm = math.hypot(abs(a), abs(b))
        if norm < 1e-9:
            raise InvalidInputError("quaternion too close to zero to normalize")
        return (a / norm, b / norm)

    def identity(self):
        return (1 + 0j, 0j)

    def multiply(self, g, h):
        a1, b1 = g
        a2, b2 = h
        return (a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())

    def inverse(self, g):
        a, b = g
        return (a.conjugate(), -b)

    def defining_matrix(self, g) -> np.ndarray:
        a, b = g
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)

    def irrep_matrix(self, label, g):
        self.ring.check_label(label)
        return _sym_power(self.defining_matrix(g), label)

    def _character_table(self, table, elements):
        labels = table[:, 0]
        wanted = sorted(set(labels.tolist()))
        x = np.array([g[0].real for g in elements], dtype=float)
        rows = next(_chebyshev_rows(wanted, x, len(wanted)), np.empty((0, len(x))))
        return rows[np.searchsorted(wanted, labels)].astype(complex)

    def character_sums(self, labels, weighted):
        """`CompactGroupModel.character_sums` from one recurrence over all the
        elements (24 bytes each), its rows summed in blocks of _TABLE_ENTRIES
        entries; each label adds its elements in order, as the chunks do."""
        table = self.ring.label_table(labels)
        pairs = np.fromiter(((w, g[0].real) for w, g in weighted),
                            dtype=[("w", complex), ("x", float)])
        if not (len(pairs) and len(table)):
            return np.zeros(len(table), dtype=complex)
        wanted = sorted(set(table[:, 0].tolist()))
        blocks = _chebyshev_rows(wanted, pairs["x"], max(1, _TABLE_ENTRIES // len(pairs)))
        # + 0: a sum of -0.0 terms is +0.0, as from a total of +0
        sums = [np.add.accumulate(pairs["w"] * rows, axis=1)[:, -1] + 0 for rows in blocks]
        return np.concatenate(sums)[np.searchsorted(wanted, table[:, 0])]

    def distance(self, g, h):
        return math.hypot(abs(g[0] - h[0]), abs(g[1] - h[1]))

    def parse_element(self, literal):
        if isinstance(literal, str) and literal.startswith("q:"):
            ra, ia, rb, ib = _parse_floats(literal[2:], 4, literal)
            return self.element(complex(ra, ia), complex(rb, ib))
        raise InvalidInputError(f"cannot parse element literal {literal!r}")

    def format_element(self, g):
        a, b = g
        return f"q:{a.real!r},{a.imag!r},{b.real!r},{b.imag!r}"


def _chebyshev_rows(wanted: list, x: np.ndarray, size: int):
    """Rows of the Weyl characters sin((n+1)t/2)/sin(t/2) of the ascending
    labels `wanted` at x = cos(t/2) = Re a, `size` rows a block: U_n(x) from
    U_{n+1} = 2x U_n - U_{n-1}, run once for all x up to the largest label
    and refused before it starts when that work would pass MAX_WORK_S."""
    steps = wanted[-1] + 1 if wanted else 0
    cost = COST_S["recurrence step"] + len(x) * COST_S["recurrence entry"]
    _check_work(steps * cost, f"SU(2) characters up to label {steps - 1} at {len(x)} elements")
    two_x, k, start, stop = 2 * x, 0, 0, min(size, len(wanted))
    prev, cur = np.zeros_like(two_x), np.ones_like(two_x)  # U_{-1}, U_0
    block = np.empty((stop, len(x)))
    for n in range(steps):
        if n == wanted[k]:
            block[k - start], k = cur, k + 1
            if k == stop:
                yield block
                start, stop = k, min(k + size, len(wanted))
                block = np.empty((stop - start, len(x)))
        prev, cur = cur, two_x * cur - prev


class FiniteGroupModel(CompactGroupModel):
    """A finite group given by an element list, a multiplication function and
    a complete list of irreducible matrix representations.

    Elements are exposed as integer indices into the fixed element list; the
    Cayley table, inverses and the character table are precomputed, and the
    fusion ring is the fusion table derived once from the characters.  Haar
    measure is uniform.
    """

    def __init__(self, name: str, elements: list, mult, irreps: list[tuple]):
        self.name = name
        self._elements = list(elements)
        index = {e: i for i, e in enumerate(self._elements)}
        order = len(self._elements)
        self.cayley = np.empty((order, order), dtype=np.int64)
        for i, a in enumerate(self._elements):
            for j, b in enumerate(self._elements):
                self.cayley[i, j] = index[mult(a, b)]
        self._identity = next(
            i for i in range(order)
            if all(self.cayley[i, j] == j == self.cayley[j, i] for j in range(order))
        )
        self._inverse = np.empty(order, dtype=np.int64)
        for i in range(order):
            self._inverse[i] = int(np.nonzero(self.cayley[i] == self._identity)[0][0])
        self.irrep_names = tuple(nm for nm, _ in irreps)
        self._matrices = []
        for _, func in irreps:
            mats = [np.asarray(func(e), dtype=complex) for e in self._elements]
            self._matrices.append(mats)
        dims = tuple(m[0].shape[0] for m in self._matrices)
        if sum(d * d for d in dims) != order:
            raise InvalidInputError("irrep dimensions do not sum-of-squares to the group order")
        chars = np.array([[np.trace(m) for m in mats] for mats in self._matrices], dtype=complex)
        # character orthogonality: N[a,b]^c = (1/|G|) sum_g chi_a(g) chi_b(g) conj(chi_c(g))
        fusion = np.einsum("ag,bg,cg->abc", chars, chars, chars.conj()) / order
        if np.max(np.abs(fusion - np.rint(fusion.real))) > 1e-8:
            raise InvalidInputError(f"non-integer fusion multiplicity in group {name}")
        self.ring = FiniteDualRing(f"finite:{name}", self.irrep_names, dims,
                                   np.rint(fusion.real).astype(np.int64))
        conj = [self.ring.conj(a) for a in range(len(dims))]
        if np.max(np.abs(chars[conj] - chars.conj())) >= 1e-8:
            raise InvalidInputError(f"character table of {name} is not closed under conjugation")
        self._characters = chars

    @property
    def order(self) -> int:
        return len(self._elements)

    def identity(self):
        return self._identity

    def multiply(self, g, h):
        return int(self.cayley[self._check(g), self._check(h)])

    def inverse(self, g):
        return int(self._inverse[self._check(g)])

    def _check(self, g) -> int:
        if not isinstance(g, (int, np.integer)) or isinstance(g, bool) or not 0 <= g < self.order:
            raise InvalidInputError(f"{g!r} is not an element index of {self.name}")
        return int(g)

    def irrep_matrix(self, label, g):
        self.ring.check_label(label)
        return self._matrices[label][self._check(g)]

    def _character_table(self, table, elements):
        cols = np.array([self._check(g) for g in elements], dtype=np.intp)
        return self._characters[np.ix_(table[:, 0], cols)]

    def distance(self, g, h):
        return 0.0 if self._check(g) == self._check(h) else 1.0

    def parse_element(self, literal):
        if isinstance(literal, str) and literal.startswith("g:"):
            try:
                return self._check(int(literal[2:]))
            except ValueError as exc:
                raise InvalidInputError(f"cannot parse element literal {literal!r}") from exc
        raise InvalidInputError(f"cannot parse element literal {literal!r}")

    def format_element(self, g):
        return f"g:{self._check(g)}"


def _cyclic_group(n: int) -> FiniteGroupModel:
    omega = 2j * np.pi / n

    def irrep(k):
        return lambda g: [[np.exp(omega * ((k * g) % n))]]

    irreps = [(f"chi{k}", irrep(k)) for k in range(n)]
    return FiniteGroupModel(f"C{n}", list(range(n)), lambda a, b: (a + b) % n, irreps)


def _symmetric_group_3() -> FiniteGroupModel:
    elems = sorted(permutations(range(3)))  # identity (0,1,2) first

    def mult(p, q):
        return tuple(p[q[i]] for i in range(3))

    def sign(p):
        return 1 if (p[0], p[1], p[2]) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)] else -1

    # standard 2-dim irrep: permutation matrices restricted to the sum-zero
    # plane, in the orthonormal basis (1,-1,0)/sqrt2, (1,1,-2)/sqrt6
    basis = np.array([[1, 1], [-1, 1], [0, -2]], dtype=float)
    basis /= np.sqrt([2, 6])

    def std(p):
        perm = np.zeros((3, 3))
        for j in range(3):
            perm[p[j], j] = 1
        return basis.T @ perm @ basis

    irreps = [
        ("trivial", lambda p: [[1]]),
        ("sign", lambda p: [[sign(p)]]),
        ("std", std),
    ]
    return FiniteGroupModel("S3", elems, mult, irreps)


def _dihedral_group_4() -> FiniteGroupModel:
    # elements (k, e) = r^k s^e with s r s = r^-1
    elems = [(k, e) for e in range(2) for k in range(4)]

    def mult(a, b):
        k1, e1 = a
        k2, e2 = b
        return ((k1 + (k2 if e1 == 0 else -k2)) % 4, (e1 + e2) % 2)

    rot = np.array([[0, -1], [1, 0]], dtype=float)
    flip = np.array([[1, 0], [0, -1]], dtype=float)

    def one_dim(sr, ss):
        return lambda a: [[sr ** a[0] * ss ** a[1]]]

    def twodim(a):
        return np.linalg.matrix_power(rot, a[0]) @ np.linalg.matrix_power(flip, a[1])

    irreps = [
        ("trivial", one_dim(1, 1)),
        ("sign_s", one_dim(1, -1)),
        ("sign_r", one_dim(-1, 1)),
        ("sign_rs", one_dim(-1, -1)),
        ("twodim", twodim),
    ]
    return FiniteGroupModel("D4", elems, mult, irreps)


def _quaternion_group_8() -> FiniteGroupModel:
    # unit quaternions as integer quadruples (w, x, y, z)
    elems = []
    for axis in range(4):
        for s in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = s
            elems.append(tuple(q))

    def mult(p, q):
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def one_dim(si, sj, sk):
        signs = (1, si, sj, sk)
        return lambda q: [[signs[next(i for i in range(4) if q[i] != 0)]]]

    pauli = [
        np.eye(2, dtype=complex),
        np.array([[1j, 0], [0, -1j]]),
        np.array([[0, 1], [-1, 0]], dtype=complex),
        np.array([[0, 1j], [1j, 0]]),
    ]

    def twodim(q):
        return sum(c * m for c, m in zip(q, pauli))

    irreps = [
        ("trivial", one_dim(1, 1, 1)),
        ("chi_i", one_dim(1, -1, -1)),
        ("chi_j", one_dim(-1, 1, -1)),
        ("chi_k", one_dim(-1, -1, 1)),
        ("twodim", twodim),
    ]
    return FiniteGroupModel("Q8", elems, mult, irreps)


_FINITE_NAMES = tuple(f"C{n}" for n in range(2, 13)) + ("S3", "D4", "Q8")


@lru_cache(maxsize=None)
def finite_group_model(name: str) -> FiniteGroupModel:
    if name == "S3":
        return _symmetric_group_3()
    if name == "D4":
        return _dihedral_group_4()
    if name == "Q8":
        return _quaternion_group_8()
    if name.startswith("C"):
        try:
            n = int(name[1:])
        except ValueError:
            n = 0
        if 2 <= n <= 12:
            return _cyclic_group(n)
    raise InvalidInputError(f"unknown finite group {name!r}; known: {_FINITE_NAMES}")


@lru_cache(maxsize=None)
def _model_on(ring: FusionRing) -> CompactGroupModel | None:
    """The model of a ring of `get_ring`, built on that ring object."""
    if isinstance(ring, FiniteDualRing):
        return finite_group_model(ring.name[7:])
    if isinstance(ring, SU2Ring):
        return SU2Model()
    return None if ring.name.startswith("dualgroup:") else TorusModel(ring.rank, ring=ring)


def resolve(ring_id: str) -> tuple[FusionRing, CompactGroupModel | None]:
    """Resolve a ring identifier to (ring, model), the ring being the one
    `get_ring` returns.

    Identifiers: "Z", "Z^d:<d>", "SU2", "finite:<name>", "dualgroup:Z^d:<d>".
    The dual-group rings have no model attached: they present the group
    algebra of the discrete group, whose function "space" is noncommutative,
    so only fusion combinatorics and operator averages apply.
    """
    ring = get_ring(ring_id)
    return ring, _model_on(ring)


def get_model(ring_id: str) -> CompactGroupModel:
    ring, model = resolve(ring_id)
    if model is None:
        raise InvalidInputError(f"ring {ring_id!r} has no compact-group model attached")
    return model
