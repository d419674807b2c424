"""Cesaro operator averages of finite-dimensional *-representations.

Every representation here is a unitary basis V and points p_1..p_k of a
compact-group model, with pi(chi(a)) = V diag(chi_a(p_1), ..., chi_a(p_k)) V^H:
point evaluations and GNS representations sit in the standard basis, and
commuting unitaries are diagonalised once, their joint eigenvalues read as
torus points.  So the weighted average

    M_F = (1/|F|_w) sum_{a in F} dim(a) * pi(chi(a)) = V diag(a_F(p)) V^H

takes one scalar average a_F(p) per point, from one batched
`model.characters` table over the schedule's labels.  Along any right Folner
schedule it converges to the projection onto the vectors on which the
representation acts by evaluation at the identity: the span of the basis
vectors whose point has chi_a(p) = dim(a) for every generating label a.
Dimensions are finite, so strong convergence is checked in Frobenius norm,
which in the basis V is the 2-norm of the difference of two diagonals: no
dense operator is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .fusion import FolnerSchedule, LatticeRing, reduce_along
from .groups import CompactGroupModel, FiniteGroupModel, TorusModel


@dataclass(eq=False)
class FiniteDimRep:
    """A *-representation on a finite-dimensional Hilbert space in diagonal
    form: the points of `model` on the diagonal and the unitary `basis` V
    that carries the diagonal (None for the standard basis), with
    `basis_residue` = ||V^H V - I||_F, measured once (0.0 for the standard
    basis)."""

    model: CompactGroupModel
    points: list
    kind: str
    basis: np.ndarray | None = None
    cyclic_vector: np.ndarray | None = None
    basis_residue: float = 0.0

    @property
    def ring(self):
        return self.model.ring

    @property
    def dim(self) -> int:
        return len(self.points)

    def __repr__(self):
        return f"<FiniteDimRep {self.kind} dim={self.dim} on {self.ring.name}>"


def point_rep(model: CompactGroupModel, points) -> FiniteDimRep:
    """Evaluation of functions at finitely many group points: pi(chi(a)) is
    the diagonal matrix of character values.  Pointwise evaluation respects
    products and adjoints, so this is a *-representation."""
    points = list(points)
    if not points:
        raise InvalidInputError("point_rep needs at least one point")
    return FiniteDimRep(model, points, "point-rep")


def _mixing(rank: int) -> np.ndarray:
    """Fixed weights c_j of H = sum_j c_j U_j + conj(c_j) U_j^H, which acts on
    a joint eigenvector by 2 sum_j |c_j| cos(theta_j + arg c_j); moduli and
    phases with no rational relation keep distinct joint eigenvalues apart."""
    j = np.arange(1, rank + 1)
    return np.sqrt(j) * np.exp(1j * j)


def group_rep(ring: LatticeRing, generator_images, tol: float = 1e-10) -> FiniteDimRep:
    """Unitary representation of a discrete abelian group given by commuting
    generator images.  Labels of the dual-group ring are group words; all
    dimensions are 1, so the Cesaro average is the plain unweighted average
    of the word unitaries U^s.

    The eigenvectors V of one fixed Hermitian combination of the images must
    make every V^H U_j V diagonal to `tol`; the diagonals are the joint
    eigenvalues, read as points of the torus dual to `ring`.  The basis
    residue ||V^H V - I||_F is measured once, here.
    """
    if not isinstance(ring, LatticeRing):
        raise InvalidInputError("group_rep needs a dual-group (lattice) ring")
    images = [np.asarray(u, dtype=complex) for u in generator_images]
    if len(images) != ring.rank:
        raise InvalidInputError(f"need {ring.rank} generator images, got {len(images)}")
    k = images[0].shape[0] if images[0].ndim == 2 else 0
    for u in images:
        if k == 0 or u.shape != (k, k):
            raise InvalidInputError("generator images must be square and equally sized")
        if not np.all(np.abs(u @ u.conj().T - np.eye(k)) <= tol):
            raise InvalidInputError("generator images must be unitary")
    mix = sum(c * u for c, u in zip(_mixing(ring.rank), images))
    _, basis = np.linalg.eigh(mix + mix.conj().T)
    joint = []
    for u in images:
        d = basis.conj().T @ u @ basis
        if not np.all(np.abs(d - np.diag(np.diag(d))) <= tol):
            raise InvalidInputError(
                f"generator images must commute: they are not jointly diagonal to {tol:g}")
        joint.append(np.diag(d) / np.abs(np.diag(d)))
    points = [complex(p[0]) if ring.rank == 1 else tuple(map(complex, p)) for p in zip(*joint)]
    residue = float(np.linalg.norm(basis.conj().T @ basis - np.eye(k)))
    return FiniteDimRep(TorusModel(ring.rank, ring=ring), points, "group-rep", basis=basis,
                        basis_residue=residue)


def gns_rep(model: FiniteGroupModel, state) -> FiniteDimRep:
    """The representation generated by a state on the functions of a finite
    group: multiplication operators on the weighted L2 space of the state's
    support, with the constant function as cyclic vector."""
    if not isinstance(model, FiniteGroupModel):
        raise InvalidInputError("gns_rep is materialized for finite groups only")
    if not isinstance(state, (list, tuple, np.ndarray)) or any(
            isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating))
            for x in state):
        raise InvalidInputError("state must be a list of real numbers")
    phi = np.asarray(state, dtype=float)
    if phi.shape != (model.order,):
        raise InvalidInputError(f"state must have one entry per element ({model.order})")
    if not np.all(np.isfinite(phi) & (phi >= 0)):
        raise InvalidInputError("state entries must be finite and nonnegative")
    total = float(phi.sum())
    if total <= 0:
        raise InvalidInputError("state must not be the zero vector")
    phi = phi / total
    support = [i for i in range(model.order) if phi[i] > 0]
    return FiniteDimRep(model, support, "gns-rep", cyclic_vector=np.sqrt(phi[support]))


def _averages(rep: FiniteDimRep, schedule: FolnerSchedule) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal a_n of every step's average M_n in the representation's
    basis, one row per step, and the steps' weighted cardinalities."""

    def terms(table, dims):
        return dims[:, None] * rep.model.characters(table, rep.points)

    sums, wcards = reduce_along(schedule, rep.ring, terms, len(rep.points))
    return sums / np.asarray(wcards, dtype=float)[:, None], wcards


def _invariant(rep: FiniteDimRep, generating_labels) -> np.ndarray:
    """The diagonal of the orthogonal projection onto the joint eigenspace
    { x : pi(chi(a)) x = dim(a) x } over the generating labels: 1.0 at the
    points p with |chi_a(p) - dim(a)| <= 1e-8 * dim(a) for every generating
    label a (|chi_a| is at most dim(a), so the threshold scales with it),
    0.0 elsewhere."""
    labels = list(generating_labels)
    if not labels:
        raise InvalidInputError("generating_labels must be nonempty")
    table = rep.ring.label_table(labels)
    dims = rep.ring.dims_of(table).astype(float)[:, None]
    chis = rep.model.characters(table, rep.points)
    return np.all(np.abs(chis - dims) <= 1e-8 * dims, axis=0).astype(float)


@dataclass
class ErgodicReport:
    """Per-step Cesaro averages with convergence diagnostics, in the
    representation's basis, where every M_n and P are diagonal.

    Each average satisfies max|a_n| <= 1 + roundoff, its entries being
    averages of chi_a(p)/dim(a), of modulus at most one, with weights
    dim(a)^2/|F|_w summing to one."""

    schedule: FolnerSchedule
    weighted_cardinalities: np.ndarray
    averages: np.ndarray            # row n: the diagonal a_n of M_n
    distances: np.ndarray           # ||M_n - P||_F = ||a_n - p||_2
    commutant_residues: np.ndarray  # the basis residue at every step
    invariant: np.ndarray           # the diagonal p of P
    tol: float
    passed: bool


def ergodic_limit_check(rep: FiniteDimRep, schedule: FolnerSchedule, generating_labels,
                        tol: float = 1e-8) -> ErgodicReport:
    """Track ||M_n - P||_F along the schedule, where P is the invariant
    projection of the generating labels.  M_n and P are diagonal in the
    representation's basis V, so each distance is the row norm ||a_n - p||_2
    and no dense operator is built.  Every commutator [M_n, pi(chi(g))]
    vanishes there; with V unitary only to ||V^H V - I||_F, its norm is at
    most 2 dim(g) times that basis residue plus rounding, so the residue
    stands for the commutant residues.  Passes when the final distance and
    the basis residue are below tol."""
    averages, wcards = _averages(rep, schedule)
    invariant = _invariant(rep, generating_labels)  # checks the labels, rejects an empty list
    diff = averages - invariant
    dists = np.sqrt(np.sum(diff.real**2, axis=1) + np.sum(diff.imag**2, axis=1))
    return ErgodicReport(
        schedule=schedule,
        weighted_cardinalities=wcards,
        averages=averages,
        distances=dists,
        commutant_residues=np.full(len(dists), rep.basis_residue),
        invariant=invariant,
        tol=tol,
        passed=bool(dists[-1] < tol and rep.basis_residue < tol),
    )
