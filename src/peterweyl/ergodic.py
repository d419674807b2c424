"""Cesaro operator averages of finite-dimensional *-representations.

A representation is presented through the operators pi(chi(a)) assigned to
the characters of the dual's labels.  The weighted average

    M_F = (1/|F|_w) sum_{a in F} dim(a) * pi(chi(a))

converges along any right Folner schedule to the orthogonal projection onto
the vectors on which the representation acts through evaluation at the
identity, i.e. the joint eigenspace { x : pi(chi(a)) x = dim(a) x for all a }.
Dimensions are finite here, so strong operator convergence is checked in
Frobenius norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .fusion import FolnerSchedule, FusionRing, LatticeRing, reduce_along
from .groups import CompactGroupModel, FiniteGroupModel


class FiniteDimRep:
    """A *-representation on a finite-dimensional Hilbert space, exposed as
    the map label -> pi(chi(label)).  Values are cached per label."""

    def __init__(self, ring: FusionRing, dim: int, evaluator: Callable, kind: str,
                 cyclic_vector: np.ndarray | None = None):
        self.ring = ring
        self.dim = int(dim)
        self.kind = kind
        self.cyclic_vector = cyclic_vector
        self._evaluator = evaluator
        self._cache: dict = {}

    def chi(self, label) -> np.ndarray:
        """pi(chi(label)) as a dim x dim complex matrix."""
        self.ring.check_label(label)
        if label not in self._cache:
            mat = np.asarray(self._evaluator(label), dtype=complex)
            if mat.shape != (self.dim, self.dim):
                raise InvalidInputError(
                    f"evaluator returned shape {mat.shape}, expected {(self.dim, self.dim)}"
                )
            self._cache[label] = mat
        return self._cache[label]

    def __repr__(self):
        return f"<FiniteDimRep {self.kind} dim={self.dim} on {self.ring.name}>"


def point_rep(model: CompactGroupModel, points) -> FiniteDimRep:
    """Evaluation of functions at finitely many group points: pi(chi(a)) is
    the diagonal matrix of character values.  Pointwise evaluation respects
    products and adjoints, so this is a *-representation."""
    points = list(points)
    if not points:
        raise InvalidInputError("point_rep needs at least one point")

    def evaluator(label):
        return np.diag(model.characters([label], points)[0])

    return FiniteDimRep(model.ring, len(points), evaluator, "point-rep")


def group_rep(ring: LatticeRing, generator_images, tol: float = 1e-10) -> FiniteDimRep:
    """Unitary representation of a discrete abelian group given by generator
    images.  Labels of the dual-group ring are group words; all dimensions
    are 1, so the Cesaro average is the plain unweighted average of the word
    unitaries U^s."""
    if not isinstance(ring, LatticeRing):
        raise InvalidInputError("group_rep needs a dual-group (lattice) ring")
    images = [np.asarray(u, dtype=complex) for u in generator_images]
    if len(images) != ring.rank:
        raise InvalidInputError(f"need {ring.rank} generator images, got {len(images)}")
    k = images[0].shape[0]
    eye = np.eye(k, dtype=complex)
    for u in images:
        if u.shape != (k, k):
            raise InvalidInputError("generator images must be square and equally sized")
        if np.max(np.abs(u @ u.conj().T - eye)) > tol:
            raise InvalidInputError("generator images must be unitary")
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if np.max(np.abs(images[i] @ images[j] - images[j] @ images[i])) > tol:
                raise InvalidInputError("generator images must commute")

    # incremental power tables; unitarity gives U^-1 = U^H exactly
    powers: list[dict[int, np.ndarray]] = [{0: eye, 1: u, -1: u.conj().T} for u in images]

    def power(i: int, e: int) -> np.ndarray:
        table = powers[i]
        if e not in table:
            step = 1 if e > 0 else -1
            base = max(k for k in table if (k <= e if e > 0 else k >= e) and k * step >= 0)
            mat = table[base]
            for m in range(base + step, e + step, step):
                mat = mat @ table[step]
                table[m] = mat
        return table[e]

    def evaluator(label):
        word = (label,) if ring.rank == 1 else label
        out = power(0, word[0])
        for i, e in enumerate(word[1:], start=1):
            out = out @ power(i, e)
        return out

    return FiniteDimRep(ring, k, evaluator, "group-rep")


def gns_rep(model: FiniteGroupModel, state) -> FiniteDimRep:
    """The representation generated by a state on the functions of a finite
    group: multiplication operators on the weighted L2 space of the state's
    support, with the constant function as cyclic vector."""
    if not isinstance(model, FiniteGroupModel):
        raise InvalidInputError("gns_rep is materialized for finite groups only")
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

    def evaluator(label):
        return np.diag(model.characters([label], support)[0])

    cyclic = np.sqrt(phi[support])
    return FiniteDimRep(model.ring, len(support), evaluator, "gns-rep", cyclic_vector=cyclic)


def _cesaro_averages(rep: FiniteDimRep, schedule: FolnerSchedule) -> tuple[list, np.ndarray]:
    """The averages M_n of every schedule step, and their weighted cardinalities."""
    ring = rep.ring
    sums, wcards = reduce_along(
        schedule, ring, lambda labels: [ring.dim(a) * rep.chi(a) for a in labels])
    return [m / int(w) for m, w in zip(sums, wcards)], wcards


def cesaro_operator(rep: FiniteDimRep, F) -> np.ndarray:
    """(1/|F|_w) sum over F of dim(a) * pi(chi(a)), in ring label order."""
    return _cesaro_averages(rep, FolnerSchedule(rep.ring, (F,)))[0][0]


def invariant_projection(rep: FiniteDimRep, generating_labels) -> np.ndarray:
    """Orthogonal projection onto the joint eigenspace
    { x : pi(chi(a)) x = dim(a) x } over the generating labels.

    Null spaces are accumulated one label at a time by singular-value
    thresholding at 1e-8 * dim(a) (the operator norm of pi(chi(a)) can reach
    dim(a), so the threshold scales with it).  An empty intersection yields
    the zero projection.
    """
    ring = rep.ring
    labels = ring.sorted_labels({ring.check_label(a) for a in generating_labels})
    if not labels:
        raise InvalidInputError("generating_labels must be nonempty")
    basis = np.eye(rep.dim, dtype=complex)
    for a in labels:
        if basis.shape[1] == 0:
            break
        d = ring.dim(a)
        restricted = (rep.chi(a) - d * np.eye(rep.dim)) @ basis
        _, svals, vh = np.linalg.svd(restricted)
        rank = int(np.sum(svals > 1e-8 * d))
        basis = basis @ vh.conj().T[:, rank:]
    return basis @ basis.conj().T


@dataclass
class ErgodicReport:
    """Per-step Cesaro averages with convergence diagnostics.

    The operator averages M_n themselves are kept (dimensions are desk
    scale); each satisfies ||M_n||_op <= 1 + roundoff, being an average of
    contractions with weights dim^2/|F|_w summing to one."""

    schedule: FolnerSchedule
    weighted_cardinalities: np.ndarray
    operators: tuple                # the averages M_n, one per step
    distances: np.ndarray           # ||M_n - P||_F
    commutant_residues: np.ndarray  # max_gamma ||[M_n, pi(chi(gamma))]||_F
    projection: np.ndarray
    tol: float
    passed: bool


def ergodic_limit_check(rep: FiniteDimRep, schedule: FolnerSchedule, generating_labels,
                        tol: float = 1e-8) -> ErgodicReport:
    """Track ||M_n - P||_F and the commutant residues of M_n along the
    schedule, where P is the invariant projection of the generating labels.
    Passes when both final values are below tol."""
    gens = list(generating_labels)
    proj = invariant_projection(rep, gens)  # checks the labels and rejects an empty list
    operators, wcards = _cesaro_averages(rep, schedule)
    dists = [float(np.linalg.norm(m - proj)) for m in operators]
    chis = [rep.chi(g) for g in gens]
    comms = [max(float(np.linalg.norm(m @ c - c @ m)) for c in chis) for m in operators]
    return ErgodicReport(
        schedule=schedule,
        weighted_cardinalities=wcards,
        operators=tuple(operators),
        distances=np.asarray(dists),
        commutant_residues=np.asarray(comms),
        projection=proj,
        tol=tol,
        passed=bool(dists[-1] < tol and comms[-1] < tol),
    )
