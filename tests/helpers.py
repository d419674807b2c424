"""Test-side readings of the library's one reduction path and its Folner
pass, label sets read off the rings' tables, dense oracles that share no
code with `ergodic`, Haar-random elements of each model, and decimal
label literals on and outside the edge of their grammar."""

import math

import numpy as np

from peterweyl import (FolnerSchedule, InvalidInputError, boundary, ergodic_limit_check,
                       fourier_matrix, run_series)
from peterweyl import fusion
from peterweyl.groups import FiniteGroupModel, SU2Model, TorusModel


def enumerate_labels(ring, bound) -> list:
    """The first `bound` labels in the ring's order (all of them when it has fewer)."""
    return ring.labels_of(ring.first_table(bound))


def full_dual(ring) -> frozenset:
    """Every label of a finite dual."""
    return frozenset(enumerate_labels(ring, len(ring.dims)))


def is_valid_label(ring, label) -> bool:
    """Whether `check_label` accepts the value."""
    try:
        ring.check_label(label)
    except InvalidInputError:
        return False
    return True


def multiplicity(ring, a, b, c) -> int:
    """The fusion multiplicity N[a,b]^c, read off `fuse`."""
    return ring.fuse(a, b).get(c, 0)


def schedule_labels(schedule) -> tuple:
    """The labels of the schedule's table, in ring order."""
    return tuple(schedule.ring.labels_of(schedule.table))


def wcard(F, ring) -> int:
    """|F|_w, the sum of dim(a)**2 over the distinct labels of F, summed here."""
    return sum(ring.dim(a) ** 2 for a in set(F))


def folner_ratio(F, S, ring) -> float:
    """|boundary(F,S)|_w / |F|_w from `boundary` on the one-set schedule,
    divided as Python ints (correctly rounded)."""
    schedule = FolnerSchedule(ring, (F,))
    return int(boundary(schedule, S)[0]) / int(schedule.weighted_cardinalities[0])


def boundary_sets(schedule, S) -> list:
    """Each step's boundary relative to S as a frozenset of labels: the CSR
    table of the stepwise pass (`fusion._step_boundaries`), read as labels."""
    ring = schedule.ring
    pairs = fusion._fusion_pairs(schedule, fusion._generators(ring, S))
    indptr, indices = fusion._step_boundaries(schedule, pairs)
    labels = ring.labels_of(pairs[-1])
    return [frozenset(labels[i] for i in ids.tolist()) for ids in np.split(indices, indptr[1:-1])]


def average(kind, mu, F, at=None) -> complex:
    """The `kind` average of mu over the one set F: `run_series` on a one-step schedule."""
    return run_series(kind, mu, FolnerSchedule(mu.model.ring, (F,)), at=at).final


def energy(mu, F) -> float:
    """The energy average over F, real and nonnegative by construction: its
    imaginary residue must vanish to 1e-12."""
    value = average("energy", mu, F)
    assert abs(value.imag) <= 1e-12, value
    return value.real


def energy_by_definition(mu, F) -> float:
    """(1/|F|_w) sum_{a in F} d_a ||mu_hat(a)||_F^2 with mu_hat(a) = fourier_matrix(mu, a):
    the energy average from the matrices, sharing no code with the character path."""
    ring = mu.model.ring
    total = sum(ring.dim(a) * np.sum(np.abs(fourier_matrix(mu, a)) ** 2) for a in F)
    return total / wcard(F, ring)


def density_value(mu, g) -> float:
    """The density part of mu at g by Peter-Weyl inversion:
    sum_a dim(a) tr(D(a) U^a(g)^H)."""
    value = sum(mu.model.ring.dim(a) * np.trace(D @ mu.model.irrep_matrix(a, g).conj().T)
                for a, D in mu.density.items())
    assert abs(np.imag(value)) <= 1e-8, value
    return float(np.real(value))


def operator(rep, diagonal) -> np.ndarray:
    """V diag(diagonal) V^H: the dense operator of a diagonal in the basis V
    of `rep` (the standard basis when `rep.basis` is None)."""
    diagonal = np.asarray(diagonal, dtype=complex)
    if rep.basis is None:
        return np.diag(diagonal)
    return (rep.basis * diagonal) @ rep.basis.conj().T


def chi(rep, label) -> np.ndarray:
    """pi(chi(label)) as a dense matrix, from the character values at the rep's points."""
    return operator(rep, rep.model.characters([label], rep.points)[0])


def cesaro(rep, F) -> np.ndarray:
    """The dense Cesaro average over the one set F, from the diagonal that
    `ergodic_limit_check` reports."""
    schedule = FolnerSchedule(rep.ring, (F,))
    return operator(rep, ergodic_limit_check(rep, schedule, [rep.ring.trivial]).averages[0])


def projection(rep, generating_labels) -> np.ndarray:
    """The dense invariant projection of the generating labels, from the
    diagonal that `ergodic_limit_check` reports."""
    schedule = FolnerSchedule(rep.ring, ([rep.ring.trivial],))
    return operator(rep, ergodic_limit_check(rep, schedule, generating_labels).invariant)


def from_axis_angle(axis, angle: float):
    """The SU(2) rotation by `angle` about the 3-vector `axis` (need not be
    unit), as a unit quaternion (a, b)."""
    x, y, z = (float(v) for v in axis)
    r = math.sqrt(x * x + y * y + z * z)
    if r < 1e-12:
        raise InvalidInputError("axis must be nonzero")
    s = math.sin(angle / 2) / r
    return (complex(math.cos(angle / 2), z * s), complex(y * s, x * s))


def _torus_sample(model, rng):
    phases = np.exp(2j * np.pi * rng.random(model.rank))
    return complex(phases[0]) if model.rank == 1 else tuple(complex(z) for z in phases)


def _su2_sample(model, rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return (complex(v[0], v[1]), complex(v[2], v[3]))


def _finite_sample(model, rng):
    return int(rng.integers(model.order))


_SAMPLERS = {TorusModel: _torus_sample, SU2Model: _su2_sample, FiniteGroupModel: _finite_sample}


def haar_sample(model, rng):
    """A Haar-random element of `model`, drawn from `rng` by its model type."""
    return _SAMPLERS[type(model)](model, rng)


# decimal label literal components, each in the grammar and a label of Z
CANONICAL_EDGES = ["0", "-0", "007", "-0012", "9" * 18, "-" + "9" * 18, "1" + "0" * 17]
# components on the edge of the grammar -?[0-9]{1,19}: up to 10**18 labels of Z; then
# 2**62 or more in modulus, no label, the nineteen nines beyond int64 too
EDGE_COMPONENTS = CANONICAL_EDGES + [
    "0" * 18 + "1", str(2 ** 62 - 1), str(-(2 ** 62 - 1)), "1" + "0" * 18,
    str(2 ** 62), str(-(2 ** 62)), "9" * 19, "-" + "9" * 19,
]
# strings outside the grammar, each refused: blanks, signs, `_`, non-ASCII digits, empty
# parts, line breaks, ';' inside a label, 20 digits
NON_LITERALS = ["", " 1 ", "+3", "3_0", "\u0661", "\u0661,2", "-", "--1", "1-", "1w:2", "w:",
                "\xe9", "0x1", "1e3", "\n1", "1\n", "\ud800", "1" * 20, "w:w:1", " w:1", "1,",
                ";1", "1;2", "1,,2"]
