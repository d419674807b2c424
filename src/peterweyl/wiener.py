"""Truncated weighted averages that detect atoms of a measure.

For a finite label set F with weighted cardinality |F|_w, the three averages
are (writing mu_hat(a) = fourier_matrix(mu, a), d_a = dim(a)):

- atom:   (1/|F|_w) sum_a d_a trace(mu_hat(a) @ U^a(y)^H)   -> mu{y}
- energy: (1/|F|_w) sum_a d_a ||mu_hat(a)||_F^2             -> sum_x mu{x}^2
- char:   (1/|F|_w) sum_a d_a trace(mu_hat(a))              -> mu{e}

along any right Folner schedule.  For a measure with atoms (x_i, w_i) and
density coefficients D(a), the atomic part of each term is a class function
of the atoms, so it is read off characters, batched over all labels at once:

- atom:   d_a sum_i w_i chi_a(x_i y^-1)
- energy: d_a sum_{i,j} w_i w_j Re chi_a(x_i^-1 x_j), real by construction
- char:   d_a sum_i w_i chi_a(x_i)

Matrices enter only at the labels of the density support, which add
d_a trace(D U^a(y)^H), d_a (||D||^2 + 2 Re sum_i w_i trace(U^a(x_i)^H D))
and d_a trace(D) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidInputError
from .fusion import FolnerSchedule, reduce_along
from .measures import MeasureSpec, atom_weight_at

KINDS = ("atom", "energy", "char")


def _terms(kind: str, mu: MeasureSpec, y=None):
    """The batched term function of one average: (label table, dims) -> d_a * (...)."""
    model, atoms = mu.model, mu.atoms

    def terms(table, dims) -> np.ndarray:
        d = dims.astype(float)
        if kind == "atom":
            y_inv = model.inverse(y)
            sums = model.character_sums(table, ((w, model.multiply(x, y_inv)) for x, w in atoms))
        elif kind == "char":
            sums = model.character_sums(table, ((w, x) for x, w in atoms))
        else:
            # chi_a(e) = d_a on the diagonal; the pairs i < j count twice, as
            # Re chi_a(g^-1) = Re chi_a(g)
            pairs = ((2 * wi * wj, model.multiply(model.inverse(xi), xj))
                     for i, (xi, wi) in enumerate(atoms) for xj, wj in atoms[i + 1:])
            sums = d * sum(w * w for _, w in atoms) + model.character_sums(table, pairs).real
        # the density labels, found among the table's rows
        for (a, D), row in zip(mu.density.items(), model.ring.label_table(list(mu.density))):
            for k in np.flatnonzero(np.all(table == row, axis=1)).tolist():
                if kind == "atom":
                    sums[k] += np.vdot(model.irrep_matrix(a, y), D)
                elif kind == "char":
                    sums[k] += np.trace(D)
                else:
                    cross = sum(w * np.vdot(model.irrep_matrix(a, x), D) for x, w in atoms)
                    sums[k] += np.vdot(D, D).real + 2 * np.real(cross)
        return d * sums

    return terms


def atom_average(mu: MeasureSpec, y, F) -> complex:
    """Truncated average localizing the measure at y; converges to mu{y}."""
    return run_series("atom", mu, FolnerSchedule(mu.model.ring, (F,)), at=y).final


def energy_average(mu: MeasureSpec, F) -> float:
    """Truncated Fourier energy; converges to the sum of squared atom weights.

    Real and nonnegative by construction (a weighted mean of squared
    Frobenius norms), so an imaginary residue above 1e-12 is a consistency
    failure.
    """
    value = run_series("energy", mu, FolnerSchedule(mu.model.ring, (F,))).final
    if not abs(value.imag) <= 1e-12:
        raise ConsistencyError(f"energy average {value} has an imaginary residue")
    return value.real


def char_average(mu: MeasureSpec, F) -> complex:
    """Truncated character average; converges to the mass of the identity atom."""
    return run_series("char", mu, FolnerSchedule(mu.model.ring, (F,))).final


@dataclass
class AverageSeries:
    """Per-step values of one average along a schedule."""

    kind: str
    schedule: FolnerSchedule
    values: np.ndarray
    weighted_cardinalities: np.ndarray
    target: float | None = None

    def __post_init__(self):
        if len(self.values) != len(self.schedule):
            raise InvalidInputError("values and schedule lengths differ")

    @property
    def final(self) -> complex:
        return complex(self.values[-1])

    def real_values(self) -> np.ndarray:
        return np.real(self.values)


def run_series(kind: str, mu: MeasureSpec, schedule: FolnerSchedule, at=None,
               with_target: bool = False) -> AverageSeries:
    """Evaluate the chosen average at every schedule step.

    One reduction serves every schedule, nested or not: the terms of all
    distinct labels are computed in one batch, and each step's value is the
    sum of its terms in ring order divided by its weighted cardinality.  So every value
    equals the single-set average of that step's set to the bit.  With
    `with_target` the limit predicted by the stored atoms (an oracle,
    unavailable to the averaging itself) is attached: mu{y} for atom, sum of
    squared weights for energy, mu{e} for char.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"unknown average kind {kind!r}; expected one of {KINDS}")
    if kind == "atom" and at is None:
        raise InvalidInputError("atom averages need an evaluation point")
    sums, wcards = reduce_along(schedule, mu.model.ring, _terms(kind, mu, at))
    # Python complex / int, as numpy's complex128 / int differs in the last bit
    values = np.asarray([complex(s) / int(w) for s, w in zip(sums, wcards)], dtype=complex)
    target = None
    if with_target:
        if kind == "atom":
            target = atom_weight_at(mu, at)
        elif kind == "energy":
            target = sum(w * w for _, w in mu.atoms)
        else:
            target = atom_weight_at(mu, mu.model.identity())
    return AverageSeries(kind, schedule, values, wcards, target)


@dataclass
class ContinuityVerdict:
    """Outcome of the atomic/continuous dichotomy test.

    verdict is "continuous", "atomic" or "inconclusive"; for "atomic" the
    estimate is the stabilized energy value, approximating the sum of
    squared atom weights.  The test is a finite-sample heuristic: no
    convergence rate is available, hence the explicit tail and tolerance
    and the honest third outcome.
    """

    verdict: str
    atom_mass_estimate: float | None
    series: AverageSeries

    def __str__(self):
        if self.verdict == "atomic":
            return f"atomic(mass~{self.atom_mass_estimate:.6g})"
        return self.verdict


def continuity_test(mu: MeasureSpec, schedule: FolnerSchedule, tol: float,
                    tail: int) -> ContinuityVerdict:
    """Classify mu as continuous or atomic from the energy series tail.

    Continuous: all of the last `tail` values are below tol and the tail is
    nonincreasing within 2*tol.  Atomic: the tail stabilizes within tol; the
    estimate is the last value.  Anything else is inconclusive.
    """
    if tail < 2:
        raise InvalidInputError("tail must be >= 2")
    if not tol > 0:
        raise InvalidInputError("tol must be positive")
    if len(schedule) < tail:
        raise InvalidInputError(f"schedule has {len(schedule)} steps, need >= {tail}")
    series = run_series("energy", mu, schedule)
    window = series.real_values()[-tail:]
    nonincreasing = bool(np.all(window[1:] <= window[:-1] + 2 * tol))
    if np.all(window < tol) and nonincreasing:
        return ContinuityVerdict("continuous", None, series)
    if float(np.max(window) - np.min(window)) <= tol:
        return ContinuityVerdict("atomic", float(window[-1]), series)
    return ContinuityVerdict("inconclusive", None, series)
