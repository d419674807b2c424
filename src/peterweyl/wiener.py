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

from .errors import InvalidInputError
from .fusion import COST_S, FolnerSchedule, _check_work, reduce_along
from .measures import MeasureSpec, atom_weight_at

KINDS = ("atom", "energy", "char")


def _terms(kind: str, mu: MeasureSpec, y=None):
    """The batched term function of one average: (label table, dims) -> d_a * (...)."""
    model, atoms = mu.model, mu.atoms

    def terms(table, dims) -> np.ndarray:
        d = dims.astype(float)
        count = len(atoms) * (len(atoms) - 1) // 2 if kind == "energy" else len(atoms)
        cost = COST_S["character column"] + len(table) * COST_S["character entry"]
        _check_work(count * cost, f"the {kind} average's {count} character columns")
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


@dataclass
class AverageSeries:
    """Per-step values of one average, one per step of the schedule it ran on."""

    values: np.ndarray
    target: float  # the limit predicted by the stored atoms

    @property
    def final(self) -> complex:
        return complex(self.values[-1])


def run_series(kind: str, mu: MeasureSpec, schedule: FolnerSchedule, at=None) -> AverageSeries:
    """Evaluate the chosen average at every schedule step.

    One reduction serves every schedule, nested or not: the terms of all
    distinct labels are computed in one batch, and each step's value is the
    sum of its terms in ring order divided by its weighted cardinality.  So every value
    equals the single-set average of that step's set to the bit.  The series
    holds the values and the limit predicted by the stored atoms (an oracle,
    unavailable to the averaging itself) as `target`: mu{y} for atom, sum of
    squared weights for energy, mu{e} for char.  The steps' |F|_w stay on the
    schedule, as `schedule.weighted_cardinalities`.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"unknown average kind {kind!r}; expected one of {KINDS}")
    if kind == "atom" and at is None:
        raise InvalidInputError("atom averages need an evaluation point")
    # a non-finite value is left to the caller's check: it warns of nothing here,
    # and an infinite part times 0.0 is nan, as in Python
    with np.errstate(invalid="ignore", over="ignore"):
        sums = reduce_along(schedule, mu.model.ring, _terms(kind, mu, at))
        wcards = schedule.weighted_cardinalities
        # CPython's complex / int by column (numpy's complex128 / int differs in the last bit)
        values = ((sums.real + sums.imag * 0.0) / wcards).astype(complex)
        values.imag = (sums.imag - sums.real * 0.0) / wcards
    if kind == "atom":
        target = atom_weight_at(mu, at)
    elif kind == "energy":
        target = sum(w * w for _, w in mu.atoms)
    else:
        target = atom_weight_at(mu, mu.model.identity())
    return AverageSeries(values, target)
