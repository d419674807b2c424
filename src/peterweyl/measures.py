"""Finite Borel measures stored as atoms plus a Peter-Weyl density.

A measure is a finite list of weighted point masses together with a finitely
supported coefficient family D(a), representing the density
``f(g) = sum_a dim(a) * trace(D(a) @ U^a(g)^H)`` against Haar.  With that
normalization the Fourier coefficient matrix of the density part at a is
D(a) itself, so every coefficient of the measure is exact up to element
evaluation roundoff:

    fourier_matrix(mu, a) = sum_i w_i U^a(x_i) + D(a).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .fusion import COST_S, _check_work
from .groups import CompactGroupModel, resolve

# atoms closer than this are rejected as duplicates at construction time
ATOM_DISTINCT_TOL = 1e-12
# atom_weight_at counts the atoms this close to the queried point (quaternion roundoff)
ATOM_MERGE_TOL = 1e-9


class MeasureSpec:
    """Atoms + density coefficients on a compact group model.

    Atom weights must be strictly positive reals and atom locations pairwise
    distinct; density matrices may be arbitrary complex (the published
    statements concern positive measures).  Instances are immutable.
    """

    def __init__(self, model: CompactGroupModel, atoms=(), density=None):
        self.model = model
        ring = model.ring
        checked = []
        for g, w in atoms:
            if isinstance(w, (bool, np.bool_)):
                raise InvalidInputError(f"atom weight {w!r} must be a number, not a bool")
            try:
                w = float(w)
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"atom weight {w!r} must be a number") from exc
            if not (math.isfinite(w) and w > 0):
                raise InvalidInputError(f"atom weight {w} must be finite and strictly positive")
            checked.append((g, w))
        _check_work(math.comb(len(checked), 2) * COST_S["distinct pair"],
                    f"the distinct check of {len(checked)} atoms")
        for i in range(len(checked)):
            for j in range(i + 1, len(checked)):
                if model.distance(checked[i][0], checked[j][0]) <= ATOM_DISTINCT_TOL:
                    raise InvalidInputError("atoms must be pairwise distinct")
        self.atoms = tuple(checked)
        dens = {}
        for label, mat in (density or {}).items():
            d = ring.dim(label)
            arr = np.array(mat, dtype=complex)
            if arr.shape != (d, d):
                raise InvalidInputError(
                    f"density matrix for {label!r} must be {d}x{d}, got {arr.shape}"
                )
            arr.setflags(write=False)
            dens[label] = arr
        self.density = dens
        triv = ring.trivial
        if triv in dens and abs(dens[triv][0, 0].imag) > 1e-8:
            raise InvalidInputError("trivial density entry must be real")

    def density_support(self) -> list:
        return self.model.ring.sorted_labels(self.density)

    def __repr__(self):
        return (
            f"MeasureSpec({self.model.name}, {len(self.atoms)} atoms, "
            f"density on {len(self.density)} labels)"
        )


def dirac(model: CompactGroupModel, g, weight: float = 1.0) -> MeasureSpec:
    """The point mass weight * delta_g."""
    return MeasureSpec(model, atoms=[(g, weight)])


def haar(model: CompactGroupModel, mass: float = 1.0) -> MeasureSpec:
    """Haar measure scaled to the given total mass (density f = mass)."""
    return MeasureSpec(model, density={model.ring.trivial: [[mass]]})


def _atom_part(model: CompactGroupModel, atoms, label) -> np.ndarray:
    d = model.ring.dim(label)
    out = np.zeros((d, d), dtype=complex)
    for g, w in atoms:
        out += w * model.irrep_matrix(label, g)
    return out


def fourier_matrix(mu: MeasureSpec, label) -> np.ndarray:
    """mu(u^a_ij) as a dim(a) x dim(a) matrix: atom sum plus D(a)."""
    out = _atom_part(mu.model, mu.atoms, label)
    if label in mu.density:
        out = out + mu.density[label]
    return out


def total_mass(mu: MeasureSpec) -> float:
    """mu(G), the coefficient at the trivial label: the atom weights (the
    trivial irrep is 1 everywhere) plus the real part of the trivial density
    entry, whose imaginary part MeasureSpec bounds by 1e-8."""
    triv = mu.model.ring.trivial
    value = sum((w for _, w in mu.atoms), 0.0)
    if triv in mu.density:
        value += mu.density[triv][0, 0].real
    return value


def atom_list(mu: MeasureSpec) -> tuple:
    """Ground-truth atoms; consumed by oracles only, never by averaging."""
    return mu.atoms


def atom_weight_at(mu: MeasureSpec, y) -> float:
    """Oracle weight mu{y} from the stored atoms within ATOM_MERGE_TOL of y."""
    return sum(w for g, w in mu.atoms if mu.model.distance(g, y) <= ATOM_MERGE_TOL)


def scalar_from_json(entry) -> complex:
    pair = [entry, 0] if isinstance(entry, (int, float)) else entry
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2) or any(
            isinstance(x, bool) for x in pair):
        raise InvalidInputError(f"matrix entry {entry!r} must be a number or [re, im]")
    try:
        re, im = float(pair[0]), float(pair[1])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"matrix entry {entry!r} must be a number or [re, im]") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InvalidInputError(f"matrix entry {entry!r} is not finite")
    return complex(re, im)


def matrix_from_json(rows, what: str) -> np.ndarray:
    """A complex matrix from a list of equally long rows of entries."""
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == len(rows[0]) for row in rows)):
        raise InvalidInputError(f"{what} {rows!r} must be a list of equally long rows")
    return np.array([[scalar_from_json(e) for e in row] for row in rows], dtype=complex)


def measure_from_json(obj: dict) -> MeasureSpec:
    """Parse the measure-spec JSON schema, which has no other field:

    {"group": <ring id>,
     "atoms": [{"element": <literal>, "weight": <float>}, ...],
     "density": [{"irrep": <label literal>, "matrix": [[entry, ...], ...]}, ...]}
    """
    if not isinstance(obj, dict):
        raise InvalidInputError("measure spec must be a JSON object")
    unknown = [name for name in obj if name not in ("group", "atoms", "density")]
    if unknown:  # a misspelled field would be dropped in silence
        raise InvalidInputError(f"measure spec has no field {unknown[0]!r}")
    if "group" not in obj:
        raise InvalidInputError("measure spec is missing the 'group' field")
    ring, model = resolve(obj["group"])
    if model is None:
        raise InvalidInputError(
            f"ring {obj['group']!r} has no point model; measures need a compact group"
        )
    if not all(isinstance(obj.get(name, []), list) for name in ("atoms", "density")):
        raise InvalidInputError("measure spec fields 'atoms' and 'density' must be lists")
    atoms = []
    for k, entry in enumerate(obj.get("atoms", [])):
        try:
            atoms.append((model.parse_element(entry["element"]), entry["weight"]))
        except InvalidInputError:
            raise
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"atoms[{k}] needs 'element' and numeric 'weight' fields") from exc
    entries = obj.get("density", [])
    for k, entry in enumerate(entries):
        if not (isinstance(entry, dict) and {"irrep", "matrix"} <= entry.keys()):
            raise InvalidInputError(f"density[{k}] needs 'irrep' and 'matrix' fields")
    # every irrep literal is read in one batch
    labels = ring.labels_of(ring.parse_table([entry["irrep"] for entry in entries]))
    density = {}
    for k, (entry, label) in enumerate(zip(entries, labels)):
        if label in density:
            raise InvalidInputError(f"density[{k}] repeats irrep {entry['irrep']!r}")
        density[label] = matrix_from_json(entry["matrix"], f"density[{k}] matrix")
    return MeasureSpec(model, atoms=atoms, density=density)


def measure_to_json(mu: MeasureSpec) -> dict:
    """Canonical JSON form: atoms in stored order, density in ring order."""
    ring = mu.model.ring
    return {
        "group": ring.name,
        "atoms": [
            {"element": mu.model.format_element(g), "weight": w} for g, w in mu.atoms
        ],
        "density": [
            {
                "irrep": ring.format_label(label),
                "matrix": [[[z.real, z.imag] for z in row] for row in mu.density[label]],
            }
            for label in mu.density_support()
        ],
    }
