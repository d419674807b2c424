"""Workload inputs and the closed-form oracles that check each CLI output.

Every workload is one *round*: a fixed list of CLI calls on inputs drawn
from the seed.  The seed moves atom positions, eigen-angles, window offsets
and fusion labels; it never changes how many labels, steps or atoms a call
has, so the work per round is the same for every seed.

The oracles import nothing from the program.  They use numpy and the
formulas below, so a wrong CSV cannot agree with them by sharing code:

- lattice Wiener series: Dirichlet-kernel sums over boxes and geometric
  sums over translated windows;
- SU(2) Wiener series: Weyl characters sin((n+1)t/2)/sin(t/2), with the
  density chosen proportional to the identity at every label so that each
  term is a combination of character values;
- group-rep Cesaro checks: generators V diag(e^{i theta}) V^H, so the
  average is V diag(m) V^H with m in closed form, the distance to the
  invariant projection is |m - p| and the commutant residue is roundoff;
- SU(2) point-rep Cesaro checks: the diagonal of Weyl-character averages;
- Folner ratios: exact integers (2N+1)^d - (2N)^d + d(2N+1)^(d-1) for
  boxes, 2(L1+L2) - 1 for an L1 x L2 window, (n+1)^2 + (n+2)^2 for spin
  intervals, each over the exact weighted cardinality;
- fusion: Clebsch-Gordan ranges |a-b|, |a-b|+2, ..., a+b.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("lattice", "spins")

# Tolerance on floating-point CSV columns, relative to max(1, |expected|).
# The program's own roundoff on these inputs stays below 1e-11 (SU(2) labels
# stay at or below 60, where the symmetric-power matrices are still
# accurate); the perturbations the tests apply are 1e-6 or larger.
VALUE_TOL = 1e-8
# commutant residues are pure roundoff for commuting diagonalizable inputs
RESIDUE_TOL = 1e-9

# sizes of one round; changing any of them changes what the benchmark measures
CIRCLE_STEPS = 1500        # circle atom series, boxes {-n..n}, n = 1..1500
TORUS_STEPS = 60           # torus^2 energy series, boxes 1..60
LATTICE_ERGODIC_STEPS = 40  # dualgroup:Z^d:2 Cesaro check, boxes 1..40
Z3_FOLNER_STEPS = 10       # Z^3 Folner ratios, boxes 1..10
SU2_STEPS = 60             # SU(2) series and point-rep check, spins 1..60
SU2_ATOMS = 24
SU2_POINTS = 48            # identity plus 47 Haar-random points
SU2_FOLNER_STEPS = 600
WINDOWS = 40               # translated windows on Z^2
REP_DIM = 6                # dimension of the group representations
FAULT_STEPS = 160          # the SU(2) atom series that today's program gets wrong


@dataclass
class Call:
    """One CLI invocation and the check of its output."""

    subcommand: str
    argv: list[str]
    out: Path
    expect_exit: int
    check: Callable[[list[str], list[list[str]]], None]
    # a call that fails today because of a known program fault (see README)
    known_fault: bool = False
    label: str = ""

    def verify(self, exit_code: int, stderr: str) -> str | None:
        """None when the call behaved as the oracle says, else the reason."""
        if "Traceback" in stderr:
            return "traceback on stderr: " + stderr.strip().splitlines()[-1]
        if exit_code != self.expect_exit:
            return f"exit code {exit_code}, expected {self.expect_exit}: {stderr.strip()[:200]}"
        try:
            text = self.out.read_text()
        except OSError as exc:
            return f"no output file: {exc}"
        try:
            header, rows = read_table(text)
            self.check(header, rows)
        except CheckError as exc:
            return str(exc)
        return None


class CheckError(Exception):
    pass


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CheckError("empty CSV")
    return rows[0], rows[1:]


# ---------------------------------------------------------------- comparisons

def _expect(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def _header(header, expected):
    _expect(header == expected, f"header {header}, expected {expected}")


def _column(rows, j, kind=float) -> np.ndarray:
    try:
        return np.array([kind(r[j]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise CheckError(f"unreadable column {j}: {exc}") from exc


def _ints_equal(name, got, expected):
    expected = np.asarray(expected)
    _expect(len(got) == len(expected), f"{name}: {len(got)} rows, expected {len(expected)}")
    bad = np.nonzero(got != expected)[0]
    if bad.size:
        i = int(bad[0])
        raise CheckError(f"{name} row {i + 1}: {got[i]}, expected {expected[i]}")


def _close(name, got, expected, tol=VALUE_TOL):
    expected = np.asarray(expected, dtype=float)
    _expect(len(got) == len(expected), f"{name}: {len(got)} rows, expected {len(expected)}")
    err = np.abs(got - expected)
    allowed = tol * np.maximum(1.0, np.abs(expected))
    bad = np.nonzero(~(err <= allowed))[0]
    if bad.size:
        i = int(bad[np.argmax(np.nan_to_num(err[bad] / allowed[bad], nan=np.inf))])
        raise CheckError(f"{name}: {bad.size} of {len(got)} rows off by more than {tol:g}, "
                         f"worst row {i + 1}: {float(got[i])!r}, expected {float(expected[i])!r}")


def _steps(rows, n):
    _ints_equal("step", _column(rows, 0, int), np.arange(1, n + 1))


# ------------------------------------------------------------ closed forms

def dirichlet(n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{k=-n..n} e^{ikt} = sin((n+1/2)t)/sin(t/2), broadcast over n and t."""
    n = np.asarray(n, dtype=float)
    t = np.asarray(t, dtype=float)
    s = np.sin(t / 2)
    zero = np.abs(s) < 1e-300
    return np.where(zero, 2 * n + 1, np.sin((n + 0.5) * t) / np.where(zero, 1.0, s))


def window_sum(a: int, length: int, t: np.ndarray) -> np.ndarray:
    """sum_{k=a..a+length-1} e^{ikt}, a geometric sum."""
    t = np.asarray(t, dtype=float)
    e = np.exp(1j * t)
    zero = np.abs(e - 1) < 1e-300
    den = np.where(zero, 1.0, e - 1)
    return np.where(zero, length, np.exp(1j * a * t) * (np.exp(1j * length * t) - 1) / den)


def weyl_character(n: np.ndarray, cos_half: np.ndarray) -> np.ndarray:
    """chi_n(g) = sin((n+1)t/2)/sin(t/2) where cos(t/2) = cos_half."""
    half = np.arccos(np.clip(np.asarray(cos_half, dtype=float), -1.0, 1.0))
    s = np.sin(half)
    n = np.asarray(n, dtype=float)
    zero = np.abs(s) < 1e-300
    # at t = 0 the character is the dimension, at t = 2pi it is (-1)^n (n+1)
    at_pole = (n + 1) * np.where(np.cos(half) > 0, 1.0, np.cos(np.pi * n))
    return np.where(zero, at_pole, np.sin((n + 1) * half) / np.where(zero, 1.0, s))


def box_boundary(n: np.ndarray, d: int) -> np.ndarray:
    """|boundary of {-n..n}^d relative to the unit vectors|, exact."""
    n = np.asarray(n, dtype=object)
    return (2 * n + 1) ** d - (2 * n) ** d + d * (2 * n + 1) ** (d - 1)


def _ratio_column(name, rows, num, den):
    got = _column(rows, 3, float)
    expected = [int(b) / int(w) for b, w in zip(num, den)]
    _expect(len(got) == len(expected), f"{name}: {len(got)} rows, expected {len(expected)}")
    for i, (g, e) in enumerate(zip(got, expected)):
        _expect(g == e, f"{name} row {i + 1}: {g!r}, expected {e!r}")


# ------------------------------------------------------------ literals

def circle_literal(z: complex) -> str:
    return f"z:{float(z.real)!r},{float(z.imag)!r}"


def torus_literal(zs) -> str:
    return "z:" + ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in zs)


def quaternion_literal(q) -> str:
    return "q:" + ",".join(repr(float(x)) for x in q)


def matrix_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _unit_quaternions(rng, count) -> np.ndarray:
    # Haar-random unit quaternions, kept away from +-identity so every point
    # is generic (half-angle cosine below 0.95 in absolute value)
    out = []
    while len(out) < count:
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        if abs(v[0]) < 0.95:
            out.append(v)
    return np.array(out)


def _angles(rng, shape) -> np.ndarray:
    # eigen-angles away from 0 (mod 2pi), so no direction is nearly invariant
    return rng.uniform(0.4, 2 * np.pi - 0.4, size=shape)


def _unitary(rng, k) -> np.ndarray:
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


# ------------------------------------------------------------ calls of a round

class Round:
    """Collects the calls of one round, writing their inputs to `workdir`."""

    def __init__(self, workdir: Path, rng: np.random.Generator):
        self.workdir = workdir
        self.rng = rng
        self.calls: list[Call] = []

    def path(self, name: str) -> Path:
        return self.workdir / name

    def add(self, subcommand, argv, check, expect_exit=0, known_fault=False, label=""):
        out = self.path(f"{len(self.calls):02d}_{label or subcommand}.csv")
        self.calls.append(Call(subcommand, [subcommand, *argv, "--out", str(out)], out,
                               expect_exit, check, known_fault, label or subcommand))

    # fusion: SU(2) Clebsch-Gordan ------------------------------------------
    def fusion(self, tag):
        a, b = (int(x) for x in self.rng.integers(0, 21, size=2))

        def check(header, rows):
            _header(header, ["label", "multiplicity", "dim"])
            cs = list(range(abs(a - b), a + b + 1, 2))
            _expect(rows == [[str(c), "1", str(c + 1)] for c in cs],
                    f"SU2 {a} x {b}: rows {rows[:3]}..., expected labels {cs[:3]}...")

        self.add("fusion", ["--ring", "SU2", "--a", str(a), "--b", str(b)], check,
                 label=f"fusion{tag}")

    # wiener: circle atom series --------------------------------------------
    def circle_atom(self, steps):
        rng = self.rng
        k = 3
        theta = rng.uniform(0, 2 * np.pi, size=k)
        x = np.exp(1j * theta)
        w = rng.uniform(0.1, 0.5, size=k)
        # density: Haar part at 0 plus a complex coefficient pair at +-1 and one at 2
        dens = {0: float(rng.uniform(0.2, 0.6)), 1: complex(*rng.uniform(-0.05, 0.05, 2)),
                2: complex(*rng.uniform(-0.05, 0.05, 2))}
        dens[-1] = dens[1].conjugate()
        target = int(rng.integers(k))
        spec = {
            "group": "Z",
            "atoms": [{"element": circle_literal(z), "weight": float(wi)} for z, wi in zip(x, w)],
            "density": [{"irrep": str(a), "matrix": [[[complex(c).real, complex(c).imag]]]}
                        for a, c in dens.items()],
        }
        measure = _write_json(self.path("circle.json"), spec)
        at = circle_literal(x[target])
        y = complex(x[target])
        n = np.arange(1, steps + 1)
        t = np.angle(x * np.conj(y))
        total = (w[None, :] * dirichlet(n[:, None], t[None, :])).sum(axis=1).astype(complex)
        for a, c in dens.items():
            total = total + np.where(np.abs(a) <= n, complex(c) * np.conj(y) ** a, 0)
        wcard = 2 * n + 1
        expected = total / wcard
        weight = float(w[target])

        def check(header, rows):
            _header(header, ["step", "wcard", "value_re", "value_im", "target", "abs_error"])
            _steps(rows, steps)
            _ints_equal("wcard", _column(rows, 1, int), wcard)
            _close("value_re", _column(rows, 2), expected.real)
            _close("value_im", _column(rows, 3), expected.imag)
            _close("target", _column(rows, 4), np.full(steps, weight))
            _close("abs_error", _column(rows, 5), np.abs(expected - weight))

        self.add("wiener", ["--kind", "atom", "--measure", measure, "--at", at,
                            "--steps", str(steps), "--ground-truth"], check,
                 label="circle_atom")

    # wiener: torus^2 energy, on boxes or on windows ---------------------------
    def _torus_measure(self, name):
        rng = self.rng
        k = 3
        theta = rng.uniform(0, 2 * np.pi, size=(k, 2))
        w = rng.uniform(0.1, 0.5, size=k)
        haar = float(rng.uniform(0.2, 0.6))
        spec = {
            "group": "Z^d:2",
            "atoms": [{"element": torus_literal(np.exp(1j * th)), "weight": float(wi)}
                      for th, wi in zip(theta, w)],
            "density": [{"irrep": "0,0", "matrix": [[haar]]}],
        }
        measure = _write_json(self.path(name), spec)
        # pairwise angle differences t_ijc, via the unit complex numbers the CLI sees
        z = np.exp(1j * theta)
        t = np.angle(z[:, None, :] * np.conj(z[None, :, :]))
        ww = w[:, None] * w[None, :]
        trivial_extra = 2 * haar * w.sum() + haar ** 2
        return measure, t, ww, trivial_extra

    def torus_energy_boxes(self, steps):
        measure, t, ww, extra = self._torus_measure("torus_boxes.json")
        n = np.arange(1, steps + 1)
        kern = dirichlet(n[:, None, None, None], t[None]).prod(axis=-1)
        wcard = (2 * n + 1) ** 2
        expected = ((ww[None] * kern).sum(axis=(1, 2)) + extra) / wcard

        def check(header, rows):
            _header(header, ["step", "wcard", "value_re", "value_im"])
            _steps(rows, steps)
            _ints_equal("wcard", _column(rows, 1, int), wcard)
            _close("value_re", _column(rows, 2), expected)
            _close("value_im", _column(rows, 3), np.zeros(steps))

        self.add("wiener", ["--kind", "energy", "--measure", measure, "--steps", str(steps)],
                 check, label="torus_energy")

    def torus_energy_windows(self, windows, schedule):
        measure, t, ww, extra = self._torus_measure("torus_windows.json")
        expected = []
        for (a, b, l1, l2) in windows:
            kern = window_sum(a, l1, t[..., 0]) * window_sum(b, l2, t[..., 1])
            has_zero = a <= 0 < a + l1 and b <= 0 < b + l2
            expected.append(((ww * kern).sum() + (extra if has_zero else 0)) / (l1 * l2))
        expected = np.array(expected)
        wcard = [l1 * l2 for (_, _, l1, l2) in windows]

        def check(header, rows):
            _header(header, ["step", "wcard", "value_re", "value_im"])
            _steps(rows, len(windows))
            _ints_equal("wcard", _column(rows, 1, int), wcard)
            _close("value_re", _column(rows, 2), expected.real)
            _close("value_im", _column(rows, 3), expected.imag)

        self.add("wiener", ["--kind", "energy", "--measure", measure, "--schedule", schedule],
                 check, label="windows_energy")

    # ergodic: commuting unitaries on dualgroup:Z^d:2 --------------------------
    def _group_rep(self, name):
        rng = self.rng
        k = REP_DIM
        theta = _angles(rng, (2, k))
        # direction 0 is fixed by both generators, direction 1 by the first only
        theta[:, 0] = 0.0
        theta[0, 1] = 0.0
        v = _unitary(rng, k)
        gens = [v @ np.diag(np.exp(1j * th)) @ v.conj().T for th in theta]
        spec = _write_json(self.path(name), {"ring": "dualgroup:Z^d:2",
                                        "generators": [matrix_json(g) for g in gens]})
        invariant = np.all(theta == 0.0, axis=0).astype(float)
        return spec, theta, invariant

    def _ergodic(self, spec, argv, m, wcard, invariant, passing, label):
        """m: the eigenvalues of each step's average, shape (steps, dim)."""
        dist = np.sqrt((np.abs(m - invariant[None, :]) ** 2).sum(axis=1))
        final = float(dist[-1])
        tol = 4 * final if passing else final / 4

        def check(header, rows):
            _header(header, ["step", "wcard", "dist_to_projection", "commutant_residue"])
            _steps(rows, len(dist))
            _ints_equal("wcard", _column(rows, 1, int), wcard)
            _close("dist_to_projection", _column(rows, 2), dist)
            res = _column(rows, 3)
            _expect(bool(np.all(np.abs(res) <= RESIDUE_TOL)),
                    f"commutant residue up to {np.max(np.abs(res))!r}, expected roundoff")

        self.add("ergodic", [*argv, "--spec", spec, "--tol", repr(tol)], check,
                 expect_exit=0 if passing else 3, label=label)

    def lattice_ergodic_boxes(self, steps, passing):
        spec, theta, invariant = self._group_rep("group_rep_boxes.json")
        n = np.arange(1, steps + 1)
        m = (dirichlet(n[:, None], theta[0][None, :]) * dirichlet(n[:, None], theta[1][None, :])
             / ((2 * n + 1) ** 2)[:, None])
        self._ergodic(spec, ["--rep", "group", "--steps", str(steps)], m, (2 * n + 1) ** 2,
                      invariant, passing,
                      "lattice_ergodic")

    def lattice_ergodic_windows(self, windows, schedule, passing):
        spec, theta, invariant = self._group_rep("group_rep_windows.json")
        m = np.array([window_sum(a, l1, theta[0]) * window_sum(b, l2, theta[1]) / (l1 * l2)
                      for (a, b, l1, l2) in windows])
        wcard = [l1 * l2 for (_, _, l1, l2) in windows]
        self._ergodic(spec, ["--rep", "group", "--schedule", schedule], m, wcard, invariant,
                      passing,
                      "windows_ergodic")

    # SU(2) ------------------------------------------------------------------
    def su2_point_ergodic(self, steps, passing):
        pts = np.vstack([[1.0, 0.0, 0.0, 0.0], _unit_quaternions(self.rng, SU2_POINTS - 1)])
        spec = _write_json(self.path("su2_points.json"),
                           {"ring": "SU2", "points": [quaternion_literal(q) for q in pts]})
        labels = np.arange(0, steps + 1)
        terms = (labels[:, None] + 1) * weyl_character(labels[:, None], pts[None, :, 0])
        wcard = np.cumsum((labels + 1) ** 2)[1:]
        m = np.cumsum(terms, axis=0)[1:] / wcard[:, None]
        invariant = np.zeros(SU2_POINTS)
        invariant[0] = 1.0
        self._ergodic(spec, ["--rep", "point", "--steps", str(steps)], m, wcard, invariant,
                      passing,
                      "su2_ergodic")

    def su2_measure(self):
        rng = self.rng
        q = _unit_quaternions(rng, SU2_ATOMS)
        w = rng.uniform(0.02, 0.2, size=SU2_ATOMS)
        # density proportional to the identity at labels 0, 2 and 5
        dens = {0: float(rng.uniform(0.2, 0.6)), 2: float(rng.uniform(-0.05, 0.05)),
                5: float(rng.uniform(-0.05, 0.05))}
        spec = {
            "group": "SU2",
            "atoms": [{"element": quaternion_literal(qi), "weight": float(wi)}
                      for qi, wi in zip(q, w)],
            "density": [{"irrep": str(a), "matrix": (c * np.eye(a + 1)).tolist()}
                        for a, c in dens.items()],
        }
        return _write_json(self.path("su2.json"), spec), q, w, dens

    def su2_series(self, kind, steps, measure, q, w, dens, at=None, known_fault=False,
                   label=None):
        labels = np.arange(0, steps + 1)
        d = labels + 1.0
        c = np.array([dens.get(int(a), 0.0) for a in labels])
        chi = lambda cos_half: weyl_character(labels[:, None], np.atleast_1d(cos_half)[None, :])
        if kind == "atom":
            # d * [sum_i w_i chi(x_i y^-1) + c chi(y)], cos of half-angle of x y^-1 is <x, y>
            term = d * ((w * chi(q @ at)).sum(axis=1) + c * chi(at[0])[:, 0])
        elif kind == "energy":
            # d * [sum_ij w_i w_j chi(x_i x_j^-1) + 2 c sum_i w_i chi(x_i) + c^2 d]
            gram = np.clip(q @ q.T, -1.0, 1.0)
            pair = weyl_character(labels[:, None, None], gram[None])
            term = d * ((w[:, None] * w[None, :] * pair).sum(axis=(1, 2))
                        + 2 * c * (w * chi(q[:, 0])).sum(axis=1) + c * c * d)
        else:
            term = d * ((w * chi(q[:, 0])).sum(axis=1) + c * d)
        wcard = np.cumsum(d * d)[1:].astype(np.int64)
        expected = np.cumsum(term)[1:] / wcard

        def check(header, rows):
            _header(header, ["step", "wcard", "value_re", "value_im"])
            _steps(rows, steps)
            _ints_equal("wcard", _column(rows, 1, int), wcard)
            _close("value_re", _column(rows, 2), expected)
            _close("value_im", _column(rows, 3), np.zeros(steps))

        argv = ["--kind", kind, "--measure", measure, "--steps", str(steps)]
        if at is not None:
            argv += ["--at", quaternion_literal(at)]
        self.add("wiener", argv, check, known_fault=known_fault, label=label or f"su2_{kind}")

    def su2_fault(self):
        """delta_g + Haar, atom series at a generic h != g to spin bound 160.

        Fixed inputs, independent of the seed: the values are due to tend to
        0, and today's symmetric-power matrices lose accuracy above n ~ 80.
        """
        g = np.array([0.6, 0.0, 0.8, 0.0])
        h = np.array([0.5, 0.5, 0.5, 0.5])
        spec = {"group": "SU2",
                "atoms": [{"element": quaternion_literal(g), "weight": 1.0}],
                "density": [{"irrep": "0", "matrix": [[1.0]]}]}
        measure = _write_json(self.path("su2_fault.json"), spec)
        self.su2_series("atom", FAULT_STEPS, measure, g[None, :], np.array([1.0]), {0: 1.0},
                        at=h, known_fault=True, label="su2_atom_160")

    # folner -----------------------------------------------------------------
    def folner_boxes(self, d, steps):
        n = np.arange(1, steps + 1)
        wcard = [(2 * int(k) + 1) ** d for k in n]
        bound = [int(b) for b in box_boundary(n, d)]
        gens = ";".join(",".join("1" if i == j else "0" for i in range(d)) for j in range(d))

        def check(header, rows):
            _folner_check(header, rows, wcard, bound)

        self.add("folner", ["--ring", f"Z^d:{d}", "--S", gens, "--steps", str(steps)], check,
                 label=f"folner_z{d}")

    def folner_spins(self, steps):
        n = np.arange(1, steps + 1)
        wcard = [sum((k + 1) ** 2 for k in range(int(m) + 1)) for m in n]
        bound = [(int(m) + 1) ** 2 + (int(m) + 2) ** 2 for m in n]

        def check(header, rows):
            _folner_check(header, rows, wcard, bound)

        self.add("folner", ["--ring", "SU2", "--S", "1", "--steps", str(steps)], check,
                 label="folner_su2")

    def folner_windows(self, windows, schedule):
        wcard = [l1 * l2 for (_, _, l1, l2) in windows]
        bound = [2 * (l1 + l2) - 1 for (_, _, l1, l2) in windows]

        def check(header, rows):
            _folner_check(header, rows, wcard, bound)

        self.add("folner", ["--ring", "Z^d:2", "--S", "1,0;0,1", "--schedule", schedule],
                 check, label="folner_windows")

    def windows_schedule(self):
        """Translated rectangles [a, a+L1) x [b, b+L2) on Z^2 with seed-drawn
        offsets; sizes depend on the step only.  Not nested: the second window
        is shifted so that it misses the first window's left column."""
        offsets = self.rng.integers(-25, 26, size=(WINDOWS, 2))
        offsets[1, 0] = offsets[0, 0] + 3
        windows = [(int(a), int(b), 10 + n, 8 + n + (7 * n) % 5)
                   for n, (a, b) in enumerate(offsets)]
        sets = [[f"w:{x},{y}" for x in range(a, a + l1) for y in range(b, b + l2)]
                for (a, b, l1, l2) in windows]
        schedule = _write_json(self.path("windows.json"),
                               {"description": "translated windows on Z^2", "sets": sets})
        return windows, schedule


def _folner_check(header, rows, wcard, bound):
    _header(header, ["step", "wcard", "boundary_wcard", "ratio"])
    _steps(rows, len(wcard))
    _ints_equal("wcard", _column(rows, 1, int), wcard)
    _ints_equal("boundary_wcard", _column(rows, 2, int), bound)
    _ratio_column("ratio", rows, bound, wcard)


def build_round(workload: str, seed: int, workdir: Path) -> list[Call]:
    """The calls of one round of `workload`, with inputs drawn from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    b = Round(workdir, rng)
    b.fusion(1)
    if workload == "lattice":
        # nested boxes, then translated windows read from a schedule file
        b.circle_atom(CIRCLE_STEPS)
        b.torus_energy_boxes(TORUS_STEPS)
        b.lattice_ergodic_boxes(LATTICE_ERGODIC_STEPS, passing=True)
        b.folner_boxes(3, Z3_FOLNER_STEPS)
        windows, schedule = b.windows_schedule()
        b.torus_energy_windows(windows, schedule)
        b.lattice_ergodic_windows(windows, schedule, passing=False)
        b.folner_windows(windows, schedule)
    else:
        measure, q, w, dens = b.su2_measure()
        at = q[int(rng.integers(SU2_ATOMS))]
        b.su2_series("atom", SU2_STEPS, measure, q, w, dens, at=at)
        b.su2_series("energy", SU2_STEPS, measure, q, w, dens)
        b.su2_series("char", SU2_STEPS, measure, q, w, dens)
        b.su2_fault()
        b.su2_point_ergodic(SU2_STEPS, passing=True)
        b.folner_spins(SU2_FOLNER_STEPS)
    b.fusion(2)
    return b.calls
