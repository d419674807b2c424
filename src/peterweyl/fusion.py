"""Fusion combinatorics of the dual of a compact group.

The dual is modelled as a countable set of irreducible-representation labels
together with dimensions, conjugation and fusion multiplicities
``N[a,b]^c`` (the number of copies of ``c`` in the decomposition of the
tensor product ``a (x) b``), and Folner schedules as tables of labels.

Labels live in int64 tables with one row per label and ``ring.rank``
columns: the components of a Z^d label, or the label itself for Z, SU(2)
and finite duals.  Each ring states its rules once, on a table: which rows
are labels, the dimensions, the fusion products of every row with a label
g and its first labels, plus the sort keys of its total order where that
is not lexicographic.  The one-label methods (`dim`, `fuse`, `check_label`,
`parse_label`) are the one-row case.  A Folner schedule is one table of its
distinct labels in ring order plus prefix lengths or a CSR table of its
steps.  Everything here is exact integer arithmetic, except `reduce_along`,
the one reduction that sums an average's terms along a schedule.
`boundary` reads each step's |boundary|_w from the same table: one pass
fuses it with S and with conj(S) and ranks the table and all products
together with one sort, so each product knows its row.  Prefix steps then
take one linear pass over ring ranks; other steps each test which of their
rows' products fall outside them.  Ring identifiers resolve here too
(`get_ring`), to one cached ring object each, so the ring combinatorics
need no other module.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Union

import numpy as np

from .errors import InvalidInputError

Label = Union[int, tuple]

INT64_MAX = 2**63 - 1
# label components stay below this in modulus, so a label plus a label
# (a lattice fusion product) still fits in int64
LABEL_BOUND = 2**62
# the most entries one table may hold: a schedule's table and steps, a
# schedule file's literals, the products of a boundary pass with S (and with
# conj(S)), the terms an average sums (its term table for a prefix schedule,
# each index step's rows, times the columns), 256 MB at the limit.  A
# boundary pass holds several arrays of that size at once: `folner` on Z^3
# boxes to radius 48 with three generators, whose products (16,426,062
# entries) just fit, peaks at 700 MB of RSS in 2.1 s, radius 49 is refused;
# the sums of 2.7e6 labels at 6 columns, at 1.1 GB in 1.9 s (x86-64, numpy 2.4).
MAX_TABLE_ENTRIES = 2**24
# a pass estimated at over MAX_WORK_S seconds is refused; * marks in-library runs (README)
MAX_WORK_S = 5
COST_S = {
    "prefix step": 4.7e-6,  # folner --ring SU2 --S 1 --steps 1000000: 4.83 s
    "index step": 14.7e-6,  # wiener, a schedule file of 262,000 one-label steps: 4.02 s
    "index label": 1.03e-6,  # ergodic --rep group, 20 windows of 100,000 labels: 2.24 s
    "boundary product": 38e-9,  # *20 steps of SU2 labels 0..3000 with S = {3000}: 6.9 s
    "recurrence step": 1.0e-6,  # *SU(2) characters of label 10**6 at 48 elements: 1.03 s
    "recurrence entry": 1.3e-9,  # *the same of label 10**5 at 4800 elements: 0.73 s
    "distinct pair": 1.2e-6,  # *1500 Z^d:3 atoms: 1.30 s (circle 0.19 s, SU2 0.36 s)
    "character column": 1.1e-6,  # *energy of 500 circle atoms at 41 labels: 0.64 s, less entries
    "character entry": 97e-9,  # *energy of 300 Z^d:2 atoms at 1681 labels: 7.3 s
}


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_size(entries: int, what: str):
    if entries > MAX_TABLE_ENTRIES:
        raise InvalidInputError(
            f"{what} would hold {entries} entries, above the limit of 2**24")


def _check_work(seconds: float, what: str):
    if seconds > MAX_WORK_S:
        raise InvalidInputError(
            f"{what} would take about {seconds:.4g} s, above the limit of {MAX_WORK_S} s")


class FusionRing(ABC):
    """Labels, dimensions, conjugates and fusion rules of a dual object.

    A subclass states seven rules, on (n, rank) int64 tables of label rows:

    - ``valid_rows(table)``: which rows are labels (components are already
      known to be below LABEL_BOUND in modulus),
    - ``dims_of(table)``: the dimensions, int64,
    - ``products(table, g)``: the decomposition of every row (x) g as
      (row index, product row) pairs, a product of multiplicity m listed m
      times, and ``product_counts(table, g)``, the number of pairs of each
      row, without building them,
    - ``first_table(count)``: the first `count` labels in ring order (all of
      them when the ring has fewer),
    - ``conj(a)`` and ``fuse(a, b)`` (the one-label case of `products`, as
      ``_fused``).

    Three have defaults, which a subclass may restate: ``trivial``, the
    first label of ``first_table(1)``; ``order_keys(table)``, the
    `np.lexsort` keys of the ring's total order (primary key last),
    lexicographic; and ``format_label(a)``, the components joined by ','.
    Every ring reads label literals with one grammar (``parse_table``); a
    ring names its literals' prefix and its irreps in ``literal_prefix`` and
    ``irrep_names``.
    """

    name: str = "ring"
    # columns of a label row
    rank: int = 1
    # label literals that name the labels 0, 1, ... (rank 1)
    irrep_names: tuple[str, ...] = ()
    # an optional prefix of a string literal, such as "w:" in "w:1,-2"
    literal_prefix: str = ""

    @abstractmethod
    def conj(self, label: Label) -> Label: ...

    @abstractmethod
    def fuse(self, a: Label, b: Label) -> dict[Label, int]: ...

    @abstractmethod
    def valid_rows(self, table: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def dims_of(self, table: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def products(self, table: np.ndarray, g: Label) -> tuple[np.ndarray, np.ndarray]: ...

    @abstractmethod
    def product_counts(self, table: np.ndarray, g: Label) -> np.ndarray: ...

    @abstractmethod
    def first_table(self, count: int) -> np.ndarray: ...

    @property
    def trivial(self) -> Label:
        return self.labels_of(self.first_table(1))[0]

    def order_keys(self, table: np.ndarray) -> tuple:
        return tuple(table.T[::-1])

    # -- rows and labels --------------------------------------------------
    def _parts(self, label):
        """The components of a label, or None for a value of the wrong type
        or shape: rank 1 takes an int (not bool), higher ranks a tuple of
        them."""
        parts = (label,) if self.rank == 1 else label
        if isinstance(parts, tuple) and len(parts) == self.rank and all(map(_is_int, parts)):
            return parts
        return None

    def _valid(self, table: np.ndarray) -> np.ndarray:
        in_range = np.all((table > -LABEL_BOUND) & (table < LABEL_BOUND), axis=1)
        return in_range & self.valid_rows(table)

    def _checked(self, table: np.ndarray, literals) -> np.ndarray:
        """The table, when every row is a label; `literals[i]` names row i."""
        bad = np.flatnonzero(~self._valid(table))
        if bad.size:
            raise InvalidInputError(f"{literals[bad[0]]!r} is not a label of ring {self.name}")
        return table

    def _table(self, parts: list, literals: list) -> np.ndarray:
        """Checked rows from component tuples (None for a literal already
        known to be bad)."""
        _check_size(len(parts) * self.rank, "a label table")
        if None in parts:
            raise InvalidInputError(
                f"{literals[parts.index(None)]!r} is not a label of ring {self.name}")
        try:
            table = np.array(parts, dtype=np.int64).reshape(len(parts), self.rank)
        except OverflowError as exc:
            raise InvalidInputError(
                f"label components of ring {self.name} must be below 2**62 in modulus") from exc
        return self._checked(table, literals)

    def label_table(self, labels) -> np.ndarray:
        """The labels as an (n, rank) int64 table in the given order, each
        checked; an int64 table of that shape is checked as a whole."""
        if isinstance(labels, np.ndarray) and labels.ndim == 2:
            if labels.dtype != np.int64 or labels.shape[1] != self.rank:
                raise InvalidInputError(
                    f"a label table of ring {self.name} is int64 with {self.rank} columns")
            return self._checked(labels, labels)
        labels = list(labels)
        return self._table([self._parts(a) for a in labels], labels)

    def labels_of(self, table: np.ndarray) -> list:
        """The labels of a table's rows, as Python ints or int tuples."""
        if self.rank == 1:
            return table[:, 0].tolist()
        return list(map(tuple, table.tolist()))

    def _label_row(self, label) -> np.ndarray:
        """The label as a one-row table; InvalidInputError when it is not a label."""
        parts = self._parts(label)
        if parts is not None and all(-LABEL_BOUND < x < LABEL_BOUND for x in parts):
            row = np.array([parts], dtype=np.int64)
            if self.valid_rows(row)[0]:
                return row
        raise InvalidInputError(f"{label!r} is not a label of ring {self.name}")

    def check_label(self, label) -> Label:
        self._label_row(label)
        return label

    def _one(self, label) -> Label:
        """The label checked, as a Python int or int tuple."""
        return self.labels_of(self._label_row(label))[0]

    def dim(self, label: Label) -> int:
        return int(self.dims_of(self._label_row(label))[0])

    def sorted_labels(self, labels: Iterable[Label]) -> list[Label]:
        table = self.label_table(labels)
        return self.labels_of(table[np.lexsort(self.order_keys(table))])

    def _fused(self, a: Label, b: Label) -> dict[Label, int]:
        """Decomposition of a (x) b as {label: multiplicity}."""
        _, prods = self.products(self._label_row(a), self._one(b))
        return dict(Counter(self.labels_of(prods)))

    def parse_label(self, literal) -> Label:
        return self.labels_of(self.parse_table([literal]))[0]

    def _decimal_table(self, texts: list[str]) -> np.ndarray | None:
        """The unchecked (m, rank) table of m >= 1 label literals, or None
        when one is not a literal.  A literal is ASCII: an optional
        `literal_prefix`, then `rank` components -?[0-9]{1,19} separated by
        ',' or ';'.  A component beyond int64 reads as 2**63 - 1, which is
        no label.  The batch is joined, scanned in numpy and read by one
        np.fromstring, with no Python work per literal; it is read exactly
        when each of its literals is read alone."""
        text = "\n".join(texts)
        prefix = self.literal_prefix
        if prefix:
            # a literal's prefix follows a line break (none is inside a literal: checked next)
            text = text.replace("\n" + prefix, "\n").removeprefix(prefix)
        if not text.isascii() or text.count("\n") != len(texts) - 1:
            return None
        codes = np.frombuffer(text.encode(), dtype=np.uint8)
        cuts = np.flatnonzero((codes == ord(",")) | (codes == ord(";")) | (codes == ord("\n")))
        # rank components per literal: the line breaks are every rank-th cut
        if cuts.size != len(texts) * self.rank - 1 or np.any(
                codes[cuts[self.rank - 1::self.rank]] != ord("\n")):
            return None
        sizes = np.diff(cuts, prepend=-1, append=codes.size) - 1
        if sizes.min() < 1:
            return None
        # 1 to 19 digits after an optional sign, and no other byte
        digits = sizes - (codes[np.concatenate(([0], cuts + 1))] == ord("-"))
        if (digits.min() < 1 or digits.max() > 19
                or np.count_nonzero(codes - ord("0") < 10) != digits.sum()):
            return None
        values = np.fromstring(text.replace(";", ",").replace("\n", ","), dtype=np.int64, sep=",")
        return values.reshape(len(texts), self.rank)

    def parse_table(self, literals) -> np.ndarray:
        """Label literals into a checked (n, rank) table: irrep names, ints
        at rank 1 and lists of int components (not bool, not float), and
        strings such as "3", "1;-2" or "w:1,-2", all read in one batch
        (`_split_ints`)."""
        literals = list(literals)
        _check_size(len(literals) * self.rank, "a label table")
        names = self.irrep_names
        # a schedule file's batch, read without a loop over its literals
        if set(map(type, literals)) <= {str} and set(names).isdisjoint(literals):
            return self._split_ints(literals)
        is_text = np.array([isinstance(x, str) and x not in names for x in literals], dtype=bool)
        others = [literals[i] for i in np.flatnonzero(~is_text).tolist()]
        rows = np.empty((len(literals), self.rank), dtype=np.int64)
        rows[~is_text] = self._table(
            [(names.index(x),) if isinstance(x, str)
             else self._parts(tuple(x) if isinstance(x, list) else x) for x in others], others)
        rows[is_text] = self._split_ints([literals[i] for i in np.flatnonzero(is_text).tolist()])
        return rows

    def _split_ints(self, texts: list[str]) -> np.ndarray:
        """String literals to a checked (m, rank) table by `_decimal_table`.
        A batch it refuses names the first literal it refuses alone, found
        by halving the batch (about two scans in all)."""
        if not texts:
            return np.zeros((0, self.rank), dtype=np.int64)
        table = self._decimal_table(texts)
        if table is not None:
            return self._checked(table, texts)
        while len(texts) > 1:
            half = len(texts) // 2
            texts = texts[:half] if self._decimal_table(texts[:half]) is None else texts[half:]
        raise InvalidInputError(f"{texts[0]!r} is not a label of ring {self.name}")

    def format_label(self, label: Label) -> str:
        return str(label) if self.rank == 1 else ",".join(map(str, label))

    def default_schedule(self, steps: int) -> "FolnerSchedule":
        raise InvalidInputError(f"ring {self.name} has no default schedule")

    def generating_labels(self) -> list[Label]:
        raise InvalidInputError(f"no default generating labels for ring {self.name}")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _refuse_large_prefixes(ring: FusionRing, steps: int, count: int):
    """Refuse, before anything is built, a prefix schedule of `steps` steps
    whose largest step is the first `count` labels when its table would pass
    MAX_TABLE_ENTRIES or a pass MAX_WORK_S."""
    _check_size(steps + count * ring.rank, "the schedule's label table")
    _check_work(steps * COST_S["prefix step"], f"a pass over {steps} prefix steps")


def _step_sums(values: np.ndarray, schedule: "FolnerSchedule") -> np.ndarray:
    """One total of `values` per step: one running sum read at each prefix
    stop (exact for integer values), or one reduceat (no step is empty)."""
    if schedule.stops is not None:
        return np.cumsum(values)[schedule.stops - 1]
    return np.add.reduceat(values[schedule.indices], schedule.indptr[:-1])


def _compensated_sums(x: np.ndarray) -> np.ndarray:
    """Running sums of the rows of the float table x by Sum2 (Ogita, Rump and
    Oishi, SIAM J. Sci. Comput. 26, 2005): np.add.accumulate, which adds in
    row order, plus the running sum of each addition's exact error (Knuth's
    TwoSum).  Row k is within eps|S| + gamma(k)**2 sum|x_i| of the exact sum
    S of rows 0..k, gamma(k) = k eps / (1 - k eps) and eps = 2**-53."""
    s = np.add.accumulate(x)
    z = s[1:] - s[:-1]
    err = s[1:] - z
    np.subtract(s[:-1], err, out=err)
    err += np.subtract(x[1:], z, out=z)
    s[1:] += np.add.accumulate(err, out=err)
    return s


def _weighted_sums(dims: np.ndarray, sums) -> np.ndarray:
    """Exact int64 values of `sums(dims**2)`, where `sums` adds a weight
    array up into one total per step; InvalidInputError when one passes
    2**63 - 1.  The totals are taken in float first: below 2**62 int64 is
    safe, far above 2**63 they cannot fit, and in between Python ints
    decide (float error is at most 2**-26 relative for tables this size)."""
    approx = sums(dims.astype(float) ** 2)
    top = float(np.max(approx, initial=0.0))
    if top < 2.0**62:
        return np.asarray(sums(dims * dims), dtype=np.int64)
    exact = sums(dims.astype(object) ** 2) if top <= 2.0**63 * (1 + 2.0**-20) else [top]
    if max(exact) > INT64_MAX:
        raise InvalidInputError(f"a weighted cardinality of {max(exact):.6g} exceeds 2**63 - 1")
    return np.array(exact, dtype=np.int64)


def _ranks(rows: np.ndarray, keys) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank among the distinct rows in the order of the
    `np.lexsort` keys (which must tell distinct rows apart), and the index
    of one occurrence of each distinct row, by rank."""
    order = np.lexsort(keys)
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ranks = np.empty(len(rows), dtype=np.intp)
    ranks[order] = np.cumsum(new) - 1
    return ranks, order[new]


def _csr(lengths, ranks: np.ndarray, n: int) -> tuple:
    """`indptr` and `indices` of the steps whose rows are the next lengths[i]
    of `ranks` (each below n): each step's distinct ranks, ascending, by one
    sort of the keys step * n + rank and a mask that drops repeats."""
    keys = np.sort(np.repeat(np.arange(len(lengths)) * n, lengths) + ranks)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    keys = keys[keep]
    return np.searchsorted(keys, np.arange(len(lengths) + 1) * n), keys % n


class FolnerSchedule:
    """An ordered list of finite nonempty label sets (nesting not required).

    Stored as one table: `table`, the (n, rank) int64 rows of the distinct
    labels in ring order, and each step's rows of it: the first `stops[i]`
    of a prefix schedule, else `indices[indptr[i]:indptr[i + 1]]`, ascending
    (the other form's attributes are None).  These, `dims` and
    `weighted_cardinalities` (each step's |F|_w) are exact int64 and
    read-only.  `steps` (each step's rows of the table) and `sets` (each
    step's labels) are built on demand.
    """

    stops = indptr = indices = None

    def __init__(self, ring: FusionRing, sets: Iterable[Iterable[Label]]):
        sets = [list(F) for F in sets]
        table = ring.label_table([a for F in sets for a in F])
        self._index(ring, table, [len(F) for F in sets])

    @classmethod
    def from_table(cls, ring: FusionRing, table: np.ndarray, lengths: list[int]):
        """The schedule whose n-th set is the next lengths[n] rows of `table`
        (checked label rows of `ring`, repeats allowed)."""
        schedule = cls.__new__(cls)
        schedule._index(ring, table, lengths)
        return schedule

    @classmethod
    def prefixes(cls, ring: FusionRing, lengths):
        """The schedule whose n-th step is the first lengths[n] labels of the
        ring's order (a list or an int64 array).  Refused before anything is
        built when its table would be too large or its pass too long, and
        refused by `_init` when a |F|_w would not fit in int64."""
        lengths = np.asarray(lengths)
        if not np.all(lengths >= 1):
            raise InvalidInputError("schedule sets must be nonempty")
        count = int(lengths.max(initial=1))
        _refuse_large_prefixes(ring, len(lengths), count)
        table = ring.first_table(count)
        schedule = cls.__new__(cls)
        schedule.stops = np.minimum(lengths.astype(np.int64), len(table))
        schedule._init(ring, table)
        return schedule

    def _index(self, ring, table, lengths):
        if not all(lengths):
            raise InvalidInputError("schedule sets must be nonempty")
        seconds = len(lengths) * COST_S["index step"] + sum(lengths) * COST_S["index label"]
        _check_work(seconds, f"a pass over {len(lengths)} index steps")
        ids, first = _ranks(table, ring.order_keys(table))
        self.indptr, self.indices = _csr(lengths, ids, len(first))
        self._init(ring, table[first])

    def _init(self, ring, table):
        self.ring = ring
        self.table = table
        self.dims = ring.dims_of(table)
        self.weighted_cardinalities = _weighted_sums(self.dims, lambda w: _step_sums(w, self))
        if not len(self):
            raise InvalidInputError("schedule must contain at least one set")
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    @cached_property
    def steps(self) -> tuple:
        """Each step's rows of the table: slices (prefix steps) or views of `indices`."""
        if self.stops is not None:
            return tuple(slice(0, k) for k in self.stops.tolist())
        return tuple(np.split(self.indices, self.indptr[1:-1]))

    @property
    def sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(self.ring.labels_of(self.table[step])) for step in self.steps)

    def __len__(self):
        return len(self.weighted_cardinalities)


def reduce_along(schedule: FolnerSchedule, ring: FusionRing, terms,
                 columns: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-step sums of the terms over the schedule's sets, one row per
    step, and their weighted cardinalities.

    `terms(table, dims)` returns `columns` values (a scalar for one) per row
    of the schedule's table; it is called once, after a MAX_TABLE_ENTRIES
    check.  A step's sum is the running Sum2 of its rows in ring order
    (`_compensated_sums`, one pass read at each prefix stop), so it equals
    the sum over that set alone to the bit if a label's term does not depend
    on the rest of the batch.  The schedule must be on `ring` itself.
    """
    if schedule.ring is not ring:
        raise InvalidInputError(f"the schedule's ring {schedule.ring!r} is not {ring!r}")
    prefix = schedule.stops is not None
    rows = len(schedule.table if prefix else schedule.indices)
    _check_size(rows * columns, "the terms of the sums")
    table = np.asarray(terms(schedule.table, schedule.dims), dtype=complex)
    x = np.ascontiguousarray(table.reshape(len(table), columns)).view(float)
    with np.errstate(invalid="ignore"):  # an infinite sum turns to nan
        sums = (_compensated_sums(x)[schedule.stops - 1] if prefix
                else np.array([_compensated_sums(x[s])[-1] for s in schedule.steps]))
    sums = sums.view(complex).reshape((len(sums),) + table.shape[1:])
    return sums, schedule.weighted_cardinalities


class LatticeRing(FusionRing):
    """Dual of the d-torus, equally the group ring of the free abelian group
    of the given rank.  Labels are ints for rank 1 and int tuples otherwise;
    every dimension is 1, fusion is addition, conjugation is negation.

    Order: rank 1 goes 0, 1, -1, 2, -2, ...; higher ranks walk sup-norm
    shells outward, lexicographically inside each shell.
    """

    literal_prefix = "w:"

    def __init__(self, rank: int = 1, name: str | None = None):
        if rank < 1:
            raise InvalidInputError("rank must be >= 1")
        self.rank = rank
        self.name = name or ("Z" if rank == 1 else f"Z^d:{rank}")

    def conj(self, label):
        label = self._one(label)
        return -label if self.rank == 1 else tuple(-x for x in label)

    def fuse(self, a, b):
        return self._fused(a, b)

    def valid_rows(self, table):
        return np.ones(len(table), dtype=bool)

    def order_keys(self, table):
        if self.rank == 1:
            return -table[:, 0], np.abs(table[:, 0])
        return (*table.T[::-1], np.abs(table).max(axis=1))

    def dims_of(self, table):
        return np.ones(len(table), dtype=np.int64)

    def products(self, table, g):
        return np.arange(len(table)), table + np.asarray(g, dtype=np.int64).reshape(1, self.rank)

    def product_counts(self, table, g):
        return np.ones(len(table), dtype=np.int64)

    def first_table(self, count):
        # the smallest box {-r..r}^rank holding `count` labels, in ring order
        r = max(0, int((count ** (1 / self.rank) - 1) / 2) - 1)
        while (2 * r + 1) ** self.rank < count:
            r += 1
        _check_size((2 * r + 1) ** self.rank * self.rank, "a label table")
        side = np.arange(-r, r + 1, dtype=np.int64)
        box = np.stack(np.meshgrid(*[side] * self.rank, indexing="ij"), axis=-1)
        box = box.reshape(-1, self.rank)
        return box[np.lexsort(self.order_keys(box))[:count]]

    def box(self, n: int) -> frozenset:
        """The box {-n..n}^rank."""
        if n < 0:
            raise InvalidInputError("box radius must be >= 0")
        if self.rank == 1:
            return frozenset(range(-n, n + 1))
        return frozenset(product(range(-n, n + 1), repeat=self.rank))

    def default_schedule(self, steps: int) -> FolnerSchedule:
        # the box {-n..n}^rank is the first (2n+1)^rank labels of the shell walk
        _refuse_large_prefixes(self, steps, (2 * steps + 1) ** self.rank)
        return FolnerSchedule.prefixes(self, (2 * np.arange(1, steps + 1) + 1) ** self.rank)

    def generating_labels(self):
        if self.rank == 1:
            return [1]
        return [tuple(int(i == j) for i in range(self.rank)) for j in range(self.rank)]


# labels n of SU(2) stay below this, so dim(n)^2 = (n+1)^2 fits in int64
SU2_LABEL_BOUND = math.isqrt(INT64_MAX)


class SU2Ring(FusionRing):
    """Dual of SU(2).  Labels are nonnegative integers n = 2j below
    SU2_LABEL_BOUND, the dimension is n+1, every label is self-conjugate,
    and fusion follows the Clebsch-Gordan rule
    a (x) b = |a-b| + |a-b|+2 + ... + a+b.
    """

    name = "SU2"

    def conj(self, label):
        return self._one(label)

    def fuse(self, a, b):
        return self._fused(a, b)

    def valid_rows(self, table):
        return (table[:, 0] >= 0) & (table[:, 0] < SU2_LABEL_BOUND)

    def dims_of(self, table):
        return table[:, 0] + 1

    def products(self, table, g):
        a = table[:, 0]
        counts = self.product_counts(table, g)
        _check_size(int(counts.sum()), "a table of fusion products")
        rows = np.repeat(np.arange(len(a)), counts)
        step = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        return rows, (np.abs(a - g)[rows] + 2 * step)[:, None]

    def product_counts(self, table, g):
        return np.minimum(table[:, 0], g) + 1

    def first_table(self, count):
        return np.arange(count, dtype=np.int64)[:, None]

    def default_schedule(self, steps: int) -> FolnerSchedule:
        _refuse_large_prefixes(self, steps, steps + 1)
        return FolnerSchedule.prefixes(self, np.arange(2, steps + 2))

    def generating_labels(self):
        return [1]


class FiniteDualRing(FusionRing):
    """A finite dual given by its fusion table alone.

    Labels are indices into `irrep_names` (trivial first), and `fusion` is
    the read-only int64 array fusion[a, b, c] = N[a,b]^c.  Conjugation (the
    b with N[a,b]^0 = 1), the fusion products and their counts all read that
    table, so any finite fusion ring fits, with a group behind it or not.  A
    finite group model derives the table from its character table, which it
    keeps itself.
    """

    def __init__(self, name: str, irrep_names: tuple[str, ...], dims: tuple[int, ...],
                 fusion: np.ndarray):
        self.name = name
        self.irrep_names = tuple(irrep_names)
        self.dims = tuple(int(d) for d in dims)
        self.fusion = np.array(fusion, dtype=np.int64)
        self.fusion.setflags(write=False)
        k = len(self.dims)
        if self.fusion.shape != (k, k, k) or len(self.irrep_names) != k:
            raise InvalidInputError(f"fusion table of {name} does not match its {k} irreps")
        rows, self._conj = np.nonzero(self.fusion[:, :, 0])
        if not np.array_equal(rows, np.arange(k)) or np.any(self.fusion[rows, self._conj, 0] != 1):
            raise InvalidInputError(f"fusion table of {name} gives some label no conjugate")

    def conj(self, label):
        return int(self._conj[self._one(label)])

    def fuse(self, a, b):
        return self._fused(a, b)

    def valid_rows(self, table):
        return (table[:, 0] >= 0) & (table[:, 0] < len(self.dims))

    def dims_of(self, table):
        return np.array(self.dims, dtype=np.int64)[table[:, 0]]

    def products(self, table, g):
        # each row's products in label order, a product of multiplicity m m times
        counts = self.fusion[table[:, 0], g]
        rows, prods = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), len(self.dims))
        return rows, prods[:, None]

    def product_counts(self, table, g):
        return self.fusion[table[:, 0], g].sum(axis=1)

    def first_table(self, count):
        return np.arange(min(count, len(self.dims)), dtype=np.int64)[:, None]

    def default_schedule(self, steps: int) -> FolnerSchedule:
        _refuse_large_prefixes(self, steps, len(self.dims))
        return FolnerSchedule.prefixes(self, np.full(max(steps, 0), len(self.dims)))

    def generating_labels(self):
        return list(range(len(self.dims)))

    def format_label(self, label):
        return self.irrep_names[self.check_label(label)]


def get_ring(ring_id: str) -> FusionRing:
    """The ring of an identifier: "Z", "Z^d:<d>", "SU2", "finite:<name>" or
    "dualgroup:Z^d:<d>", one object per ring however the id is written
    ("Z" and "Z^d:1" are one ring).  A finite dual's fusion table is derived
    from its group's character table, so only "finite:" ids load `groups`.
    A dual-group ring presents the group algebra of Z^d: the labels and
    fusion of the torus dual under its own name, with no compact-group
    model."""
    if not isinstance(ring_id, str):
        raise InvalidInputError(f"ring id must be a string, got {ring_id!r}")
    if ring_id == "SU2":
        return _canonical_ring("SU2", 1)
    if ring_id == "Z" or ring_id.startswith("Z^d:"):
        rank = 1 if ring_id == "Z" else _parse_rank(ring_id[4:], ring_id)
        return _canonical_ring("Z" if rank == 1 else f"Z^d:{rank}", rank)
    if ring_id.startswith("dualgroup:Z^d:"):
        rank = _parse_rank(ring_id[14:], ring_id)
        return _canonical_ring(f"dualgroup:Z^d:{rank}", rank)
    if ring_id.startswith("finite:"):
        from .groups import finite_group_model

        return finite_group_model(ring_id[7:]).ring
    raise InvalidInputError(
        f"unknown ring id {ring_id!r}; expected Z, Z^d:<d>, SU2, finite:<name> "
        f"or dualgroup:Z^d:<d>"
    )


@lru_cache(maxsize=None)
def _canonical_ring(name: str, rank: int) -> FusionRing:
    # the ring carries its canonical identifier, for JSON round-trips
    return SU2Ring() if name == "SU2" else LatticeRing(rank, name=name)


def _parse_rank(text: str, ring_id: str) -> int:
    try:
        rank = int(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad rank in ring id {ring_id!r}") from exc
    if rank < 1:
        raise InvalidInputError(f"bad rank in ring id {ring_id!r}")
    return rank


def fuse(a: Label, b: Label, ring: FusionRing) -> dict[Label, int]:
    """Decomposition of a (x) b as {label: multiplicity}."""
    return ring.fuse(a, b)


def _generators(ring: FusionRing, S) -> list:
    """S checked, without repeats; InvalidInputError when empty."""
    S = list(dict.fromkeys(ring.labels_of(ring.label_table(list(S)))))
    if not S:
        raise InvalidInputError("S must be nonempty")
    return S


def _fusion_pairs(schedule: FolnerSchedule, S: list):
    """The schedule's table fused with S and with conj(S): `ids`, the
    position of each table row in `rows`; `forward` and `backward`, the
    (table row, position in `rows`) pairs of the products of each row with
    every g in S and with every conj(g); and `rows`, the distinct labels
    among the table and all products, in lexicographic order."""
    ring, table = schedule.ring, schedule.table
    _check_size(2 * len(S) * len(table) * ring.rank, "the boundary's table of fusion products")

    def pairs(gens):
        fused = [ring.products(table, g) for g in gens]
        _check_size(sum(len(p) for _, p in fused) * ring.rank,
                    "the boundary's table of fusion products")
        return np.concatenate([r for r, _ in fused]), np.concatenate([p for _, p in fused])

    f_rows, f_prods = pairs(S)
    b_rows, b_prods = pairs([ring.conj(g) for g in S])
    every = np.concatenate([table, f_prods, b_prods])
    ranks, first = _ranks(every, every.T[::-1])
    n, m = len(table), len(f_rows)
    return ranks[:n], (f_rows, ranks[n:n + m]), (b_rows, ranks[n + m:]), every[first]


def _by_row(pairs, n: int) -> tuple:
    """(row, target) pairs sorted by row: the rows, the targets, and each
    of the n rows' end among the sorted pairs and number of pairs."""
    sources, targets = pairs
    order = np.argsort(sources, kind="stable")
    counts = np.bincount(sources, minlength=n)
    return sources[order], targets[order], np.cumsum(counts), counts


def _pairs_of(step, sorted_pairs) -> tuple[np.ndarray, np.ndarray]:
    """The sources and targets of the pairs of a step's rows."""
    sources, targets, ends, counts = sorted_pairs
    c = counts[step]
    at = np.repeat(ends[step] - np.cumsum(c), c) + np.arange(c.sum())
    return sources[at], targets[at]


def _step_boundaries(schedule: FolnerSchedule, pairs) -> tuple:
    """Each step's boundary as a CSR table of positions in `rows` of
    `_fusion_pairs` (`_csr`): the step's rows with a forward product outside
    the step, and the backward products outside it."""
    ids, forward, backward, rows = pairs
    forward, backward = _by_row(forward, len(ids)), _by_row(backward, len(ids))
    in_step = np.zeros(len(rows), dtype=bool)
    out = []
    for step in schedule.steps:
        in_step[ids[step]] = True
        sources, targets = _pairs_of(step, forward)
        inner = ids[sources[~in_step[targets]]]
        _, targets = _pairs_of(step, backward)
        outer = targets[~in_step[targets]]
        out.append(np.concatenate([inner, outer]))
        in_step[ids[step]] = False
    return _csr(np.fromiter(map(len, out), dtype=np.int64), np.concatenate(out), len(rows))


def _prefix_boundary_sums(schedule: FolnerSchedule, pairs, w: np.ndarray) -> np.ndarray:
    """Totals of `w` (a weight per row of `rows`) over each prefix step's
    boundary, by ring rank (table position, n outside the table): table row
    a is inner for a < L <= max rank of its forward products, a backward
    product y outer for min rank reaching y < L <= rank y.  Each adds its
    weight over its range of L - 1 in a difference array read by
    `_step_sums`; int64 sums wrap, so totals that fit are exact."""
    ids, (f_rows, f_targets), (b_rows, b_targets), rows = pairs
    n = len(ids)
    rank = np.full(len(rows), n)
    rank[ids] = np.arange(n)
    last = np.arange(n)
    np.maximum.at(last, f_rows, rank[f_targets])
    first = rank.copy()
    np.minimum.at(first, b_targets, b_rows)
    weights = np.concatenate([w[ids], w])
    change = np.zeros(n + 1, dtype=w.dtype)
    np.add.at(change, np.concatenate([np.arange(n), first]), weights)
    np.subtract.at(change, np.concatenate([last, rank]), weights)
    return _step_sums(change, schedule)


def boundary(schedule: FolnerSchedule, S: Iterable[Label]) -> np.ndarray:
    """|boundary(F, S)|_w of every set F of the schedule, as exact int64
    values, with S checked on the schedule's ring.

    The inner part collects a in F that fuse with some g in S to a label
    outside F.  The outer part is defined by a quantifier over all labels
    not in F; by Frobenius reciprocity (N[a,g]^b = N[b,conj(g)]^a) it equals
    the set of labels outside F reachable by fusing F with conj(S), which is
    finite and computed directly.  One pass fuses the schedule's table with
    every g in S and every conj(g).  Prefix steps then take one running sum,
    linear in the table, products and steps; other steps each test
    membership, refused above MAX_WORK_S before they start.

    A sequence with ratios |boundary|_w / |F|_w tending to zero for every
    finite nonempty S is a right Folner sequence; this merely reports the
    finitely many steps asked for and makes no limit claim.
    """
    ring = schedule.ring
    S = _generators(ring, S)
    prefix = schedule.stops is not None
    if not prefix:
        # count the stepwise pass's products with S and conj(S) before building any
        counts = sum(ring.product_counts(schedule.table, g) for g in S + [ring.conj(g) for g in S])
        products = sum(_step_sums(counts, schedule).tolist())
        seconds = len(schedule) * COST_S["index step"] + products * COST_S["boundary product"]
        _check_work(seconds, f"the boundary pass of {len(schedule)} steps and {products} products")
    pairs = _fusion_pairs(schedule, S)
    dims = ring.dims_of(pairs[-1])
    if prefix:
        return _weighted_sums(dims, lambda w: _prefix_boundary_sums(schedule, pairs, w))
    indptr, indices = _step_boundaries(schedule, pairs)
    owners = np.repeat(np.arange(len(schedule)), np.diff(indptr))

    def totals(w):  # not by reduceat: a boundary may be empty
        out = np.zeros(len(schedule), dtype=w.dtype)
        np.add.at(out, owners, w[indices])
        return out

    return _weighted_sums(dims, totals)
