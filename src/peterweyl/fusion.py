"""Fusion combinatorics of the dual of a compact group.

The dual is modelled as a countable set of irreducible-representation labels
together with dimensions, conjugation and fusion multiplicities
``N[a,b]^c`` (the number of copies of ``c`` in the decomposition of the
tensor product ``a (x) b``), and Folner schedules as tables of labels.
Everything here is exact integer arithmetic, except the Folner ratio and
`reduce_along`, the one reduction that sums an average's terms along a
schedule.  Folner boundaries are read from the same table: one `boundary`
pass fuses each of its labels once with S and once with conj(S), and each
step then only tests membership.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import count, product
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import InvalidInputError

Label = Union[int, tuple]


class FusionRing(ABC):
    """Labels, dimensions, conjugates and fusion rules of a dual object.

    Subclasses provide:

    - ``trivial``: the label of the trivial representation,
    - ``dim(a)``: positive integer dimension,
    - ``conj(a)``: the conjugate label (same dimension, involutive),
    - ``fuse(a, b)``: decomposition of ``a (x) b`` as ``{label: multiplicity}``
      with all multiplicities positive integers,
    - ``labels()``: a stream of all labels in a fixed, documented total order,
    - ``is_valid_label(a)`` and ``sort_key(a)``.

    The total order given by ``sort_key`` agrees with the enumeration order
    of ``labels()``; it is used for every deterministic reduction.
    """

    name: str = "ring"
    # the name under which the CLI offers default_schedule, if any
    schedule_name: str | None = None

    @property
    @abstractmethod
    def trivial(self) -> Label: ...

    @abstractmethod
    def dim(self, label: Label) -> int: ...

    @abstractmethod
    def conj(self, label: Label) -> Label: ...

    @abstractmethod
    def fuse(self, a: Label, b: Label) -> dict[Label, int]: ...

    @abstractmethod
    def labels(self) -> Iterator[Label]: ...

    @abstractmethod
    def is_valid_label(self, label) -> bool: ...

    @abstractmethod
    def sort_key(self, label: Label): ...

    def check_label(self, label) -> Label:
        if not self.is_valid_label(label):
            raise InvalidInputError(f"{label!r} is not a label of ring {self.name}")
        return label

    def multiplicity(self, a: Label, b: Label, c: Label) -> int:
        """Fusion multiplicity N[a,b]^c."""
        self.check_label(c)
        return self.fuse(a, b).get(c, 0)

    def enumerate_labels(self, bound: int) -> list[Label]:
        """First `bound` labels in the ring's total order."""
        if bound < 1:
            raise InvalidInputError("bound must be >= 1")
        out = []
        for label in self.labels():
            out.append(label)
            if len(out) >= bound:
                break
        return out

    def sorted_labels(self, labels: Iterable[Label]) -> list[Label]:
        return sorted(labels, key=self.sort_key)

    def parse_label(self, literal) -> Label:
        raise NotImplementedError

    def format_label(self, label: Label) -> str:
        return str(label)

    def default_schedule(self, steps: int) -> "FolnerSchedule":
        raise InvalidInputError(f"ring {self.name} has no default schedule")

    def generating_labels(self) -> list[Label]:
        raise InvalidInputError(f"no default generating labels for ring {self.name}")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class FolnerSchedule:
    """An ordered list of finite nonempty label sets (nesting not required).

    Stored as one table: `labels`, the distinct labels in ring order, and
    `steps`, one ascending index into it per step (a slice for a prefix).
    `weighted_cardinalities` holds each step's |F|_w as exact int64.  The
    step sets themselves are built only on demand.
    """

    def __init__(self, ring: FusionRing, sets: Iterable[Iterable[Label]], description: str = ""):
        sets = [frozenset(F) for F in sets]
        if not all(sets):
            raise InvalidInputError("schedule sets must be nonempty")
        labels = ring.sorted_labels(map(ring.check_label, frozenset().union(*sets)))
        index = {a: i for i, a in enumerate(labels)}
        steps = [np.array(sorted(index[a] for a in F), dtype=np.intp) for F in sets]
        self._init(ring, labels, steps, description)

    @classmethod
    def prefixes(cls, ring: FusionRing, lengths: list[int], description: str = ""):
        """The schedule whose n-th step is the first lengths[n] labels of the
        ring's enumeration order."""
        schedule = cls.__new__(cls)
        labels = ring.enumerate_labels(max(lengths, default=1))
        schedule._init(ring, labels, [slice(0, k) for k in lengths], description)
        return schedule

    def _init(self, ring, labels, steps, description):
        if not steps:
            raise InvalidInputError("schedule must contain at least one set")
        self.ring = ring
        self.labels = tuple(labels)
        self.steps = tuple(steps)
        self.description = description
        wdims = np.array([ring.dim(a) for a in self.labels], dtype=np.int64) ** 2
        self.weighted_cardinalities = np.array([wdims[s].sum() for s in self.steps],
                                               dtype=np.int64)
        self.weighted_cardinalities.setflags(write=False)

    def _set(self, step) -> frozenset:
        if isinstance(step, slice):
            return frozenset(self.labels[step])
        return frozenset(self.labels[i] for i in step.tolist())

    @property
    def sets(self) -> tuple[frozenset, ...]:
        return tuple(map(self._set, self.steps))

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return map(self._set, self.steps)

    def __getitem__(self, i):
        return self._set(self.steps[i])


def reduce_along(schedule: FolnerSchedule, ring: FusionRing, terms) -> tuple[list, np.ndarray]:
    """Per-step sums of the terms over the schedule's sets, and their
    weighted cardinalities.

    `terms(labels)` returns an array whose first axis runs over `labels`; it
    is called once, on the distinct labels of the schedule.  Each step is
    then summed with np.sum in ring order, so a step's sum is the same to
    the bit as the sum over that set alone, provided a label's term does not
    depend on the rest of the batch.  A schedule built on another ring
    object is rebuilt on `ring` first, which checks its labels there.
    """
    if schedule.ring is not ring:
        schedule = FolnerSchedule(ring, schedule.sets, schedule.description)
    table = np.asarray(terms(schedule.labels), dtype=complex)
    return [np.sum(table[s], axis=0) for s in schedule.steps], schedule.weighted_cardinalities


class LatticeRing(FusionRing):
    """Dual of the d-torus, equally the group ring of the free abelian group
    of the given rank.  Labels are ints for rank 1 and int tuples otherwise;
    every dimension is 1, fusion is addition, conjugation is negation.

    Enumeration order: rank 1 goes 0, 1, -1, 2, -2, ...; higher ranks walk
    sup-norm shells outward, lexicographically inside each shell.
    """

    schedule_name = "boxes"

    def __init__(self, rank: int = 1, name: str | None = None):
        if rank < 1:
            raise InvalidInputError("rank must be >= 1")
        self.rank = rank
        self.name = name or ("Z" if rank == 1 else f"Z^{rank}")

    @property
    def trivial(self) -> Label:
        return 0 if self.rank == 1 else (0,) * self.rank

    def dim(self, label):
        self.check_label(label)
        return 1

    def conj(self, label):
        self.check_label(label)
        return -label if self.rank == 1 else tuple(-x for x in label)

    def fuse(self, a, b):
        self.check_label(a)
        self.check_label(b)
        if self.rank == 1:
            return {a + b: 1}
        return {tuple(x + y for x, y in zip(a, b)): 1}

    def is_valid_label(self, label):
        # one rule for every rank: rank 1 checks its label as a 1-tuple
        parts = (label,) if self.rank == 1 else label
        return isinstance(parts, tuple) and len(parts) == self.rank and all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in parts)

    def sort_key(self, label):
        if self.rank == 1:
            return (abs(label), 0 if label >= 0 else 1)
        return (max(abs(x) for x in label), label)

    def labels(self):
        if self.rank == 1:
            yield 0
            for n in count(1):
                yield n
                yield -n
        else:
            for r in count(0):
                # product walks the box lexicographically, so the shell comes out sorted
                yield from (t for t in product(range(-r, r + 1), repeat=self.rank)
                            if r in t or -r in t)

    def box(self, n: int) -> frozenset:
        """The box {-n..n}^rank."""
        if n < 0:
            raise InvalidInputError("box radius must be >= 0")
        if self.rank == 1:
            return frozenset(range(-n, n + 1))
        return frozenset(product(range(-n, n + 1), repeat=self.rank))

    def default_schedule(self, steps: int) -> FolnerSchedule:
        # the box {-n..n}^rank is the first (2n+1)^rank labels of the shell walk
        return FolnerSchedule.prefixes(
            self, [(2 * n + 1) ** self.rank for n in range(1, steps + 1)],
            description=f"{self.name} boxes {{-n..n}} for n=1..{steps}",
        )

    def generating_labels(self):
        if self.rank == 1:
            return [1]
        return [tuple(int(i == j) for i in range(self.rank)) for j in range(self.rank)]

    def parse_label(self, literal):
        # components must be ints (not bool, not float) at every rank
        label = tuple(literal) if isinstance(literal, list) else literal
        if isinstance(literal, str):
            text = literal[2:] if literal.startswith("w:") else literal
            parts = [p for p in text.replace(";", ",").split(",") if p.strip() != ""]
            try:
                label = tuple(int(p) for p in parts)
            except ValueError as exc:
                raise InvalidInputError(f"cannot parse label literal {literal!r}") from exc
            if self.rank == 1 and len(label) == 1:
                label = label[0]
        if isinstance(label, (int, np.integer)) and self.rank > 1:
            raise InvalidInputError(f"label of {self.name} needs {self.rank} components")
        if not self.is_valid_label(label):
            raise InvalidInputError(f"{literal!r} is not a label literal of ring {self.name}")
        return int(label) if self.rank == 1 else tuple(map(int, label))

    def format_label(self, label):
        if self.rank == 1:
            return str(label)
        return ",".join(str(x) for x in label)


class SU2Ring(FusionRing):
    """Dual of SU(2).  Labels are nonnegative integers n = 2j, the dimension
    is n+1, every label is self-conjugate, and fusion follows the
    Clebsch-Gordan rule a (x) b = |a-b| + |a-b|+2 + ... + a+b.
    """

    name = "SU2"
    schedule_name = "spins"

    @property
    def trivial(self):
        return 0

    def dim(self, label):
        self.check_label(label)
        return label + 1

    def conj(self, label):
        self.check_label(label)
        return label

    def fuse(self, a, b):
        self.check_label(a)
        self.check_label(b)
        return {c: 1 for c in range(abs(a - b), a + b + 1, 2)}

    def is_valid_label(self, label):
        return isinstance(label, (int, np.integer)) and not isinstance(label, bool) and label >= 0

    def sort_key(self, label):
        return label

    def labels(self):
        return count(0)

    def spins(self, n: int) -> frozenset:
        """The spin interval {2j = 0..n}."""
        if n < 0:
            raise InvalidInputError("spin bound must be >= 0")
        return frozenset(range(n + 1))

    def default_schedule(self, steps: int) -> FolnerSchedule:
        return FolnerSchedule.prefixes(
            self, [n + 1 for n in range(1, steps + 1)],
            description=f"SU2 spin intervals {{0..n}} for n=1..{steps}",
        )

    def generating_labels(self):
        return [1]

    def parse_label(self, literal):
        if self.is_valid_label(literal):
            return int(literal)
        if isinstance(literal, str):
            try:
                return self.check_label(int(literal))
            except ValueError as exc:
                raise InvalidInputError(f"cannot parse label literal {literal!r}") from exc
        raise InvalidInputError(f"cannot parse label literal {literal!r}")


class FiniteDualRing(FusionRing):
    """Dual of a finite group, built from tabulated irrep data.

    Labels are indices into `irrep_names` (trivial first).  Fusion
    multiplicities come from character orthogonality,
    N[a,b]^c = (1/|G|) sum_g chi_a(g) chi_b(g) conj(chi_c(g)),
    rounded to the nearest integer after checking the residue is tiny.
    """

    schedule_name = "full"

    def __init__(self, name: str, irrep_names: tuple[str, ...], dims: tuple[int, ...],
                 character_table: np.ndarray):
        # character_table[a, i] = chi_a(g_i) over the group's element list
        self.name = name
        self.irrep_names = tuple(irrep_names)
        self.dims = tuple(int(d) for d in dims)
        self.characters = np.asarray(character_table, dtype=complex)
        self.order = self.characters.shape[1]
        if self.characters.shape[0] != len(self.dims):
            raise InvalidInputError("character table / dimension list mismatch")
        if sum(d * d for d in self.dims) != self.order:
            raise InvalidInputError("irrep dimensions do not sum-of-squares to the group order")
        self._conj = [self._match_character(np.conj(self.characters[a])) for a in range(len(dims))]
        # the dual is tiny, so the whole fusion table is materialized up front
        # and instances stay immutable
        k = len(self.dims)
        self._fusion = {
            (a, b): self._fuse_from_characters(a, b) for a in range(k) for b in range(k)
        }

    def _match_character(self, chi: np.ndarray) -> int:
        for b in range(self.characters.shape[0]):
            if np.max(np.abs(self.characters[b] - chi)) < 1e-8:
                return b
        raise InvalidInputError(f"character table of {self.name} is not closed under conjugation")

    @property
    def trivial(self):
        return 0

    def dim(self, label):
        self.check_label(label)
        return self.dims[label]

    def conj(self, label):
        self.check_label(label)
        return self._conj[label]

    def _fuse_from_characters(self, a: int, b: int) -> dict[int, int]:
        prod = self.characters[a] * self.characters[b]
        out = {}
        for c in range(len(self.dims)):
            n = np.vdot(self.characters[c], prod) / self.order
            n_int = int(round(n.real))
            if abs(n - n_int) > 1e-8:
                raise InvalidInputError(
                    f"non-integer fusion multiplicity {n} in ring {self.name}"
                )
            if n_int:
                out[c] = n_int
        return out

    def fuse(self, a, b):
        self.check_label(a)
        self.check_label(b)
        return dict(self._fusion[(int(a), int(b))])

    def is_valid_label(self, label):
        return (
            isinstance(label, (int, np.integer))
            and not isinstance(label, bool)
            and 0 <= label < len(self.dims)
        )

    def sort_key(self, label):
        return label

    def labels(self):
        return iter(range(len(self.dims)))

    def full_dual(self) -> frozenset:
        return frozenset(range(len(self.dims)))

    def default_schedule(self, steps: int) -> FolnerSchedule:
        return FolnerSchedule.prefixes(
            self, [len(self.dims)] * steps, description=f"{self.name} full dual, constant"
        )

    def generating_labels(self):
        return list(self.labels())

    def parse_label(self, literal):
        if self.is_valid_label(literal):
            return int(literal)
        if isinstance(literal, str):
            if literal in self.irrep_names:
                return self.irrep_names.index(literal)
            try:
                return self.check_label(int(literal))
            except ValueError as exc:
                raise InvalidInputError(
                    f"unknown irrep {literal!r} of {self.name}; names: {self.irrep_names}"
                ) from exc
        raise InvalidInputError(f"cannot parse label literal {literal!r}")

    def format_label(self, label):
        return self.irrep_names[self.check_label(label)]


def weighted_cardinality(F: Iterable[Label], ring: FusionRing) -> int:
    """|F|_w = sum of squared dimensions over F.  Exact integer."""
    return sum(ring.dim(a) ** 2 for a in F)


def fuse(a: Label, b: Label, ring: FusionRing) -> dict[Label, int]:
    """Decomposition of a (x) b as {label: multiplicity}."""
    return ring.fuse(a, b)


def boundary(F, S: Iterable[Label], ring: FusionRing):
    """Boundary of F relative to S; empty for an empty F.  F may also be a
    FolnerSchedule, whose steps' boundaries are returned as a list.

    The inner part collects a in F that fuse with some g in S to a label
    outside F.  The outer part is defined by a quantifier over all labels
    not in F; by Frobenius reciprocity (N[a,g]^b = N[b,conj(g)]^a) it equals
    the set of labels outside F reachable by fusing F with conj(S), which is
    finite and computed directly.  One pass over the schedule's table fuses
    each label once with every g in S and once with every conj(g); each step
    then only tests membership.  A set F is a one-step schedule.
    """
    S = frozenset(ring.check_label(g) for g in S)
    if not S:
        raise InvalidInputError("S must be nonempty")
    if not isinstance(F, FolnerSchedule):
        F = frozenset(F)
        return boundary(FolnerSchedule(ring, (F,)), S, ring)[0] if F else frozenset()
    forward = {a: frozenset().union(*(ring.fuse(a, g) for g in S)) for a in F.labels}
    conj_S = [ring.conj(g) for g in S]
    backward = {a: frozenset().union(*(ring.fuse(a, h) for h in conj_S)) for a in F.labels}
    out = []
    for step in F:
        inner = {a for a in step if not forward[a] <= step}
        out.append((frozenset().union(*(backward[a] for a in step)) - step).union(inner))
    return out


def folner_series(schedule: FolnerSchedule, S: Iterable[Label]) -> tuple[np.ndarray, np.ndarray]:
    """|F|_w and |boundary(F,S)|_w of every set in the schedule, as exact
    int64 arrays, from one boundary pass over the schedule's table.

    A sequence with ratios |boundary|_w / |F|_w tending to zero for every
    finite nonempty S is a right Folner sequence; this merely reports the
    finitely many steps asked for and makes no limit claim.
    """
    ring = schedule.ring
    boundary_wcards = np.array(
        [weighted_cardinality(B, ring) for B in boundary(schedule, S, ring)], dtype=np.int64)
    return schedule.weighted_cardinalities, boundary_wcards


def folner_ratio(F: Iterable[Label], S: Iterable[Label], ring: FusionRing) -> float:
    """|boundary(F,S)|_w / |F|_w, both sides exact integers before the division."""
    wcards, boundary_wcards = folner_series(FolnerSchedule(ring, (F,)), S)
    return int(boundary_wcards[0]) / int(wcards[0])
