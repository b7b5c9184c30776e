"""Trivalent ribbon graphs with per-edge shear labels.

Darts are 0..2E-1; edge ``i`` owns darts ``2i`` and ``2i+1`` and the opposite
of dart ``d`` is ``d ^ 1``.  ``sigma`` sends each dart to the next dart
anticlockwise around the same vertex, so vertices are the sigma-orbits and
faces are the orbits of ``d -> sigma(opposite(d))``.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from operator import mul


class FatGraphError(ValueError):
    pass


_LABEL_TYPES = (int, float, Fraction)


@dataclass(frozen=True)
class TopologyReport:
    vertices: int
    edges: int
    faces: int
    genus: int
    holes: int

    def to_json(self):
        return {
            "V": self.vertices,
            "E": self.edges,
            "F": self.faces,
            "genus": self.genus,
            "holes": self.holes,
        }


def opposite(d: int) -> int:
    return d ^ 1


def edge_of(d: int) -> int:
    return d >> 1


class _ShortRepr(reprlib.Repr):
    """The repr of a bad input entry in an error message: a few dozen characters, never raising."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # past Python's int-to-str digit limit
            return f"<int of {x.bit_length()} bits>"


short_repr = _ShortRepr().repr


def _check_labels(z):
    """The label rule: every label is a finite int, float or Fraction, and no bool."""
    for i, x in enumerate(z):
        try:
            finite = isinstance(x, _LABEL_TYPES) and not isinstance(x, bool) and math.isfinite(x)
        except OverflowError:  # an int or Fraction beyond the float range
            finite = False
        if not finite:
            raise FatGraphError(f"label z[{i}] = {short_repr(x)} is not a finite number")


def _walk(step):
    """The orbits of the dart map ``step`` (a sequence), each from its smallest dart."""
    seen = [False] * len(step)
    out = []
    for d0 in range(len(step)):
        if seen[d0]:
            continue
        orbit = []
        d = d0
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = step[d]
        out.append(tuple(orbit))
    return tuple(out)


def _multiplicity(darts, n_edges):
    mult = [0] * n_edges
    for d in darts:
        mult[edge_of(d)] += 1
    return tuple(mult)


@functools.lru_cache(maxsize=256)
def _table(sigma):
    """``FatGraph._orbits(sigma)``, kept for the last 256 sigmas used; labels play no part.

    A miss calls it through the class, where the benchmark's tracer wraps it.
    """
    return FatGraph._orbits(sigma)


class FatGraph:
    """Immutable trivalent ribbon graph with shear labels."""

    __slots__ = ("sigma", "z")

    def __init__(self, sigma, z):
        sigma, z = tuple(sigma), tuple(z)
        for i, d in enumerate(sigma):
            if type(d) is not int:
                raise FatGraphError(f"sigma[{i}] = {short_repr(d)} is not an integer dart index")
        self._fill(sigma, z)

    def _fill(self, sigma, z):
        """Apply the label rule and the count checks, then set both (tuple) fields."""
        for x in z:
            if type(x) is not float or not math.isfinite(x):
                _check_labels(z)  # anything but finite floats takes the full rule
                break
        if len(sigma) % 2:
            raise FatGraphError("dart count must be even")
        if len(z) != len(sigma) // 2:
            raise FatGraphError(f"expected {len(sigma) // 2} labels, got {len(z)}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError("FatGraph is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def n_darts(self) -> int:
        return len(self.sigma)

    @property
    def n_edges(self) -> int:
        return len(self.sigma) // 2

    def with_labels(self, z) -> "FatGraph":
        """This graph's sigma with the labels ``z``: only the labels are checked."""
        g = object.__new__(FatGraph)
        g._fill(self.sigma, tuple(z))
        return g

    def __eq__(self, other):
        if not isinstance(other, FatGraph):
            return NotImplemented
        return self.sigma == other.sigma and self.z == other.z

    def __repr__(self):
        return f"FatGraph(sigma={list(self.sigma)}, z={list(self.z)})"

    @staticmethod
    def _orbits(sigma):
        """(vertex orbits, {face orbit: edge multiplicity vector}) of ``sigma``."""
        vertices = _walk(sigma)
        faces = _walk([sigma[opposite(d)] for d in range(len(sigma))])
        return vertices, {face: _multiplicity(face, len(sigma) // 2) for face in faces}

    def vertices(self):
        """Sigma-orbits, each listed anticlockwise from its smallest dart."""
        return list(_table(self.sigma)[0])

    def faces(self):
        """Orbits of d -> sigma(opposite(d)), each from its smallest dart."""
        return list(_table(self.sigma)[1])

    # -- validation --------------------------------------------------------

    def validate(self) -> TopologyReport:
        n = self.n_darts
        sigma = self.sigma
        hit = [0] * n
        for d, s in enumerate(sigma):
            if not 0 <= s < n:
                raise FatGraphError(f"sigma[{d}] = {short_repr(s)} is not a dart index")
            hit[s] += 1
        for d, h in enumerate(hit):
            if h != 1:
                raise FatGraphError(f"sigma is not a permutation: dart {d} has {h} preimages")
        for orbit in self.vertices():
            if len(orbit) != 3:
                raise FatGraphError(
                    f"vertex orbit {list(orbit)} has size {len(orbit)}, expected 3 (dart {orbit[0]})"
                )
        # a connected graph is one surface, so V - E + F = 2 - 2g fixes the genus
        if not n:
            raise FatGraphError("graph is not connected: it has no darts")
        reached, stack = {0}, [0]
        while stack:
            d = stack.pop()
            for nd in (sigma[d], opposite(d)):
                if nd not in reached:
                    reached.add(nd)
                    stack.append(nd)
        if len(reached) != n:
            lost = min(set(range(n)) - reached)
            raise FatGraphError(f"graph is not connected: dart {lost} is not reachable from dart 0")
        E, V, F = self.n_edges, n // 3, len(self.faces())
        genus = (2 - V + E - F) // 2
        return TopologyReport(V, E, F, genus, F)

    # -- face data ---------------------------------------------------------

    def face_multiplicity(self, face) -> tuple:
        """How many times each edge appears on the face boundary."""
        mult = _table(self.sigma)[1].get(tuple(face))
        return mult if mult is not None else _multiplicity(face, self.n_edges)

    def face_perimeter(self, face):
        """Multiplicity-weighted label sum, as (exponent vector, numeric value)."""
        mult = self.face_multiplicity(face)
        return mult, sum(map(mul, mult, self.z))

    def perimeters(self):
        """``face_perimeter`` of every face, in ``faces()`` order."""
        return [(mult, sum(map(mul, mult, self.z))) for mult in _table(self.sigma)[1].values()]

    # -- Poisson data ------------------------------------------------------

    def omega_matrix(self):
        """Antisymmetric E x E integer matrix of the edge Poisson brackets.

        Each vertex with anticlockwise edge cycle (e1, e2, e3) contributes +1
        to omega[e1][e2], omega[e2][e3], omega[e3][e1] and -1 to the
        transposes; contributions sum over shared vertices.
        """
        E = self.n_edges
        omega = [[0] * E for _ in range(E)]
        for orbit in self.vertices():
            edges = [edge_of(d) for d in orbit]
            for k in range(3):
                a, b = edges[k], edges[(k + 1) % 3]
                omega[a][b] += 1
                omega[b][a] -= 1
        return omega

    # -- serialization -----------------------------------------------------

    def to_json(self):
        def num(x):
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    return x.numerator
                return float(x)
            return x

        return {"sigma": list(self.sigma), "z": [num(x) for x in self.z]}

    @classmethod
    def from_json(cls, data) -> "FatGraph":
        if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in ("sigma", "z")):
            raise FatGraphError('graph JSON must be an object with "sigma" and "z" lists')
        return cls(data["sigma"], data["z"])

    @classmethod
    def load(cls, path) -> "FatGraph":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise FatGraphError("graph JSON is nested too deeply") from None
        return cls.from_json(data)


def once_punctured_torus(labels=(0, 0, 0)) -> FatGraph:
    """Two trivalent vertices {0,2,4} and {1,3,5}, one hexagonal face."""
    return FatGraph([2, 3, 4, 5, 0, 1], labels)


def tetrahedron(labels=(0, 0, 0, 0, 0, 0)) -> FatGraph:
    """Planar tetrahedral ribbon graph: V=4, E=6, F=4, genus 0, 4 holes.

    Edge ends: e0 = darts 0,1; e1 = 2,3; e2 = 4,5; e3 = 6,7; e4 = 8,9;
    e5 = 10,11; vertex cycles (0,4,2), (6,8,1), (3,10,7), (5,9,11).
    """
    sigma = [4, 6, 0, 10, 2, 9, 8, 3, 1, 11, 7, 5]
    return FatGraph(sigma, labels)
