"""Quantum geodesic operators and the quantum dilogarithm.

Graph-simple geodesics quantize by Weyl ordering: each classical monomial
c e^{m.z/2} becomes c e^{m.Z/2} with rho-free coefficient, a single
exponential of a self-adjoint combination.  Products live in the quantum
torus algebra (exppoly.qmul); the skein and commutator structure of the
products is checked here, together with a numerical evaluation of the
quantum dilogarithm

    Phi_hbar(z) = -(pi hbar / 2) Int e^{-ipz} dp / (sinh(pi p) sinh(pi p hbar))

with the contour passing above the double pole at p = 0.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .exppoly import LaurentPoly, QExpPoly, classical_limit_commutator, poisson_bracket, qmul
from .fatgraph import FatGraph, short_repr
from .geodesics import float_report, geodesic_function, graph_simple, product_traces

Q_HALF = LaurentPoly.rho_power(2)  # q^{1/2}
Q_MINUS_HALF = LaurentPoly.rho_power(-2)  # q^{-1/2}


class QuantumError(ValueError):
    pass


@dataclass(frozen=True)
class QGeodesic:
    path: tuple
    operator: QExpPoly


def quantum_geodesic(g: FatGraph, path) -> QGeodesic:
    """Weyl-ordered quantum trace of a graph-simple path; compiling checks the word once, before the simple test."""
    path = tuple(path)
    classical = geodesic_function(g, path)
    if not graph_simple(path):
        raise QuantumError(
            "quantum ordering is constructed only for graph-simple paths; "
            "non-simple operators arise through product decompositions"
        )
    return QGeodesic(path, QExpPoly.from_classical(classical))


def qskein_decompose(g: FatGraph, A: QGeodesic, B: QGeodesic) -> tuple:
    """Resolve A o B = q^{-1/2} G_AB + q^{1/2} G_{AB^-1}.

    G_{AB^-1} is graph-simple on the stock pairs, hence Weyl; the remainder,
    multiplied back by q^{1/2}, is the quantum G_AB.  Its rho = 1 form must
    equal the classical Tr(PQ); coefficients that differ from the classical
    ones are the ordering corrections C(gamma, alpha).
    """
    omega = g.omega_matrix()
    ab = qmul(A.operator, B.operator, omega)
    tr_pq, tr_pqi = product_traces(g, A.path, B.path)
    weyl_abinv = QExpPoly.from_classical(tr_pqi)
    remainder = ab - weyl_abinv.scale(Q_HALF)
    g_ab_quantum = remainder.scale(Q_HALF)

    star_ok = g_ab_quantum.star() == g_ab_quantum
    classical_ok = g_ab_quantum.at_rho_one() == tr_pq
    corrections = {}
    for m, c in g_ab_quantum.terms.items():
        classical_c = tr_pq.coefficient(m)
        if c != LaurentPoly.const(classical_c):
            corrections[m] = (classical_c, c)
    report = {
        "name": "qskein",
        "abinv_coefficient": "q^{1/2}",
        "star_fixed": star_ok,
        "classical_match": classical_ok,
        "ordering_corrections": {
            str(list(m)): {"classical": str(cl), "quantum": repr(qc)}
            for m, (cl, qc) in sorted(corrections.items())
        },
        "equal": star_ok and classical_ok,
    }
    return g_ab_quantum, report


def qcommutator_check(g: FatGraph, A: QGeodesic, B: QGeodesic) -> dict:
    """[A, B]_q = q^{1/2} A o B - q^{-1/2} B o A must be c(rho) x Weyl(AB^-1).

    Also verifies that the plain commutator's hbar-derivative at 0 equals
    2 pi i times the Poisson bracket (reported through the exact
    classical_limit_commutator, which strips the 2 pi i).
    """
    omega = g.omega_matrix()
    ab = qmul(A.operator, B.operator, omega)
    ba = qmul(B.operator, A.operator, omega)
    qcomm = ab.scale(Q_HALF) - ba.scale(Q_MINUS_HALF)

    tr_pqi = product_traces(g, A.path, B.path)[1]
    m0 = min(tr_pqi.terms)
    c_rho = qcomm.coefficient(m0) * Fraction(1, tr_pqi.terms[m0])
    proportional = qcomm == QExpPoly.from_classical(tr_pqi).scale(c_rho)
    q_minus_qinv = LaurentPoly({4: 1, -4: -1})
    qhalf_minus = LaurentPoly({2: 1, -2: -1})

    limit = classical_limit_commutator(A.operator, B.operator, omega)
    bracket = poisson_bracket(A.operator.at_rho_one(), B.operator.at_rho_one(), omega)

    return {
        "name": "qcommutator",
        "proportional": proportional,
        "c_rho": repr(c_rho),
        "c_equals_q_minus_qinv": c_rho == q_minus_qinv,
        "c_equals_qhalf_minus_qminushalf": c_rho == qhalf_minus,
        "classical_limit_exact": limit == bracket,
        "equal": proportional and limit == bracket,
    }


def empty_loop_constant(g: FatGraph, A: QGeodesic) -> tuple:
    """Scalar part of A o A minus the Weyl promotion of the classical Tr(P^2).

    The coefficient-preserving Weyl candidate differs from A o A by the
    exponent-zero scalar plus ordering-correction terms whose rho = 1
    specialization vanishes (classical coefficient 2 becomes q + q^{-1}).
    The scalar's rho = 1 value is the classical Tr(identity) = 2; the
    relation to the skein-theoretic -q - q^{-1} loop value is reported, not
    asserted.
    """
    omega = g.omega_matrix()
    aa = qmul(A.operator, A.operator, omega)
    tr_p2, _ = product_traces(g, A.path, A.path)
    candidate = QExpPoly.from_classical(tr_p2)
    diff = aa - candidate

    zero = (0,) * g.n_edges
    scalar = diff.coefficient(zero)
    defect = diff - QExpPoly.monomial(zero, scalar)
    defect_classical = defect.at_rho_one()
    minus_q_minus_qinv = LaurentPoly({4: -1, -4: -1})
    report = {
        "name": "empty_loop",
        "scalar": repr(scalar),
        "scalar_at_rho_one": str(scalar.at_one()),
        "star_fixed": scalar.star() == scalar and defect.star() == defect,
        "defect": repr(defect) if defect else "0",
        "defect_vanishes_classically": defect_classical.is_zero(),
        "matches_minus_q_minus_qinv": scalar == minus_q_minus_qinv,
        "equal": scalar.at_one() == 2 and defect_classical.is_zero(),
    }
    return scalar, report


def quantum_centrality_check(g: FatGraph, A: QGeodesic) -> dict:
    """The face exponential commutes with the quantum geodesic, exactly."""
    omega = g.omega_matrix()
    results = []
    for face in g.faces():
        p = g.face_multiplicity(face)
        face_exp = QExpPoly.monomial(p)
        lhs = qmul(face_exp, A.operator, omega)
        rhs = qmul(A.operator, face_exp, omega)
        results.append(lhs == rhs)
    return {"name": "quantum_centrality", "faces": len(results), "equal": all(results)}


# -- quantum dilogarithm ------------------------------------------------------


@dataclass(frozen=True)
class QDilogParams:
    hbar: float
    nodes: ClassVar[int] = 4096  # trapezoid intervals on [-40/decay, 40/decay]


@functools.lru_cache(maxsize=2)
def _quadrature(h: float, decay: float, nodes: int) -> tuple:
    """Read-only (node gaps, -i p, sinh(pi p) sinh(pi p h)) of the phi_hbar grid for ``h`` and ``decay``."""
    import numpy as np
    p_max = 40.0 / decay
    t = np.linspace(-p_max, p_max, nodes + 1)
    p = t + 1j * (0.5 * min(1.0, 1.0 / h))
    with np.errstate(all="ignore"):
        s = np.sinh(math.pi * p)
        arrays = (np.diff(t), -1j * p, s * s if h == 1.0 else s * np.sinh(math.pi * p * h))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _number(name: str, x, kind, cast):
    """``cast(x)`` for a finite ``kind`` number ``x`` that is not a bool, else a ``QuantumError`` naming it."""
    if type(x) is not cast:  # a plain float hbar or complex z needs no class test and no conversion
        if isinstance(x, bool) or not isinstance(x, kind):
            raise QuantumError(f"{name} = {short_repr(x)} is not a {kind.__name__.lower()} number")
        try:
            x = cast(x)
        except OverflowError:
            raise QuantumError(f"{name} = {short_repr(x)} is beyond the float range") from None
    if not cmath.isfinite(x):
        raise QuantumError(f"{name} = {x} is not a finite number")
    return x


def phi_hbar(z: complex, params: QDilogParams) -> complex:
    """Numerical Phi_hbar(z) on the contour Im p = delta = min(1, 1/hbar) / 2.

    The printed contour (real axis with a bump above p = 0) deforms to the
    straight line Im p = delta without crossing poles, since the integrand's
    poles sit at p = i k and p = i k / hbar; delta is halfway to the first.

    The trapezoid grid on [-p_max, p_max], p_max = 40 / decay with strip
    depth decay = pi(1 + hbar) - |Im z|, and its sinh denominator depend on z
    only through decay, so ``_quadrature`` caches them per (hbar, decay,
    nodes): z and -z, and all real z at one hbar, share one grid.  The grid
    is np.linspace's, the sum repeats np.trapezoid's operations, and at
    hbar = 1 the two sinh factors are equal bit for bit, so every value is
    the one the uncached linspace/trapezoid quadrature gives.
    """
    h = _number("hbar", params.hbar, numbers.Real, float)
    z = _number("z", z, numbers.Complex, complex)
    if h <= 0:
        raise QuantumError("hbar must be positive")
    edge = math.pi * (1.0 + h)
    if not math.isfinite(edge):
        raise QuantumError(f"hbar = {h} puts the strip edge pi(1+hbar) beyond the float range")
    decay = edge - abs(z.imag)
    if decay <= 0:
        raise QuantumError(f"|Im z| = {abs(z.imag)} >= pi(1+hbar) = {edge}")
    import numpy as np
    gaps, neg_ip, den = _quadrature(h, decay, params.nodes)
    with np.errstate(all="ignore"):
        y = np.exp(neg_ip * z) / den
        value = complex(-(math.pi * h / 2.0) * (gaps * (y[1:] + y[:-1]) / 2.0).sum())
    if not cmath.isfinite(value):
        raise QuantumError(f"phi_hbar overflowed at z = {z}, hbar = {h}: |Im z| is {decay:.3g} inside the strip edge")
    return value


QDILOG_CHECKS = ("difference", "quasi1", "quasi2", "semiclassical")  # the kinds qdilog_check takes


def qdilog_check(kind: str, z: complex, hbar: float) -> dict:
    """Residual of one of the quantum dilogarithm identities, named by one of ``QDILOG_CHECKS``."""
    hbar = _number("hbar", hbar, numbers.Real, float)  # phi_hbar refuses hbar <= 0
    z = _number("z", z, numbers.Complex, complex)
    params = QDilogParams(hbar=hbar)
    if kind == "difference":
        value = phi_hbar(z, params) - phi_hbar(-z, params)
        want, tol = z, 1e-8
    elif kind == "semiclassical":
        value = phi_hbar(z, params)
        want, tol = cmath.log(1 + cmath.exp(z)), 5e-3
    elif kind == "quasi1":
        value = phi_hbar(z + 1j * math.pi * hbar, params) - phi_hbar(z - 1j * math.pi * hbar, params)
        want, tol = 2j * math.pi * hbar / (1 + cmath.exp(-z)), 1e-6
    elif kind == "quasi2":
        value = phi_hbar(z + 1j * math.pi, params) - phi_hbar(z - 1j * math.pi, params)
        want, tol = 2j * math.pi / (1 + cmath.exp(-z / hbar)), 1e-6
    else:
        raise QuantumError(f"unknown check {kind!r}")
    return float_report(
        f"qdilog_{kind}", abs(value - want), tol, z=[z.real, z.imag], hbar=hbar, value=[value.real, value.imag]
    )
