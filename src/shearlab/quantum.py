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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .exppoly import LaurentPoly, QExpPoly, classical_limit_commutator, poisson_bracket, qmul
from .fatgraph import FatGraph
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
    """Weyl-ordered quantum trace of a graph-simple path."""
    if not graph_simple(path):
        raise QuantumError(
            "quantum ordering is constructed only for graph-simple paths; "
            "non-simple operators arise through product decompositions"
        )
    classical = geodesic_function(g, path)
    return QGeodesic(tuple(path), QExpPoly.from_classical(classical))


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
    defect = QExpPoly(g.n_edges, {m: c for m, c in diff.terms.items() if m != zero})
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


def phi_hbar(z: complex, params: QDilogParams) -> complex:
    """Numerical Phi_hbar(z) on the contour Im p = delta = min(1, 1/hbar) / 2.

    The printed contour (real axis with a bump above p = 0) deforms to the
    straight line Im p = delta without crossing poles, since the integrand's
    poles sit at p = i k and p = i k / hbar; delta is halfway to the first.
    """
    h = float(params.hbar)
    z = complex(z)
    if not math.isfinite(h):
        raise QuantumError(f"hbar = {h} is not a finite number")
    if not cmath.isfinite(z):
        raise QuantumError(f"z = {z} is not a finite number")
    if h <= 0:
        raise QuantumError("hbar must be positive")
    decay = math.pi * (1.0 + h) - abs(z.imag)
    if decay <= 0:
        raise QuantumError(f"|Im z| = {abs(z.imag)} >= pi(1+hbar) = {math.pi * (1 + h)}")
    delta = 0.5 * min(1.0, 1.0 / h)
    p_max = 40.0 / decay
    t = np.linspace(-p_max, p_max, params.nodes + 1)
    p = t + 1j * delta
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    with np.errstate(all="ignore"):
        integrand = np.exp(-1j * p * z) / (np.sinh(math.pi * p) * np.sinh(math.pi * p * h))
        value = complex(-(math.pi * h / 2.0) * trapezoid(integrand, t))
    if not cmath.isfinite(value):
        raise QuantumError(f"phi_hbar overflowed at z = {z}, hbar = {h}: |Im z| is {decay:.3g} inside the strip edge")
    return value


def qdilog_check(kind: str, z: complex, hbar: float) -> dict:
    """Residual of one of the quantum dilogarithm identities."""
    params = QDilogParams(hbar=hbar)
    z = complex(z)
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
