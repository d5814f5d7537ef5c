"""Closed-form spectrum and parities of the chain at zero gain.

Without the imaginary fields the chain maps onto free fermions, and every
many-body level is a filling of N quasiparticle modes. The mode wave-vectors
solve

    sin((N+1) k) = (J / Delta) sin(N k),   k in (0, pi),

one root per interval (pi i / N, pi (i+1) / N). When |J|/Delta exceeds
(N+1)/N the lowest mode leaves the real axis: k0 = i*kappa for J > 0 or
pi - i*kappa for J < 0, with sinh((N+1) kappa) = (|J|/Delta) sinh(N kappa),
and its energy is exponentially small in N. Mode energies follow the
dispersion

    eps_k = 2 sqrt(J^2 + Delta^2 - 2 J Delta cos k).

Each mode carries a mirror-parity factor delta_k = sign[sin k / sin Nk],
which in energy order reduces to (sign J)^(N-1) * (-1)^i. The parity of a
many-body state with occupied modes k_{i_1}..k_{i_r} is
(-1)^(r(r-1)/2) * prod delta_{k_i}, with an even ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import check_chain_length

#: Offset used to keep bisection brackets away from the poles of sin(Nk).
POLE_SHRINK = 1e-12
_BISECT_KW = dict(xtol=1e-14, rtol=8.9e-16, maxiter=200)
_ENUMERATION_LIMIT = 14


@dataclass(frozen=True)
class FermionMode:
    """One quasiparticle mode, labeled by increasing energy.

    ``k`` is real (stored with zero imaginary part) for band modes, and
    ``k.imag`` is nonzero for the almost-zero mode in the ordered regime.
    """

    i: int
    k: complex
    energy: float
    delta: int


@dataclass(frozen=True)
class OracleState:
    """Many-body level: mode occupation bitmask, energy, parity, excitation count."""

    occupation: int
    energy: float
    parity: int
    r: int


def _bisect(f, a: float, b: float, args=()) -> float:
    """Root of ``f`` in [a, b], at the oracle's tolerances: the loop of
    ``scipy.optimize.bisect``, step for step.

    The step from ``a`` halves each round. The midpoint replaces ``a`` when
    f there has the sign of f(a) (or is 0), and is returned once f is 0 there
    or the step is below ``xtol + rtol*|midpoint|`` (``_BISECT_KW``). An end
    where f is 0 is returned before any round. Ends of one sign raise
    ValueError, and ``maxiter`` rounds without convergence raise ArithmeticError.
    """
    xtol, rtol, maxiter = _BISECT_KW["xtol"], _BISECT_KW["rtol"], _BISECT_KW["maxiter"]
    fa, fb = f(a, *args), f(b, *args)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return a
    if fb == 0:
        return b
    step = b - a
    for _ in range(maxiter):
        step *= 0.5
        mid = a + step
        fm = f(mid, *args)
        if fm * fa >= 0:
            a = mid
        if fm == 0 or abs(step) < xtol + rtol * abs(mid):
            return mid
    raise ArithmeticError(f"bisection did not converge after {maxiter} rounds")


def _mode_func(k: float, n: int, ratio: float) -> float:
    # sin((N+1)k) - ratio*sin(Nk); same roots as the dispersion equation on
    # the open intervals between poles, but finite everywhere.
    return math.sin((n + 1) * k) - ratio * math.sin(n * k)


def _solve_kappa(n: int, ratio_abs: float) -> float | None:
    """Root of sinh((N+1)x) = ratio*sinh(Nx); None when no root exists (threshold)."""

    def h(x: float) -> float:
        return math.sinh((n + 1) * x) - ratio_abs * math.sinh(n * x)

    lo = POLE_SHRINK
    if h(lo) >= 0.0:
        return None
    hi = max(1.0, math.log(2.0 * ratio_abs) + 1.0)
    cap = 650.0 / (n + 1)
    while h(hi) <= 0.0:
        hi *= 2.0
        if hi > cap:
            raise ArithmeticError(
                f"no sign change for the complex-mode equation up to kappa={hi:.3g}"
            )
    return _bisect(h, lo, hi)


def solve_modes(n: int, j: float, delta: float) -> list[FermionMode]:
    """All N quasiparticle modes for coupling ``j`` and transverse field ``delta``.

    Real roots are found by bracketed bisection on each interval between the
    poles of sin(Nk); a missing root in the first (ferromagnet) or last
    (antiferromagnet) interval signals the complex branch of the lowest mode.
    """
    check_chain_length(n)
    if not delta > 0:
        raise ValueError("transverse field must be positive")
    if j == 0:
        raise ValueError("coupling must be nonzero")

    ratio = j / delta
    roots: list[float] = []
    missing: list[tuple[int, float, float, float, float]] = []
    for i in range(n):
        a = math.pi * i / n + POLE_SHRINK
        b = math.pi * (i + 1) / n - POLE_SHRINK
        fa = _mode_func(a, n, ratio)
        fb = _mode_func(b, n, ratio)
        if fa == 0.0:
            roots.append(a)
        elif fb == 0.0:
            roots.append(b)
        elif fa * fb < 0.0:
            roots.append(_bisect(_mode_func, a, b, args=(n, ratio)))
        else:
            missing.append((i, a, b, fa, fb))

    ks: list[complex] = [complex(k, 0.0) for k in roots]
    energies = [
        2.0 * math.sqrt(max(0.0, j * j + delta * delta - 2.0 * j * delta * math.cos(k)))
        for k in roots
    ]

    if missing:
        expected = 0 if j > 0 else n - 1
        if len(missing) > 1 or missing[0][0] != expected:
            raise ArithmeticError(
                f"unexpected rootless bisection brackets (interval, a, b, f(a), f(b)): {missing}"
            )
        kappa = _solve_kappa(n, abs(ratio))
        if kappa is None:
            # exactly at the |J|/Delta = (N+1)/N threshold: k0 -> 0 (or pi)
            ks.append(complex(0.0 if j > 0 else math.pi, 0.0))
            energies.append(2.0 * abs(abs(j) - delta))
        else:
            # cancellation-free form of eps_{k0}, obtained by eliminating
            # the near-degenerate factor via the mode equation itself
            energies.append(
                2.0 * math.exp(-n * kappa) * (abs(j) - delta * math.exp(-kappa))
            )
            ks.append(1j * kappa if j > 0 else complex(math.pi, -kappa))

    order = sorted(range(len(ks)), key=lambda t: energies[t])
    sign_j = 1 if j > 0 else -1
    modes = [
        FermionMode(
            i=pos,
            k=ks[t],
            energy=energies[t],
            delta=(sign_j ** (n - 1)) * (-1) ** pos,
        )
        for pos, t in enumerate(order)
    ]
    return modes


def full_spectrum(n: int, j: float, delta: float) -> list[OracleState]:
    """All 2^N many-body levels, sorted by (energy, parity).

    The bit ``i`` of ``occupation`` marks mode ``i`` (energy order) filled.
    """
    if n > _ENUMERATION_LIMIT:
        raise ValueError(f"state enumeration limited to n <= {_ENUMERATION_LIMIT}")
    modes = solve_modes(n, j, delta)
    eps = [m.energy for m in modes]
    dks = [m.delta for m in modes]
    base = -0.5 * sum(eps)

    states = []
    for mask in range(1 << n):
        energy = base
        parity = 1
        r = 0
        for i in range(n):
            if mask >> i & 1:
                energy += eps[i]
                parity *= dks[i]
                r += 1
        parity *= (-1) ** ((r * (r - 1)) // 2)
        states.append(OracleState(occupation=mask, energy=energy, parity=parity, r=r))
    states.sort(key=lambda s: (s.energy, s.parity))
    return states


def almost_zero_energy(n: int, j: float, delta: float) -> float:
    """Large-N approximation 2|J| (1 - Delta^2/J^2) (Delta/|J|)^N of the lowest mode.

    Only meaningful in the ordered regime |J| > Delta.
    """
    if not abs(j) > delta:
        raise ValueError("almost-zero mode asymptotics require |j| > delta")
    return 2.0 * abs(j) * (1.0 - delta * delta / (j * j)) * (delta / abs(j)) ** n


def pair_relative_parity(r: int, j: float) -> int:
    """Relative parity of the two levels differing only by the lowest-mode filling.

    ``r`` counts the excited nonzero modes shared by the pair; the answer is
    sign(J) * (-1)^r.
    """
    if r < 0:
        raise ValueError("excitation count must be >= 0")
    if j == 0:
        raise ValueError("coupling must be nonzero")
    return (1 if j > 0 else -1) * (-1) ** (r % 2)
