"""Acceptance suite: nine numbered criteria, one test and one printed
pass/fail line each.  Every criterion is expected to pass; a failing one's
assertion message carries the measured table.  Criteria 1-6 measure the
claims of ``fcctrig.claims``, which ``fcc-trig verify`` prints too, at the
degrees, probes and tolerances written here."""

import math

import numpy as np

from fcctrig import claims
from fcctrig.indexsets import generate_Hn, lambda_circ_nodes, lambda_nodes
from fcctrig.interpolation import (
    ell_circ,
    ell_circ_ts_sum,
    ell_tri,
    ell_tri_tc_sum,
    interp_Ln_star,
    lebesgue_interp,
    tetra_grid,
)
from fcctrig.lattice import phi
from fcctrig.transforms import continuous_inner
from fcctrig.trigbasis import tc, tc_orthogonality_value


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})"
    print(line)
    assert ok, line


def rand_t(rng, m):
    t = rng.uniform(-1.2, 1.2, size=(m, 4))
    return t - t.mean(axis=1, keepdims=True)


def singular_probes(rng, m):
    t = rng.uniform(-0.4, 0.4, size=(m, 4))
    t[:, 0] = rng.integers(-2, 3, size=m) + rng.uniform(-1e-7, 1e-7, size=m)
    return t - t.mean(axis=1, keepdims=True)


def test_criterion_1_cardinalities():
    ok = all(claims.cardinalities(n) == 0 for n in range(1, 7))
    report(1, "cardinalities and stratum counts", ok, "n = 1..6, exact")


def test_criterion_2_weight_identities():
    ok = all(claims.weight_sums(n) == 0 for n in range(1, 7))
    report(2, "weight sums equal 4n^3", ok, "n = 1..6, rational arithmetic")


def test_criterion_3_discrete_orthonormality():
    worst = max(claims.orthonormality(n) for n in (2, 4, 8, 16))
    ok = worst < 1e-10
    report(
        3,
        "discrete orthonormality, plain and weighted rules",
        ok,
        f"all pairs at n = 2, 4, 8 and 16, max err {worst:.2e}",
    )


def test_criterion_4_cubature_exactness():
    worst = max(
        max(claims.dodeca_cubature(n), claims.tetra_cubature(n)) for n in (2, 4, 8, 16)
    )
    ok = worst < 1e-10
    report(
        4,
        "cubature integrates the 2n-1 band to delta",
        ok,
        f"dodeca and tetra n = 2, 4, 8 and 16, max err {worst:.2e}",
    )


def test_criterion_5_compact_formula_equivalences():
    rng = np.random.default_rng(90)
    worst = 0.0
    for n in range(1, 6):
        t = np.vstack([rand_t(rng, 100), singular_probes(rng, 30)])
        errs = [*claims.compact_kernels(n, t).values(), *claims.tetra_basis(n, t).values()]
        # the fundamental functions against their TC/TS sums: checked here only
        for k in lambda_nodes(n):
            errs.append(float(np.abs(ell_tri(k, n, t) - ell_tri_tc_sum(k, n, t)).max()))
        for k in lambda_circ_nodes(n):
            errs.append(float(np.abs(ell_circ(k, n, t) - ell_circ_ts_sum(k, n, t)).max()))
        worst = max(worst, *errs)
    ok = worst < 1e-9
    report(
        5,
        "compact forms match direct sums (with singular probes)",
        ok,
        f"n = 1..5, 130 points each, max err {worst:.2e}",
    )


def test_criterion_6_interpolation_conditions():
    def probe(t):
        t = np.asarray(t)
        return np.exp(np.sin(2.0 * np.pi * t[..., 0])) + 0.4 * np.cos(
            2.0 * np.pi * (t[..., 1] - t[..., 2])
        )

    errs = [
        claims.interpolation_condition(kind, n, probe)
        for kind in ("in", "instar", "lnstar")
        for n in (2, 3)
    ]
    # the sine operator has no nodes below degree 4; its interpolation
    # condition is vacuous at n = 2, 3 and is checked with content at 4, 5
    errs += [claims.interpolation_condition("ln", n, probe) for n in (2, 3, 4, 5)]
    worst = max(errs)
    ok = worst < 1e-9
    report(
        6,
        "interpolation conditions incl. boundary class sums",
        ok,
        f"n = 2, 3 (sine kind at 4, 5; empty below), max err {worst:.2e}",
    )


def test_criterion_7_continuous_oracle():
    rng = np.random.default_rng(91)
    worst = 0.0
    for n in (1, 2, 3):
        q = 4 * n + 4
        idx = generate_Hn(n)
        take = idx if len(idx) <= 16 else idx[rng.choice(len(idx), 16, False)]
        for k in take:
            for m in take:
                got = continuous_inner(
                    lambda t: phi(k, t), lambda t: phi(m, t), q
                )
                want = 1.0 if np.array_equal(k, m) else 0.0
                worst = max(worst, abs(got - want))
        for k in lambda_nodes(n):
            kt = tuple(int(v) for v in k)
            got = continuous_inner(lambda t: tc(kt, t), lambda t: tc(kt, t), q)
            worst = max(worst, abs(got - float(tc_orthogonality_value(kt))))
    ok = worst < 1e-8
    report(
        7,
        "unit-cell quadrature reproduces continuous inner products",
        ok,
        f"quad order 4n+4, n <= 3, max err {worst:.2e}",
    )


def test_criterion_8_lebesgue_log_cube_ratio():
    # The claim is an upper bound, Lambda_n = O((log n)^3), so est/(log n)^3
    # may not grow from one degree to the next: each step n -> m may multiply
    # the estimate by at most (log m / log n)^3.  A two-sided spread bound is
    # not claimed, and at n = 2 the ratio measures the floor of the Lebesgue
    # function (>= 1 for lnstar, 6 at the largest boundary classes for instar)
    # over (log 2)^3 = 0.33, not growth.
    degrees = (2, 4, 8, 16)
    lines = []
    ok = True
    for kind, grid in (("instar", 9), ("lnstar", 7)):
        ests = [lebesgue_interp(n, kind, grid_per_axis=grid) for n in degrees]
        ratios = [e / math.log(n) ** 3 for n, e in zip(degrees, ests)]
        steps = []
        for i in range(1, len(degrees)):
            n, m = degrees[i - 1], degrees[i]
            growth = ests[i] / ests[i - 1]
            allowed = (math.log(m) / math.log(n)) ** 3
            ok &= growth <= allowed
            steps.append(f"{n}->{m}: x{growth:.3f} (<= x{allowed:.3f})")
        body = ", ".join(
            f"n={n}: {e:.4f} / {r:.4f}"
            for n, e, r in zip(degrees, ests, ratios)
        )
        lines.append(
            f"{kind} est / ratio: {body}; growth {', '.join(steps)}; "
            f"max/min = {max(ratios) / min(ratios):.1f}"
        )
    report(
        8,
        "Lebesgue estimate / (log n)^3 non-increasing across n = 2..16",
        ok,
        "; ".join(lines),
    )


def test_criterion_9_smooth_convergence():
    def probe(t):
        return np.exp(np.sin(2.0 * np.pi * np.asarray(t)[..., 0]))

    grid = tetra_grid(20)
    errs = []
    for n in (4, 8, 16):
        I = interp_Ln_star(probe, n)
        errs.append(float(np.abs(I(grid) - probe(grid)).max()))
    ok = errs[0] > errs[1] > errs[2]
    detail = ", ".join(f"n={n}: {e:.4f}" for n, e in zip((4, 8, 16), errs))
    report(9, "cosine interpolation error decreases on refinement", ok, detail)
