"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Optimizer-based criteria run at the default optimizer
settings; Monte Carlo criteria pin pilot-verified seeds so every number here
is reproducible bit for bit.
"""

import math
import time

import numpy as np

from secomp.binning import run_erasure_encoder_scheme, run_sw_binning
from secomp.erasure import ErasureParams, gap_filler_u, make_erasure_joint
from secomp.orderings import check_stochastic_degradation, search_less_noisy_violation
from secomp.probability import (
    Alphabet,
    Channel,
    JointPMF,
    build_joint,
    entropy_of,
    mutual_information_of,
    rename_variable,
)
from secomp.regions import (
    OptimizerConfig,
    SwitchConfig,
    closed_form_delta,
    coded_inner_bound_sample,
    maximize_equivocation,
    secrecy_objective,
)

from conftest import dirichlet_joint, random_channel

NONE = SwitchConfig()
SB = SwitchConfig.from_name("sb")
SE = SwitchConfig.from_name("se")
DEFAULTS = OptimizerConfig()


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_uncoded_erasure_region():
    failures = []
    details = []
    for pb, pe in [(0.1, 0.3), (0.25, 0.5), (0.2, 0.9)]:
        joint = make_erasure_joint(ErasureParams(pb, pe))
        start = time.perf_counter()
        result = maximize_equivocation(joint, NONE, DEFAULTS)
        elapsed = time.perf_counter() - start
        r_a_min = entropy_of(joint, "A", "B")
        ok = (
            abs(result.delta_star - (pe - pb)) <= 1e-3
            and abs(r_a_min - pb) <= 1e-9
            and elapsed < 30.0
        )
        if not ok:
            failures.append((pb, pe))
        details.append(
            f"({pb},{pe}): delta={result.delta_star:.6f} r_a={r_a_min:.6f} {elapsed:.1f}s"
        )
    report(1, not failures, "; ".join(details))


def test_criterion_02_degraded_bob_zero_equivocation():
    details = []
    ok = True
    for pb, pe in [(0.4, 0.2), (0.9, 0.1)]:
        joint = make_erasure_joint(ErasureParams(pb, pe))
        result = maximize_equivocation(joint, NONE, DEFAULTS)
        ok = ok and result.delta_star <= 1e-3
        details.append(f"({pb},{pe}): delta={result.delta_star:.2e}")
    report(2, ok, "; ".join(details))


def test_criterion_03_encoder_side_information():
    params = ErasureParams(0.25, 0.5)
    joint = make_erasure_joint(params)
    value_at_gap_filler = secrecy_objective(joint, gap_filler_u(SB), SB)
    sb_result = maximize_equivocation(joint, SB, DEFAULTS)
    h_a_e = entropy_of(joint, "A", "E")
    se_value = closed_form_delta(joint, "se_closed")
    degraded_bob = make_erasure_joint(ErasureParams(0.5, 0.3))
    sb_degraded = maximize_equivocation(degraded_bob, SB, DEFAULTS)
    ok = (
        abs(value_at_gap_filler - 0.375) <= 1e-9
        and sb_result.delta_star >= 0.375 - 1e-2
        and sb_result.delta_star <= h_a_e + 1e-9
        and abs(se_value - 0.375) <= 1e-12
        and abs(mutual_information_of(joint, "A", "B", "E") - 0.375) <= 1e-12
        and sb_degraded.delta_star >= 0.3 * 0.5 - 1e-2
    )
    report(
        3,
        ok,
        f"gap-filler objective={value_at_gap_filler:.9f}, sb delta={sb_result.delta_star:.6f} "
        f"(bounds [0.365, {h_a_e + 1e-9:.3f}]), se closed-form={se_value:.6f}, "
        f"degraded-bob sb delta={sb_degraded.delta_star:.6f} >= 0.14",
    )


def test_criterion_04_conditioning_cost_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_chain = 0.0
    worst_objective = 0.0
    for _ in range(100):
        joint = dirichlet_joint(rng, (3, 3, 3))
        base_gap = mutual_information_of(joint, "A", "B") - mutual_information_of(
            joint, "A", "E"
        )
        for _ in range(100):
            channel = random_channel(rng, joint, ("A",), "U", 4)
            extended = build_joint(joint, channel)
            cond_gap = mutual_information_of(
                extended, "A", "B", ("U",)
            ) - mutual_information_of(extended, "A", "E", ("U",))
            side_gap = mutual_information_of(extended, "B", "U") - (
                mutual_information_of(extended, "E", "U")
            )
            worst_chain = max(worst_chain, abs((base_gap - cond_gap) - side_gap))
            objective = secrecy_objective(joint, channel, NONE)
            via_entropies = entropy_of(extended, "A", ("E", "U")) - entropy_of(
                extended, "A", ("B", "U")
            )
            worst_objective = max(worst_objective, abs(objective - via_entropies))
    elapsed = time.perf_counter() - start
    ok = worst_chain <= 1e-10 and worst_objective <= 1e-10 and elapsed < 60.0
    report(
        4,
        ok,
        f"10000 samples: conditioning-cost identity err={worst_chain:.2e}, "
        f"objective identity err={worst_objective:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_ordering_verdicts():
    joint = make_erasure_joint(ErasureParams(0.1, 0.3))
    forward = check_stochastic_degradation(joint, "e_degraded_wrt_b")
    rows = forward.certificate.rows if forward.certificate is not None else None
    p_b_given_a = np.array([[0.9, 0.0, 0.1], [0.0, 0.9, 0.1]])
    p_e_given_a = np.array([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])
    compose_err = (
        float(np.abs(p_b_given_a @ rows - p_e_given_a).max()) if rows is not None else np.inf
    )
    backward = check_stochastic_degradation(joint, "b_degraded_wrt_e")
    no_witness = search_less_noisy_violation(joint, DEFAULTS)
    reversed_joint = make_erasure_joint(ErasureParams(0.3, 0.1))
    witnessed = search_less_noisy_violation(reversed_joint, DEFAULTS)
    ok = (
        forward.kind == "degraded"
        and compose_err <= 1e-8
        and abs(rows[0, 2] - 2 / 9) <= 1e-6
        and backward.kind == "not_degraded"
        and no_witness.kind == "less_noisy_not_falsified"
        and witnessed.kind == "less_noisy_falsified"
        and witnessed.gap >= 0.19
    )
    report(
        5,
        ok,
        f"degraded cert err={compose_err:.2e}, q(e|b)={rows[0, 2]:.7f} (2/9), "
        f"reverse={backward.kind}, search kinds=({no_witness.kind}, {witnessed.kind}), "
        f"gap={witnessed.gap:.4f}",
    )


def test_criterion_06_markov_chain_encoder_no_gain():
    alph_a = Alphabet("A", ("0", "1"))
    base = JointPMF((("A", alph_a),), np.array([0.5, 0.5]))
    with_b = build_joint(
        base,
        Channel((("A", alph_a),), ("B", Alphabet("B", ("0", "1"))),
                np.array([[0.9, 0.1], [0.1, 0.9]])),
    )
    joint = build_joint(
        with_b,
        Channel((("B", with_b.alphabet("B")),), ("E", Alphabet("E", ("0", "1"))),
                np.array([[0.8, 0.2], [0.2, 0.8]])),
    )
    none_result = maximize_equivocation(joint, NONE, DEFAULTS)
    se_result = maximize_equivocation(joint, SE, DEFAULTS)
    ok = se_result.delta_star <= none_result.delta_star + 1e-2
    report(
        6,
        ok,
        f"none delta={none_result.delta_star:.6f}, with-eve-at-encoder "
        f"delta={se_result.delta_star:.6f} (gain {se_result.delta_star - none_result.delta_star:+.2e})",
    )


def test_criterion_07_binning_simulator():
    start = time.perf_counter()
    joint = make_erasure_joint(ErasureParams(0.5, 0.8))
    h_a_e = entropy_of(joint, "A", "E")
    full_rate = run_sw_binning(joint, n=10, rate=1.0, trials=50, seed=3)
    single_bin = run_sw_binning(joint, n=12, rate=0.0, trials=200, seed=3)
    main = run_sw_binning(joint, n=16, rate=0.65, trials=500, seed=1)
    floor = h_a_e - 0.65 - 3 * main.equiv_stderr
    elapsed = time.perf_counter() - start
    ok = (
        full_rate.p_e_hat == 0.0
        and full_rate.equiv_hat == 0.0
        and abs(single_bin.equiv_hat - h_a_e) <= 3 * single_bin.equiv_stderr
        and main.p_e_hat <= 0.25
        and 0.10 <= main.equiv_hat <= 0.30
        and main.equiv_hat >= floor
        and elapsed < 300.0
    )
    report(
        7,
        ok,
        f"full-rate=({full_rate.p_e_hat}, {full_rate.equiv_hat}), single-bin "
        f"equiv={single_bin.equiv_hat:.4f} vs H(A|E)={h_a_e:.4f}, main p_e={main.p_e_hat:.3f} "
        f"equiv={main.equiv_hat:.4f} floor={floor:.4f}, {elapsed:.1f}s",
    )


def test_criterion_08_gap_scheme_simulator():
    start = time.perf_counter()
    params = ErasureParams(0.25, 0.5)
    at_12 = run_erasure_encoder_scheme(params, n=12, trials=2000, seed=7)
    at_4 = run_erasure_encoder_scheme(params, n=4, trials=2000, seed=7)
    bias_12 = abs(at_12.equiv_hat - 0.375)
    bias_4 = abs(at_4.equiv_hat - 0.375)
    sigma = math.hypot(at_12.equiv_stderr, at_4.equiv_stderr)
    elapsed = time.perf_counter() - start
    ok = (
        at_12.p_e_hat == 0.0
        and bias_12 <= 0.1
        and bias_12 <= bias_4 + 2 * sigma
        and elapsed < 300.0
    )
    report(
        8,
        ok,
        f"n=12 equiv={at_12.equiv_hat:.4f} (|bias|={bias_12:.4f} <= 0.1), n=4 "
        f"|bias|={bias_4:.4f}, trend slack 2s={2 * sigma:.4f}, {elapsed:.1f}s",
    )


def _coupled_erasure_joint(pb, pe):
    mass = np.zeros((2, 3, 3))
    for a in range(2):
        mass[a, a, a] += 0.5 * (1.0 - pe)
        mass[a, a, 2] += 0.5 * (pe - pb)
        mass[a, 2, 2] += 0.5 * pb
    return JointPMF(
        (
            ("A", Alphabet("A", ("0", "1"))),
            ("B", Alphabet("B", ("0", "1", "e"))),
            ("E", Alphabet("E", ("0", "1", "e"))),
        ),
        mass,
    )


def test_criterion_09_only_pairwise_marginals_matter():
    independent = make_erasure_joint(ErasureParams(0.25, 0.5))
    coupled = _coupled_erasure_joint(0.25, 0.5)
    assert not np.allclose(independent.mass, coupled.mass)
    d_ind = maximize_equivocation(independent, NONE, DEFAULTS).delta_star
    d_cpl = maximize_equivocation(coupled, NONE, DEFAULTS).delta_star
    verdicts_match = all(
        check_stochastic_degradation(independent, d).kind
        == check_stochastic_degradation(coupled, d).kind
        for d in ("e_degraded_wrt_b", "b_degraded_wrt_e")
    ) and (
        search_less_noisy_violation(independent, DEFAULTS).kind
        == search_less_noisy_violation(coupled, DEFAULTS).kind
    )
    ok = abs(d_ind - d_cpl) <= 1e-3 and verdicts_match
    report(
        9,
        ok,
        f"delta independent={d_ind:.6f} vs coupled={d_cpl:.6f}, verdicts match={verdicts_match}",
    )


def test_criterion_10_coded_corner_recovery():
    joint = rename_variable(make_erasure_joint(ErasureParams(0.1, 0.3)), "B", "C")
    identity = Channel.copy_of(("C", joint.alphabet("C")), "V")
    corner = coded_inner_bound_sample(joint, identity, DEFAULTS)
    constant = Channel.uniform(
        (("C", joint.alphabet("C")),), ("V", Alphabet("V", ("v0",)))
    )
    degenerate = coded_inner_bound_sample(joint, constant, DEFAULTS)
    ok = (
        abs(corner.r_a - 0.1) <= 1e-9
        and abs(corner.delta - 0.2) <= 1e-3
        and corner.sum_ok
        and degenerate.delta == 0.0
    )
    report(
        10,
        ok,
        f"identity corner r_a={corner.r_a:.10f} delta={corner.delta:.6f} "
        f"sum_ok={corner.sum_ok}; constant quantizer delta={degenerate.delta}",
    )
