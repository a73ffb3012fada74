"""Check one CLI command's output against the oracles and the method's properties.

``check(cmd, stdout)`` returns a list of ``Result(name, status, detail)``
with status ``pass``, ``fail`` or ``known``. ``known`` marks the one
failure kept on purpose: an se-closed solve that ends more than 1e-6 short
of I(A;B|E), which the random starts miss because they never try U = copy
of E. It counts the command as failed without making the run incorrect.

Checks read the distribution files themselves; apart from the bin table,
taken from the public ``secomp.make_binning_code``, no value comes from
secomp.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

import oracles

TOL = 1e-9
SE_SHORTFALL_TOL = 1e-6
# Degradation LP optimum below this is a degradation, above LP_NOT_DEGRADED it
# is not; in between the program's 1e-9 phase-1 tolerance may go either way.
LP_DEGRADED = 1e-9
LP_NOT_DEGRADED = 1e-7
# Markov-chain gap I(A; weak | strong) bands, same reasoning.
MARKOV_YES = 1e-13
MARKOV_NO = 1e-8
WITNESS_TOL = 1e-6
N_SIGMA = 4.0


class Result(NamedTuple):
    name: str
    status: str
    detail: str


def load_joint(path: str, names: tuple[str, ...]) -> tuple[np.ndarray, dict[str, list[str]]]:
    """Dense array with axes in ``names`` order, normalized by its sum."""
    data = json.loads(open(path).read())
    alphabets = data["alphabets"]
    mass = np.zeros(tuple(len(alphabets[n]) for n in names))
    for rec in data["pmf"]:
        mass[tuple(alphabets[n].index(rec[n]) for n in names)] += float(rec["p"])
    return mass / mass.sum(), alphabets


class _Checker:
    def __init__(self) -> None:
        self.results: list[Result] = []

    def add(self, name: str, ok: bool, detail: str = "", known: bool = False) -> bool:
        status = "pass" if ok else ("known" if known else "fail")
        self.results.append(Result(name, status, detail))
        return ok


def _rows(channel: dict, alphabets: dict[str, list[str]], c: _Checker, name: str):
    """Channel dict as an array over its conditioning axes, or None if malformed."""
    cond = channel["conditioning"]
    shape = tuple(len(alphabets[v]) for v in cond)
    rows = np.full(shape + (len(channel["output_symbols"]),), np.nan)
    for row in channel["rows"]:
        rows[tuple(alphabets[v].index(row["given"][v]) for v in cond)] = row["pmf"]
    complete = len(channel["rows"]) == int(np.prod(shape)) and not np.isnan(rows).any()
    valid = complete and (rows >= 0.0).all() and np.abs(rows.sum(axis=-1) - 1.0).max() <= TOL
    if not c.add(f"{name}.rows_valid", bool(valid), f"{len(channel['rows'])} rows"):
        return None
    return rows / rows.sum(axis=-1, keepdims=True)


def _envelope(c: _Checker, name: str, p: np.ndarray, value: float) -> None:
    g, eps = oracles.binary_envelope(p)
    c.add(name, g - TOL <= value <= g + eps + TOL,
          f"{value!r} vs envelope [{g!r}, {g + eps!r}]")


def uncoded(cmd: dict, out: str, c: _Checker) -> None:
    p, alphabets = load_joint(cmd["joint"], ("A", "B", "E"))
    d = json.loads(out)
    delta = d["delta_star"]
    h_a_b = oracles.entropy(p, (0,), (1,))
    c.add("r_a_min", abs(d["r_a_min"] - h_a_b) <= TOL, f"{d['r_a_min']!r} vs H(A|B) {h_a_b!r}")
    want = {"none": ["A"], "sb": ["A", "B"], "se": ["A", "E"], "both": ["A", "B", "E"]}
    cond = d["best_u"]["conditioning"]
    if c.add("best_u.conditioning", sorted(cond) == want[cmd["switches"]], str(cond)):
        rows = _rows(d["best_u"], alphabets, c, "best_u")
        if rows is not None:
            value = oracles.secrecy_value(p, rows, tuple("ABE".index(v) for v in cond))
            c.add("delta.reevaluated", abs(max(value, 0.0) - delta) <= TOL,
                  f"{delta!r} vs objective on best_u {value!r}")
    floor = max(0.0, oracles.mutual_information(p, (0,), (1,)) - oracles.mutual_information(p, (0,), (2,)))
    ceiling = oracles.entropy(p, (0,), (2,))
    c.add("delta.bounds", floor - TOL <= delta <= ceiling + TOL,
          f"{floor!r} <= {delta!r} <= H(A|E) {ceiling!r}")
    if cmd["switches"] == "none" and p.shape[0] == 2:
        _envelope(c, "delta.envelope", p, delta)
    if cmd["switches"] == "se":
        cmi = oracles.mutual_information(p, (0,), (1,), (2,))
        c.add("delta.se_upper", delta <= cmi + TOL, f"{delta!r} <= I(A;B|E) {cmi!r}")
        c.add("se_closed_shortfall", cmi - delta <= SE_SHORTFALL_TOL,
              f"short by {cmi - delta:.6g} ({delta:.6g} vs I(A;B|E) {cmi:.6g})", known=True)


def coded(cmd: dict, out: str, c: _Checker) -> None:
    p, _ = load_joint(cmd["joint"], ("A", "C", "E"))
    lines = out.splitlines()
    c.add("csv.header", lines[0] == "r_a,r_c,delta_star", lines[0])
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    v_grid = int(cmd["argv"][cmd["argv"].index("--v-grid") + 1])
    c.add("csv.rows", len(rows) == v_grid, f"{len(rows)} rows for --v-grid {v_grid}")
    h_a, h_c = oracles.entropy(p, (0,)), oracles.entropy(p, (1,))
    h_a_c = oracles.entropy(p, (0,), (1,))
    cmi = oracles.mutual_information(p, (0,), (1,), (2,))
    for k, (r_a, r_c, delta) in enumerate(rows):
        c.add(f"corner{k}.rates", h_a_c - TOL <= r_a <= h_a + TOL and -TOL <= r_c <= h_c + TOL,
              f"r_a {r_a!r} in [H(A|C) {h_a_c!r}, H(A)], r_c {r_c!r} <= H(C) {h_c!r}")
        c.add(f"corner{k}.delta", -TOL <= delta <= cmi + TOL, f"0 <= {delta!r} <= I(A;C|E) {cmi!r}")
    if rows:
        r_a, r_c, delta = rows[0]
        c.add("identity.rates", abs(r_a - h_a_c) <= TOL and abs(r_c - h_c) <= TOL,
              f"({r_a!r}, {r_c!r}) vs (H(A|C), H(C))")
        _envelope(c, "identity.envelope", p, delta)
    if len(rows) > 1:
        r_a, r_c, delta = rows[1]
        c.add("constant.corner", abs(r_a - h_a) <= TOL and abs(r_c) <= TOL and delta == 0.0,
              f"({r_a!r}, {r_c!r}, {delta!r}) vs (H(A), 0, 0)")


def order(cmd: dict, out: str, c: _Checker) -> None:
    p, alphabets = load_joint(cmd["joint"], ("A", "B", "E"))
    d = json.loads(out)
    check = cmd["check"]
    c.add("check.echo", d["check"] == check, d["check"])
    # eb: is E degraded wrt / B less noisy than E; be: the mirror.
    strong, weak = (1, 2) if check.endswith("eb") else (2, 1)
    t, _ = oracles.degradation_distance(p, strong, weak)
    if check.startswith("degraded"):
        kind = d["kind"]
        if not c.add("verdict.kind", kind in ("degraded", "not_degraded"), kind):
            return
        agrees = t < LP_NOT_DEGRADED if kind == "degraded" else t > LP_DEGRADED
        c.add("verdict.linprog", agrees, f"{kind} with LP distance {t:.3e}")
        if kind == "degraded":
            cert = d["certificate"]
            shape_ok = (cert is not None and cert["conditioning"] == ["ABE"[strong]]
                        and cert["output"] == "ABE"[weak])
            if c.add("certificate.shape", shape_ok, str(cert and cert["conditioning"])):
                rows = _rows(cert, alphabets, c, "certificate")
                if rows is not None:
                    residual = oracles.composition_residual(p, strong, weak, rows)
                    c.add("certificate.recomposes", residual <= 1e-8, f"residual {residual:.3e}")
        gap = oracles.markov_gap(p, strong, weak)
        physical = d["physically_degraded"]
        expected = True if gap <= MARKOV_YES else (False if gap >= MARKOV_NO else physical)
        c.add("physically_degraded", physical is expected, f"{physical} with I(A;weak|strong) {gap:.3e}")
        if cmd["built_degraded"] and check == "degraded-eb":
            c.add("built_chain.degraded", kind == "degraded" and physical is True,
                  f"{kind}, physically_degraded {physical}")
        return
    kind = d["kind"]
    if not c.add("verdict.kind", kind in ("less_noisy_falsified", "less_noisy_not_falsified"), kind):
        return
    falsified = kind == "less_noisy_falsified"
    # The identity copy of A is always among the starts and ascent only climbs.
    identity = oracles.mutual_information(p, (0,), (weak,)) - oracles.mutual_information(p, (0,), (strong,))
    if identity > WITNESS_TOL + TOL:
        c.add("identity_start", falsified and d["gap"] >= identity - TOL,
              f"{kind}, gap {d['gap']!r} vs identity channel {identity!r}")
    if t <= LP_DEGRADED:
        c.add("degraded_not_falsified", not falsified, f"{kind} but LP distance {t:.3e}")
    if cmd["built_degraded"] and check == "less-noisy-eb":
        c.add("built_chain.not_falsified", not falsified, kind)
    if falsified:
        witness = d["witness"]
        if c.add("witness.shape", witness is not None and witness["conditioning"] == ["A"], ""):
            rows = _rows(witness, alphabets, c, "witness")
            if rows is not None:
                gap = oracles.less_noisy_gap(p, rows, strong, weak)
                c.add("witness.gap", d["gap"] > WITNESS_TOL and abs(gap - d["gap"]) <= TOL,
                      f"{d['gap']!r} vs re-evaluated {gap!r}")
    else:
        c.add("budget_used", isinstance(d["budget_used"], int) and d["budget_used"] >= 1,
              str(d["budget_used"]))


def binning(cmd: dict, out: str, c: _Checker) -> None:
    import secomp

    p, _ = load_joint(cmd["joint"], ("A", "B", "E"))
    d = json.loads(out)
    n, rate = cmd["n"], cmd["rate"]
    trials = int(cmd["argv"][cmd["argv"].index("--trials") + 1])
    c.add("report.echo", d["trials"] == trials and d["seed"] == cmd["seed"], f"{d['trials']}, {d['seed']}")
    est, se = d["equiv_hat"], d["equiv_stderr"]
    c.add("report.ranges", 0.0 <= d["p_e_hat"] <= 1.0 and est >= 0.0 and se >= 0.0, "")
    if rate >= math.log2(p.shape[0]) - 1e-12:
        c.add("full_rate.exact_zero", d["p_e_hat"] == 0.0 and est == 0.0 and se == 0.0,
              f"p_e {d['p_e_hat']!r}, equiv {est!r}")
        return
    code = secomp.make_binning_code(n, rate, p.shape[0], cmd["seed"])
    h_a_e = oracles.entropy(p, (0,), (2,))
    # H(A^n|E^n) - log2(bins) <= H(A^n|M,E^n) <= H(A^n|E^n), per symbol.
    low = h_a_e - math.log2(code.n_bins) / n
    slack = N_SIGMA * se + 1e-12
    c.add("equiv.bounds", low - slack <= est <= h_a_e + slack,
          f"{low!r} <= {est!r} <= H(A|E) {h_a_e!r} (+-{slack:.3g})")
    if p.shape[0] ** n * p.shape[2] ** n <= 2**24:
        exact = oracles.binning_equivocation(p.sum(axis=1), n, code.bin_of, code.n_bins)
        c.add("equiv.exact", abs(est - exact) <= slack,
              f"{est!r} vs exact {exact!r} ({abs(est - exact) / max(se, 1e-300):.2f} stderr)")


def gap(cmd: dict, out: str, c: _Checker) -> None:
    d = json.loads(out)
    want = cmd["p_e"] * (1.0 - cmd["p_b"])
    slack = N_SIGMA * d["equiv_stderr"] + 1e-12
    c.add("p_e_hat.zero", d["p_e_hat"] == 0.0, repr(d["p_e_hat"]))
    c.add("equiv.closed_form", abs(d["equiv_hat"] - want) <= slack,
          f"{d['equiv_hat']!r} vs p_e(1-p_b) {want!r} (+-{slack:.3g})")


_KINDS = {"uncoded": uncoded, "coded": coded, "order": order, "binning": binning, "gap": gap}


def check(cmd: dict, stdout: str) -> list[Result]:
    c = _Checker()
    try:
        _KINDS[cmd["kind"]](cmd, stdout, c)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        c.add("output.parse", False, f"{type(exc).__name__}: {exc}")
    return c.results
