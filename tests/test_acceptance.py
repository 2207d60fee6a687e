"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured quantities. Tolerances and runtime budgets are asserted as
stated; statistical criteria use the pinned seed counts.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from coordline.cli import run_command
from coordline.codebooks import build_codebooks
from coordline.evalharness import coordination_tv, cr_independence, exact_induced
from coordline.fme import LinearSystem, fme_project
from coordline.linestruct import (
    a_label,
    all_pairs,
    aux_from_tags,
    copy_of,
    j_set,
    make_network,
    order_pairs,
)
from coordline.presets import (
    MI_DSBS_QUARTER,
    bsc_chain_network,
    dsbs_network,
    independent_uniform_network,
    preset_config,
)
from coordline.probability import info_measure, pmf_from_table, staircase_map
from coordline.rates import (
    CodebookRates,
    Mode,
    RatePoint,
    functional_lifted_system,
    markov_region_check,
    thm1_check,
)
from test_rates import ref_thm1_subsets

MI = MI_DSBS_QUARTER


def _report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


class TestCriterion1Deterministic:
    def test_copy_chain_classification(self, tmp_path):
        rng = np.random.default_rng(101)
        points = []
        truth = []
        for _ in range(1000):
            r1, r2 = rng.uniform(0, 2, size=2)
            points.append({"Rc": 0.0, "R": [float(r1), float(r2)], "rho": [0.0, 0.0, 0.0]})
            truth.append(r1 >= 1.0 - 1e-9 and r2 >= 1.0 - 1e-9)
        cfg = preset_config("copy3")
        cfg["region"] = {"theorem": "deterministic", "points": points}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        t0 = time.time()
        run_command(["region", "--config", str(path), "--out", str(tmp_path)])
        elapsed = time.time() - t0
        report = json.loads((tmp_path / "report.json").read_text())
        got = [p["report"]["passed"] for p in report["region"]["points"]]
        agree = sum(g == t for g, t in zip(got, truth))
        _report("1 deterministic-region", agree == 1000 and elapsed < 1.0,
                f"({agree}/1000 classified correctly in {elapsed:.2f}s)")


class TestCriterion2LargeCr:
    def test_dsbs_boundary(self, tmp_path):
        t0 = time.time()
        cfg = preset_config("dsbs")
        cfg["region"] = {"theorem": "large-cr",
                        "points": [{"Rc": 0.9, "R": [0.5], "rho": [0.0, 0.0]}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        run_command(["region", "--config", str(path), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        cons = report["region"]["points"][0]["report"]["constraints"]
        rhs = next(c["rhs"] for c in cons if c["name"] == "R_1")
        want = info_measure(dsbs_network().target, ["X1"], ["X2"])
        elapsed = time.time() - t0
        ok = abs(rhs - want) < 1e-6 and elapsed < 1.0
        _report("2 large-cr-boundary", ok,
                f"(boundary {rhs:.7f} vs info_measure {want:.7f}, {elapsed:.2f}s)")


class TestCriterion3Staircase:
    def test_bound_never_violated(self):
        rng = np.random.default_rng(301)
        t0 = time.time()
        violations = 0
        for _ in range(1000):
            size = int(rng.integers(2, 65))
            q = pmf_from_table(["X"], rng.dirichlet(np.ones(size)))
            ell = int(rng.integers(16, 4097))
            order = list(rng.permutation(size))
            full = staircase_map(q, order, ell)
            if full.realized_l1 > full.bound or full.realized_l1 > Fraction(size, ell):
                violations += 1
            m = int(rng.integers(1, size + 1))
            part = staircase_map(q, order[:m], ell)
            if part.realized_l1 > part.bound:
                violations += 1
        elapsed = time.time() - t0
        _report("3 staircase-lemma", violations == 0 and elapsed < 10.0,
                f"(0 violations required, got {violations}; {elapsed:.1f}s)")


class TestCriterion4Thm1Structure:
    def test_redundancy_matches_bruteforce(self):
        t0 = time.time()
        rng = np.random.default_rng(401)
        ok = True
        for h in (2, 3, 4):
            net = independent_uniform_network(h)
            for trial in range(3):
                a_tags = {}
                for p in order_pairs(h):
                    if rng.random() < 0.5:
                        a_tags[p] = copy_of(f"X{p[1]}")
                spec = aux_from_tags(net, a_tags=a_tags)
                rep = thm1_check(CodebookRates.for_network(h), spec, margin=0.0)
                ok = ok and _redundancy_bruteforce_agrees(rep, spec, h)
        # h=4 Remark collapse on the copy assignment
        net = independent_uniform_network(4)
        spec = aux_from_tags(net, a_tags={(1, 4): copy_of("X1"), (2, 4): copy_of("X2"),
                                          (3, 4): copy_of("X3")})
        rep = thm1_check(CodebookRates.for_network(4), spec, margin=0.0)
        family = [((1, 3),), ((1, 2), (1, 3)), ((1, 3), (2, 3)), ((1, 2), (1, 3), (2, 3))]
        rows = {c.name: c for c in rep.constraints}
        rhs = [rows[f"sum-rate S={_sname(s)}"].rhs for s in family]
        flags = [rows[f"sum-rate S={_sname(s)}"].redundant for s in family]
        collapse = max(rhs) - min(rhs) < 1e-12 and flags == [True, True, True, False]
        elapsed = time.time() - t0
        _report("4 thm1-structure", ok and collapse and elapsed < 30.0,
                f"(brute-force match={ok}, h=4 collapse={collapse}, {elapsed:.1f}s)")


def _sname(s):
    return "{" + ",".join(f"({a},{b})" for a, b in sorted(s)) + "}"


def _redundancy_bruteforce_agrees(rep, spec, h):
    rows = {c.name: c for c in rep.constraints}
    subsets = ref_thm1_subsets(h)
    for kind in ("sum-rate", "plus-rate"):
        rhs, varsets = {}, {}
        for s in subsets:
            comp = sorted(set(all_pairs(h)) - j_set(h, s))
            axes = [a_label(p) for p in comp]
            if not axes:
                rhs[s] = 0.0
            elif kind == "sum-rate":
                rhs[s] = info_measure(spec.joint, list(spec.network.x_labels), axes)
            else:
                rhs[s] = info_measure(spec.joint, ["X1"], axes)
            varsets[s] = frozenset(p for p in all_pairs(h) if p not in s)
        for s in subsets:
            want = any(varsets[s2] < varsets[s] and abs(rhs[s2] - rhs[s]) <= 1e-9
                       for s2 in subsets if s2 != s)
            if rows[f"{kind} S={_sname(s)}"].redundant != want:
                return False
    return True


class TestCriterion5FmeVsLp:
    def test_h2_lifted_system(self):
        t0 = time.time()
        net = dsbs_network()
        zw = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                zw[a, b, b] = net.target.weights[a, b]
        zj = pmf_from_table(["X1", "X2", "Z2"], zw)
        system = functional_lifted_system(net, zj)
        lifted = [v for v in system.variables if v[0] in "med" or v.startswith("mu")]
        projected = fme_project(system, lifted)
        rng = np.random.default_rng(501)
        agree = 0
        for _ in range(1000):
            pt = {"Rc": rng.uniform(0, 1.6), "R1": rng.uniform(0, 1.2),
                  "rho1": rng.uniform(0, 1.2), "rho2": rng.uniform(0, 1.2)}
            via_fme = projected.contains(pt, tol=1e-7)
            via_lp = _lp_feasible(system, pt, lifted)
            agree += via_fme == via_lp
        elapsed = time.time() - t0
        _report("5 fme-vs-lp", agree == 1000 and elapsed < 30.0,
                f"({agree}/1000 agreement in {elapsed:.1f}s)")


def _lp_feasible(system: LinearSystem, fixed: dict, free: list) -> bool:
    a_ub, b_ub = [], []
    for coeffs, rhs in system.rows:
        row, const = [], float(rhs)
        for v, c in zip(system.variables, coeffs):
            if v in free:
                row.append(-float(c))
            else:
                const -= float(c) * fixed[v]
        a_ub.append(row)
        b_ub.append(-const)
    res = linprog(c=np.zeros(len(free)), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(None, None)] * len(free), method="highs")
    return res.status == 0


class TestCriterion6ExactZeroTv:
    def test_exact_divisor_and_mc_agreement(self):
        t0 = time.time()
        net = independent_uniform_network(2)
        spec = aux_from_tags(net)
        rates = CodebookRates.for_network(2, lam={2: 1.0})
        tvs = []
        for n in (1, 2):
            cb = build_codebooks(spec, rates, n=n, seed=3)
            tvs.append(coordination_tv(exact_induced(cb, Mode.FUNCTIONAL), net))
        zero_ok = all(tv == 0.0 for tv in tvs)

        from coordline.evalharness import mc_coordination_tv

        dspec = aux_from_tags(dsbs_network(), a_tags={(1, 2): copy_of("X2")})
        drates = CodebookRates.for_network(2, mu_plus={(1, 2): MI + 0.25},
                                           mu_minus={(1, 2): 1.0 - MI}, lam={2: 0.25})
        cb = build_codebooks(dspec, drates, n=1, seed=7)
        exact_tv = coordination_tv(exact_induced(cb, Mode.FUNCTIONAL), dspec.network)
        rep = mc_coordination_tv(dspec, drates, Mode.FUNCTIONAL, 1, 100_000, [7], seed=1)
        agree = abs(rep.tv_per_seed[0] - exact_tv) <= 3 * rep.radius
        elapsed = time.time() - t0
        _report("6 exact-zero-tv", zero_ok and agree and elapsed < 60.0,
                f"(exact TVs {tvs}, |mc-exact|={abs(rep.tv_per_seed[0] - exact_tv):.5f}"
                f" vs 3sigma={3 * rep.radius:.5f}, {elapsed:.1f}s)")


class TestCriterion7EnsembleTrend:
    def test_trend_and_separation(self):
        t0 = time.time()
        spec = aux_from_tags(dsbs_network(), a_tags={(1, 2): copy_of("X2")})
        net = spec.network
        good = CodebookRates.for_network(2, mu_plus={(1, 2): MI + 0.25},
                                         mu_minus={(1, 2): 1.0 - MI}, lam={2: 0.25})
        bad = CodebookRates.for_network(2, mu_plus={(1, 2): MI + 0.25},
                                        mu_minus={(1, 2): 0.5 - (MI + 0.25)}, lam={2: 0.25})
        seeds = list(range(50))

        def sweep(rates, n):
            vals = []
            for s in seeds:
                cb = build_codebooks(spec, rates, n=n, seed=s)
                ex = exact_induced(cb, Mode.FUNCTIONAL)
                if ex.degenerate_paths:
                    continue  # fallback runs are excluded from acceptance statistics
                vals.append(coordination_tv(ex, net))
            return np.array(vals)

        tv1 = sweep(good, 1)
        tv4 = sweep(good, 4)
        pooled = math.hypot(tv1.std() / math.sqrt(len(tv1)), tv4.std() / math.sqrt(len(tv4)))
        trend = tv4.mean() < tv1.mean() - pooled
        bad4 = sweep(bad, 4)
        separation = bad4.mean() >= 1.5 * tv4.mean()
        elapsed = time.time() - t0
        _report("7 ensemble-trend", trend and separation and elapsed < 600.0,
                f"(mean TV n=1 {tv1.mean():.4f}, n=4 {tv4.mean():.4f}, pooled SE {pooled:.4f};"
                f" violating n=4 {bad4.mean():.4f} ratio {bad4.mean() / tv4.mean():.2f};"
                f" {elapsed:.0f}s)")


class TestCriterion8MarkovRegion:
    def test_bsc_chain_and_vee_corner(self):
        t0 = time.time()
        net = bsc_chain_network(3, 0.25)
        zj = _markov_z_joint(net)
        big = RatePoint(0.0, (2.0, 2.0), (2.0, 2.0, 2.0))
        rep = markov_region_check(big, net, zj)
        rows = {c.name: c for c in rep.constraints}
        t = net.target
        h2q = info_measure(t, ["X2"], (), ["X1"])
        mi23 = info_measure(t, ["X2"], ["X3"])
        expect = {
            "link i=1,j=1": 1.0,  # I(X1,X2; Z1) = H(X2) for Z1 = X2
            "link i=2,j=2": 1.0,
            "link i=1,j=2": h2q + MI + info_measure(t, ["X3"], (), ["X2"]),
            "link i=1,j=3": info_measure(t, ["X2", "X3"], (), ["X1"]) + MI,
            "link i=2,j=3": info_measure(t, ["X3"], (), ["X2"]) + mi23,
            "local j=1": h2q,  # I(X2; Z1 | X1) = H(X2|X1) for Z1 = X2
            "local j=2": h2q + info_measure(t, ["X3"], (), ["X2"]),
            "local j=3": info_measure(t, ["X2", "X3"], (), ["X1"]),
        }
        rhs_ok = all(abs(rows[k].rhs - v) < 1e-9 for k, v in expect.items())

        # X1 = V1, X2 = (V1, V2) as symbol 2 * v1 + v2, X3 = V2 for a DSBS(0.25) pair
        vee = np.zeros((2, 4, 2))
        for v1, v2 in np.ndindex(2, 2):
            vee[v1, 2 * v1 + v2, v2] = 0.375 if v1 == v2 else 0.125
        vnet = make_network(3, vee)
        vz = _vee_z_joint(vnet)
        h_pair = info_measure(vnet.target, ["X2"])
        corner = RatePoint(0.0, (1.0, 1.0), (h_pair, h_pair, h_pair))
        vrep = markov_region_check(corner, vnet, vz)
        elapsed = time.time() - t0
        _report("8 markov-region", rhs_ok and vrep.passed and elapsed < 5.0,
                f"(rhs match={rhs_ok}, vee corner passed={vrep.passed}, {elapsed:.1f}s)")


def _markov_z_joint(net):
    t = net.target
    w = t.weights
    letters = "abcdefgh"
    for i in range(1, net.h):
        idx = letters[:w.ndim]
        w = np.einsum(f"{idx},{letters[i]}z->{idx}z", w, np.eye(t.sizes[i]))
    labels = list(net.x_labels) + [f"Z{i}" for i in range(1, net.h)]
    return pmf_from_table(labels, w)


def _vee_z_joint(net):
    # Z1 = V1 = X1, Z2 = V2 = X3
    w = net.target.weights
    w = np.einsum("abc,az->abcz", w, np.eye(2))
    w = np.einsum("abcz,cy->abczy", w, np.eye(2))
    return pmf_from_table(["X1", "X2", "X3", "Z1", "Z2"], w)


class TestCriterion9CrIndependence:
    def test_margin_monotonicity(self):
        t0 = time.time()
        spec = aux_from_tags(dsbs_network(), a_tags={(1, 2): copy_of("X2")})
        base = []
        margin = []
        for s in range(50):
            cb0 = build_codebooks(
                spec, CodebookRates.for_network(2, mu_plus={(1, 2): MI},
                                                mu_minus={(1, 2): 1.0}), n=3, seed=s)
            cb1 = build_codebooks(
                spec, CodebookRates.for_network(2, mu_plus={(1, 2): MI + 0.5},
                                                mu_minus={(1, 2): 1.0}), n=3, seed=s)
            base.append(cr_independence(cb0))
            margin.append(cr_independence(cb1))
        elapsed = time.time() - t0
        ok = float(np.mean(margin)) < float(np.mean(base)) and elapsed < 300.0
        _report("9 cr-independence", ok,
                f"(margin mean {np.mean(margin):.4f} < base mean {np.mean(base):.4f}, {elapsed:.0f}s)")


class TestCriterion10Determinism:
    def test_reports_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_command(["exact", "--preset", "indep-uniform", "--n", "1,2",
                                "--seed", "9", "--out", str(out)])
            assert code == 0
            rep = json.loads((out / "report.json").read_text())
            rep.pop("generated_at")
            outs.append(json.dumps(rep, sort_keys=True))
        ok = outs[0] == outs[1]
        _report("10 determinism", ok, "(byte-identical reports modulo timestamp)")
