import numpy as np
import pytest
from scipy.optimize import linprog

from coordline.errors import ResourceCapError, UsageError
from coordline import fme
from coordline.fme import LinearSystem, fme_project
from coordline.linestruct import make_network
from coordline.probability import pmf_from_table
from coordline.rates import RatePoint, functional_lifted_system, functional_region_check


def lp_feasible(system: LinearSystem, fixed: dict, free: list[str]) -> bool:
    """Feasibility oracle: does some assignment of `free` satisfy the system
    with the remaining variables pinned to `fixed`?"""
    a_ub, b_ub = [], []
    for coeffs, rhs in system.rows:
        row = []
        const = float(rhs)
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


class TestFmeBasics:
    def test_simple_elimination(self):
        sys = LinearSystem.build(["x", "y"], [({"x": 1, "y": 1}, 2), ({"y": -1}, -1)])
        out = fme_project(sys, ["y"])
        assert out.variables == ("x",)
        assert out.contains({"x": 1.0})
        assert not out.contains({"x": 0.99 - 1e-6})

    def test_identity_when_nothing_eliminated(self):
        sys = LinearSystem.build(["x", "y"], [({"x": 1}, 0.5), ({"y": 1}, 0.25)])
        out = fme_project(sys, [])
        assert out.variables == ("x", "y")
        assert out.contains({"x": 0.5, "y": 0.25})
        assert not out.contains({"x": 0.4, "y": 0.25})

    def test_unknown_variable(self):
        sys = LinearSystem.build(["x"], [({"x": 1}, 0)])
        with pytest.raises(UsageError):
            fme_project(sys, ["z"])

    def test_infeasible_marker_kept(self):
        sys = LinearSystem.build(["x", "y"], [({"y": 1}, 1), ({"y": -1}, 0)])
        out = fme_project(sys, ["y"])
        assert not out.contains({"x": 0.0})

    def test_row_cap(self, monkeypatch):
        rng = np.random.default_rng(0)
        rows = [({"x": float(rng.uniform(-1, 1)), "y": 1.0}, 0.0) for _ in range(40)]
        rows += [({"x": float(rng.uniform(-1, 1)), "y": -1.0}, 0.0) for _ in range(40)]
        sys = LinearSystem.build(["x", "y"], rows)
        monkeypatch.setattr(fme, "ROW_CAP", 10)
        with pytest.raises(ResourceCapError, match="1600 rows, above the row cap of 10"):
            fme_project(sys, ["y"])

    def test_domination_pruning(self):
        sys = LinearSystem.build(
            ["x", "y", "z"],
            [({"x": 1}, 1), ({"x": 2}, 1), ({"y": 1}, 0), ({"z": 1}, 0)])
        out = fme_project(sys, ["z"])
        # x >= 1 dominates x >= 0.5 after the elimination pass
        assert len(out.rows) == 2


class TestFmeAgainstLp:
    def test_random_systems_match_lp(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            nv = 4
            variables = [f"v{i}" for i in range(nv)]
            rows = []
            for _ in range(8):
                coeffs = {v: float(np.round(rng.uniform(-2, 2), 3)) for v in variables}
                rows.append((coeffs, float(np.round(rng.uniform(-1, 1), 3))))
            sys = LinearSystem.build(variables, rows)
            drop = ["v2", "v3"]
            proj = fme_project(sys, drop)
            for _ in range(25):
                pt = {v: float(rng.uniform(-2, 2)) for v in ("v0", "v1")}
                assert proj.contains(pt, tol=1e-7) == lp_feasible(sys, pt, drop), (trial, pt)


class TestFunctionalLiftedSystem:
    def test_h2_projection_matches_region_check(self):
        p = 0.25
        w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
        net = make_network(2, w)
        zw = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                zw[a, b, b] = net.target.weights[a, b]
        zj = pmf_from_table(["X1", "X2", "Z2"], zw)
        sys = functional_lifted_system(net, zj)
        lifted = [v for v in sys.variables if v[0] in "med" or v.startswith("mu")]
        proj = fme_project(sys, lifted)
        assert set(proj.variables) == {"Rc", "R1", "rho1", "rho2"}
        rng = np.random.default_rng(9)
        for _ in range(300):
            pt = {"Rc": rng.uniform(0, 1.6), "R1": rng.uniform(0, 1.2),
                  "rho1": rng.uniform(0, 1.2), "rho2": rng.uniform(0, 1.2)}
            via_fme = proj.contains(pt, tol=1e-7)
            rp = RatePoint(pt["Rc"], (pt["R1"],), (pt["rho1"], pt["rho2"]))
            via_region = functional_region_check(rp, net, zj).passed
            via_lp = lp_feasible(sys, pt, lifted)
            assert via_fme == via_lp, pt
            assert via_fme == via_region, pt
