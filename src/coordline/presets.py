"""Canonical experiment configurations used by the CLI and the test suite."""
from __future__ import annotations

import numpy as np

from .linestruct import NetworkSpec, make_network

MI_DSBS_QUARTER = 0.18872187554086717  # I(X1;X2) for DSBS(0.25)


def dsbs_network(p: float = 0.25) -> NetworkSpec:
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return make_network(2, w)


def independent_uniform_network(h: int = 2) -> NetworkSpec:
    return make_network(h, np.full((2,) * h, 1.0 / 2 ** h))


def copy_chain_network(h: int = 3) -> NetworkSpec:
    w = np.zeros((2,) * h)
    w[(0,) * h] = 0.5
    w[(1,) * h] = 0.5
    return make_network(h, w)


def bsc_chain_network(h: int = 3, p: float = 0.25) -> NetworkSpec:
    flip = np.array([[1 - p, p], [p, 1 - p]])
    w = np.full(2, 0.5)
    for _ in range(h - 1):
        w = np.einsum("...i,ij->...ij", w, flip)
    return make_network(h, w)


def _weights(net: NetworkSpec):
    return net.target.weights.tolist()


def preset_config(name: str) -> dict:
    """Full experiment config for a named preset."""
    if name == "dsbs":
        net = dsbs_network()
        return {
            "schema_version": 1,
            "network": {"h": 2, "target": _weights(net)},
            "aux": {"A1_2": {"kind": "copy", "source": "X2"},
                    "B1_2": {"kind": "constant"},
                    "C2": {"kind": "copy", "source": "X2"}},
            "rates": {"mu_plus": {"1,2": MI_DSBS_QUARTER + 0.25},
                      "mu_minus": {"1,2": 1.0 - MI_DSBS_QUARTER},
                      "kappa_plus": {}, "kappa_minus": {},
                      "lambda": {"2": 0.25}},
            "mode": "functional",
            "n": [1, 2, 3, 4],
            "trials": 2000,
            "seed": 7,
            "codebook_seeds": 50,
            "margin": 1e-6,
        }
    if name == "dsbs-control":
        cfg = preset_config("dsbs")
        # violate the sum-rate constraint by 0.5 bits
        cfg["rates"]["mu_minus"] = {"1,2": max(0.5 - (MI_DSBS_QUARTER + 0.25), 0.0)}
        return cfg
    if name == "indep-uniform":
        net = independent_uniform_network(2)
        return {
            "schema_version": 1,
            "network": {"h": 2, "target": _weights(net)},
            "aux": {"A1_2": {"kind": "constant"},
                    "B1_2": {"kind": "constant"},
                    "C2": {"kind": "copy", "source": "X2"}},
            "rates": {"mu_plus": {}, "mu_minus": {}, "kappa_plus": {},
                      "kappa_minus": {}, "lambda": {"2": 1.0}},
            "mode": "functional",
            "n": [1, 2],
            "trials": 2000,
            "seed": 3,
            "codebook_seeds": 5,
            "margin": 1e-6,
        }
    if name == "copy3":
        net = copy_chain_network(3)
        return {
            "schema_version": 1,
            "network": {"h": 3, "target": _weights(net)},
            "aux": {"A1_2": {"kind": "copy", "source": "X2"},
                    "A1_3": {"kind": "copy", "source": "X3"},
                    "A2_3": {"kind": "constant"},
                    "B1_2": {"kind": "constant"}, "B2_3": {"kind": "constant"},
                    "C2": {"kind": "copy", "source": "X2"},
                    "C3": {"kind": "copy", "source": "X3"}},
            "rates": {"mu_plus": {"1,2": 0.1, "1,3": 1.1}, "mu_minus": {"1,2": 1.0, "1,3": 0.1},
                      "kappa_plus": {}, "kappa_minus": {}, "lambda": {"2": 0.0, "3": 0.0}},
            "mode": "functional",
            "n": [1, 2],
            "trials": 1000,
            "seed": 5,
            "codebook_seeds": 10,
            "margin": 1e-6,
        }
    if name == "markov3":
        net = bsc_chain_network(3, 0.25)
        return {
            "schema_version": 1,
            "network": {"h": 3, "target": _weights(net)},
            "aux": {"A1_2": {"kind": "constant"}, "A1_3": {"kind": "constant"},
                    "A2_3": {"kind": "constant"},
                    "B1_2": {"kind": "copy", "source": "X2"},
                    "B2_3": {"kind": "copy", "source": "X3"},
                    "C2": {"kind": "copy", "source": "X2"},
                    "C3": {"kind": "copy", "source": "X3"}},
            "rates": {"mu_plus": {}, "mu_minus": {},
                      "kappa_plus": {"1": 1.1, "2": 1.1}, "kappa_minus": {},
                      "lambda": {"2": 0.4, "3": 0.4}},
            "mode": "unrestricted",
            "n": [1, 2],
            "trials": 1000,
            "seed": 11,
            "codebook_seeds": 10,
            "margin": 1e-6,
        }
    raise KeyError(f"unknown preset {name!r}; have dsbs, dsbs-control, indep-uniform, copy3, markov3")
