"""Output checks and digests for the reports a CLI call writes.

Each check returns a list of problems; an empty list means the report is
consistent.  A call whose report has a problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os

IDENTITY_TOL = 1e-12
BETA_MIN, BETA_MAX = 0.01, 3.0
OUTPUT_FILES = ("report.json", "curve_data.csv")


def digests(directory: str, names=OUTPUT_FILES) -> dict:
    """sha256 of each of the named files present in ``directory``."""
    found = {}
    for name in names:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def output_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in OUTPUT_FILES
        if os.path.exists(os.path.join(out_dir, name))
    )


def _check_decomposition(blocks: dict) -> list:
    problems = []
    for group, block in blocks.items():
        if block.get("mode") != "known":
            continue
        total = block["noise"] + block["bias"] + block["variance"]
        if not abs(total - block["cost"]) <= IDENTITY_TOL:
            problems.append(
                f"decomposition group {group}: noise + bias + variance = "
                f"{total!r} but cost = {block['cost']!r}"
            )
    return problems


def _check_noise_bounds(blocks: dict) -> list:
    return [
        f"noise bound {name}: e_low {b['e_low']!r} > e_up {b['e_up']!r}"
        for name, b in blocks.items()
        if b.get("e_low") is not None and not b["e_low"] <= b["e_up"]
    ]


def _check_p_value(name: str, result: dict) -> list:
    p = result.get("p_value")
    if p is None or not 0.0 <= p <= 1.0:
        return [f"{name}: p-value {p!r} outside [0, 1]"]
    return []


def _check_power_law(fits: dict) -> list:
    # The fitter constrains alpha >= 0, not alpha > 0 as the curves module
    # docstring says: a learning curve that does not fall over the grid is
    # fitted as the flat curve alpha = 0, which is the least-squares optimum
    # and is pinned by tests/test_curves.py::test_fit_nonnegative_constraints.
    problems = []
    for name, fit in fits.items():
        if not (fit["alpha"] >= 0.0 and BETA_MIN <= fit["beta"] <= BETA_MAX
                and fit["delta"] >= 0.0):
            problems.append(
                f"power-law fit {name}: alpha={fit['alpha']!r} "
                f"beta={fit['beta']!r} delta={fit['delta']!r} outside "
                f"alpha >= 0, beta in [{BETA_MIN}, {BETA_MAX}], delta >= 0"
            )
    return problems


def check_report(report: dict) -> list:
    """Invariants of one report.json document."""
    results = report.get("results", {})
    problems = []
    if "decomposition" in results:
        problems += _check_decomposition(results["decomposition"])
    if "noise_bounds" in results:
        problems += _check_noise_bounds(results["noise_bounds"])
    if "gamma_z_test" in results:
        problems += _check_p_value("gamma_z_test", results["gamma_z_test"])
    if "anova_f" in results:
        problems += _check_p_value("anova_f", results["anova_f"])
    for pair, result in results.get("pairwise_welch_holm", {}).items():
        problems += _check_p_value(f"pairwise_welch_holm {pair}", result)
    if "bootstrap_gamma_ci" in results:
        ci = results["bootstrap_gamma_ci"]
        if not ci["low"] <= ci["high"]:
            problems.append(
                f"bootstrap CI low {ci['low']!r} > high {ci['high']!r}"
            )
    if "power_law_fits" in results:
        problems += _check_power_law(results["power_law_fits"])
    return problems


def check_output(out_dir: str) -> list:
    """Read the report a call wrote and check it."""
    path = os.path.join(out_dir, "report.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    return check_report(report)
