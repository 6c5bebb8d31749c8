"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report, or via the CLI with ``tangentray verify``.
"""

import pytest

from tangentray import verify as vf


def _report(n, check):
    status = "PASS" if check.passed else "FAIL"
    print(f"\n[criterion {n:>2}] {check.name}: {status} "
          f"measured={check.measured:.3e} {check.compare} {check.tolerance} "
          f"({check.runtime:.1f}s) {check.detail}")
    assert check.passed, f"criterion {n} failed: {check.detail}"


def test_criterion_01_airy_identities():
    _report(1, vf.check_airy_identities())


def test_criterion_02_caret_representation_agreement():
    _report(2, vf.check_caret_representations())


def test_criterion_03_fock_three_way_oracle():
    _report(3, vf.check_fock_three_way())


def test_criterion_04_pole_residue_identity():
    _report(4, vf.check_pole_residue())


def test_criterion_05_boundary_conditions():
    _report(5, vf.check_boundary_conditions())


def test_criterion_06_pwe_residual_order():
    _report(6, vf.check_pwe_residual())


def test_criterion_07_asymptotic_sectors():
    _report(7, vf.check_asymptotic_sectors())


def test_criterion_08_illuminated_matching():
    _report(8, vf.check_illuminated_matching())


def test_criterion_09_penumbra():
    _report(9, vf.check_penumbra())


def test_criterion_10_creeping_matching():
    _report(10, vf.check_creeping_matching())


def test_criterion_11_jro_endpoint_identity():
    _report(11, vf.check_jro_identity())
