"""Invariants, normal forms and the form problem for three-qutrit states.

The package computes the fundamental polynomial invariants of trilinear
forms on C^3 x C^3 x C^3 as numpy sums over the amplitude array, with
transvectants of dense coefficient tensors as the exact calibration, the
syzygy check and the test oracle.  It normalizes
states by Newton steps of local filtering, recovers all equivalent normal-form
parameters by a radical chain, and realizes the order-648 normal-form
symmetry group exactly, its entries in (1/3)Z[eps] stored as integer pairs.
"""

__version__ = "0.1.0"
