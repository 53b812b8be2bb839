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

from .concomitants import (  # noqa: F401
    AronholdPair,
    InvariantSet,
    aronhold,
    c_formulas,
    invariants,
    is_semistable,
    projective_point,
    syzygy_residuals,
)
from .form_problem import (  # noqa: F401
    FormProblemInput,
    OrbitClass,
    SolutionSet,
    classify,
    emit_configuration,
    enumerate_triples,
    filter_sign,
    solve,
    solve_cubic_radicals,
    solve_psi_system,
    solve_quartic_radicals,
)
from .poly_engine import (  # noqa: F401
    Form,
    Poly,
    transvectant,
)
from .qutrit_state import (  # noqa: F401
    LocalTransform,
    ParameterTriple,
    State,
    apply_local,
    normal_form_state,
    random_state,
    read_state,
    reduced_density,
    write_state,
)
from .reflection_group import (  # noqa: F401
    MatrixGroup,
    generate_closure,
    generators,
    group_h,
    group_k,
    is_unitary,
    orbit,
    stabilizer,
    stabilizer_type,
    verify_invariance,
)
from .slocc_normalize import IterationTrace, normalize_slocc, verify_vinberg  # noqa: F401
