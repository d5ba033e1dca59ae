"""spinplanar: the spin planar algebra on N spins, biunitary elements built
from quantum-information objects (complex Hadamard matrices, quantum Latin
squares, biunitary matrices, unitary error bases), and the level-by-level
construction of the subfactor planar algebras they generate.

Importing the package imports no submodule: each public name is loaded on
first use (PEP 562) from the module that `_EXPORTS` lists it under, and
`__all__` and `dir()` read the same table.
"""

import importlib

_EXPORTS = {module: names.split() for module, names in {
    "core": """MINUS PLUS SpinColor SpinContext SpinElement SpinIndex add algebra_blocks
        basis_indices basis_order coeff_distance color_dim devectorize from_coeffs
        inner_product make_basis mult norm normalized_trace op_norm scale spin_state star unit
        unitarity_residuals vectorize zero""",
    "ops": """cond_left cond_left_pow cond_right cond_right_pow incl_left incl_left_pow
        incl_right incl_right_pow partial_swap picture_trace_left picture_trace_right rotate
        rotate_pow""",
    "qit": """BiunitaryCertificate BiunitaryMatrix HadamardMatrix LatinSquare QitParseError
        QitValidationError QuantumLatinSquare UnitaryErrorBasis block_transpose
        element_from_json element_to_json fourier_hadamard is_biunitary is_ueb_biunitary
        latin_to_qls load_qit qit_from_json qit_to_json ueb_clock_shift""",
    "groups": """GroupValidationError builtin_group cyclic_table group_element
        orbit_representatives orbit_sum predicted_group_dims s3_table validate_group x_element""",
    "subfactor": """CablingData ClosureReport GroupOracle KernelFactorizationError
        MembershipOperator QLevelResult Staircase build_staircase group_oracle
        membership_operator q_level q_tower q_zero_minus sigma verify_planar_closure""",
    "selftest": "CheckResult random_element run_relation_suite",
}.items()}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _EXPORTS or name in ("cli", "numerics") else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    return value if module == name else globals().setdefault(name, getattr(value, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
