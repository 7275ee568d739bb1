"""Strong seeded randomness extractors for privacy amplification.

Reference implementations of Toeplitz hashing, modified Toeplitz
hashing and Trevisan's construction, written for correctness and
auditability; a conformance validator for third-party implementations;
and CAVP-style request/response test vector tooling.
"""

from . import exceptions
from .bits import BitString, gf2_matvec, hex_decode, hex_encode
from .extractor import SeededExtractor
from .fields import GF, GaloisField
from .testvectors import (
    TestVectorFile,
    VectorConfig,
    generate_test_vectors,
    parse_vector_file,
    verify_response_file,
)
from .toeplitz import ModifiedToeplitzExtractor, ToeplitzExtractor, calculate_length
from .trevisan import (
    FiniteFieldPolynomialDesign,
    PolynomialOneBitExtractor,
    TrevisanExtractor,
    TrevisanParams,
    WeakDesign,
    calculate_length_trevisan,
    generate_design,
    verify_design,
)
from .validator import (
    FailureDiagnosis,
    ImplementationAdapter,
    ValidationReport,
    Validator,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "FailureDiagnosis",
    "FiniteFieldPolynomialDesign",
    "GF",
    "GaloisField",
    "ImplementationAdapter",
    "ModifiedToeplitzExtractor",
    "PolynomialOneBitExtractor",
    "SeededExtractor",
    "TestVectorFile",
    "ToeplitzExtractor",
    "TrevisanExtractor",
    "TrevisanParams",
    "ValidationReport",
    "Validator",
    "VectorConfig",
    "WeakDesign",
    "calculate_length",
    "calculate_length_trevisan",
    "exceptions",
    "generate_design",
    "generate_test_vectors",
    "gf2_matvec",
    "hex_decode",
    "hex_encode",
    "parse_vector_file",
    "verify_design",
    "verify_response_file",
]
