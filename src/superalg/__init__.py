"""Exact arithmetic for graded Lie and Leibniz algebra presentations.

The package builds the model nilpotent families and their solvable
extensions, computes series, characteristic sequences and annihilators,
solves for superderivation spaces, and reads and writes structure
constants as JSON.
"""

from .linalg import (Matrix, NotNilpotent, invert, nilpotent_jordan_blocks,
                     nullspace, rank, row_space_basis, span_contains)
from .core import (EVEN, LEIBNIZ, LIE, ODD, Element, SuperAlgebra, Violation,
                   ValidationReport, bracket, change_of_basis, equal_laws,
                   multiplication_matrix, validate)
from .invariants import (CharacteristicSequence, DERIVED, DESCENDING_CENTRAL,
                         GRADED_EVEN, GRADED_ODD, Subspace,
                         characteristic_sequence, classify, even_part,
                         generator_count, odd_part, product_space,
                         right_annihilator, series, span_of_labels,
                         whole_space)
from .families import (filiform_leibniz, member, member_dim, model_filiform_lie,
                       model_nilpotent_leibniz, model_nilpotent_lie,
                       z_basis_filiform_lie, z_basis_nilpotent_lie)
from .extension import ExtensionSpec, IdentityViolation, nilradical_verdict, semidirect_extension
from .derivations import (SuperDerivation, derivation_space, inner_space,
                          innerness_report)
from .fileformat import (ParseError, ValidationError, dump_algebra,
                         emit_algebra, load_algebra, parse_algebra)

__version__ = "0.1.0"
