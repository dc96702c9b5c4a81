"""Exact-arithmetic verification of Fourier inversion over finite abelian
group algebras, Gauss-sum identities, invertibility of pairing-evaluation
transforms, and diagonalizability of group algebras over finite rings."""

from .exactring import (CycloElem, CycloRing, IntPolynomial, ModRing,
                        NotAUnitError, cyclotomic_polynomial, euler_phi, galois_conjugate,
                        get_ring, inverse, is_unit, lift_conductor, norm, units_mod)
from .finab import (DualElem, FinAbGroup, GroupElem, GroupHom, PadicCircle,
                    circle_points, dual_elements, dual_hom, element_index,
                    elements, enumerate_groups, enumerate_homs, hom_count,
                    pairing, pairing_numerators)
from .matrix import RingMatrix, determinant, determinant_expansion
from .chargauss import (Character, UnitGroupStructure, check_gauss_identities,
                        enumerate_characters, gauss_sum, is_primitive, standard_ring,
                        unit_group_generators)
from .groupalgebra import (AlgElem, FunElem, basis_element, convolution_matrix, convolve,
                           evaluate_at_characters, fourier_inverse, fourier_inversion_report,
                           fourier_transform, is_unit_group_algebra, standard_fourier_ring,
                           transform_matrix)
from .isoverify import (CircleFunction, CriterionReport, criterion_vs_determinant,
                        invertibility_criterion, matrix_is_invertible, natural_iso_sweep,
                        naturality_check, naturality_sweep, random_table_function)
from .diagonalize import (DiagVerdict, SplitVerificationError, VandermondeSplit,
                          complete_idempotent_set, count_idempotents_group_algebra,
                          decide_diag_cyclic, idempotents_mod, vandermonde_iso)
from .report import BudgetExceeded, CheckEntry, VerifyReport

__version__ = "0.1.0"
