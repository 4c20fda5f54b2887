"""Exact arithmetic for two-faced families of noncommutative random
variables: joint moments under bi-free independence, cumulant transforms,
additive and multiplicative convolution, central-limit behavior, and the
Fock-space and group-algebra realizations."""

from .clt import CltReport, clt_report, scaled_sum_dist, scaled_sum_dist_direct
from .convolve import boxplus2, boxtimes2
from .cumulant import cumulants_from_moments, dilate, moments_from_cumulants
from .dist import (CumulantTable, Distribution, group_families, ones_distribution,
                   point_distribution)
from .engine import (BifreenessReport, ReducedVector, TensorState, apply_left,
                     apply_right, bifree_product, check_bifree, joint_moment,
                     reduced_vector, vacuum_coefficient, vacuum_state)
from .errors import (BifreeError, DomainError, IncompleteTableError, InvolutionError,
                     NormalizationError, ParseError, SignatureError, TruncationError)
from .io import (format_cumulant_table, format_distribution, parse_covariance,
                 parse_cumulant_table, parse_distribution, parse_vector_spec)
from .models import (CovarianceSpec, FockState, PsdResult, VectorSpec,
                     covariance_from_vectors, fock_apply, fock_distribution,
                     fock_moment, gaussian_dist, gram_psd_check, group_example_dist)
from .scalars import ONE, ZERO, GaussianRational, qi
from .words import (LEFT, RIGHT, FaceSignature, FamilyFaces, Letter, format_word,
                    two_faced, union_signatures, word_star)

__version__ = "0.1.0"
