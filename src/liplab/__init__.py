"""liplab: a numerical laboratory for Lipschitz functions of perturbed operators.

Computes f(A) - f(B) and double operator integrals in finite dimensions,
measures singular-value decay in the classical operator ideals, and builds
machine-verifiable weak-decay certificates for weighted divided-difference
kernel operators on discrete measures.
"""

from .certificate import (IntervalPartition, WeakDecayCertificate, build_certificate,
                          build_certificates, certify, flat_bound, heavy_atoms, mask,
                          normalize, partition, split_blocks, taylor_defects,
                          verify_certificate)
from .doi import check_birman_solomyak, doi_apply, f_delta, rank_one_perturb
from .errors import (CertificateUnsoundError, ConvergenceError, EvaluationError,
                     PartitionInfeasibleError, SoundnessError, ValidationError)
from .functions import (LipschitzFunction, absolute_value, apply_function, clamp_function,
                        constant_function, default_suite, divided_difference,
                        function_from_spec, identity_function, loewner_matrix,
                        piecewise_linear, shifted_absolute, smooth_ramp)
from .ideals import (s_Omega_norm, s_omega_norm, schatten_norm, singular_spectrum,
                     singular_value_at, weak_s1_quasinorm)
from .linalg import SpectralDecomposition, eigh_symmetric, read_matrix, svd, write_matrix
from .measures import (DiscreteMeasure, WeightedKernelOperator, discrete_measure,
                       kernel_operator, materialize, read_kernel_operator,
                       write_kernel_operator)
from .rng import make_rng, random_kernel_operator, random_orthogonal, random_symmetric
from .sweeps import ExperimentReport, SweepConfig, emit_report, load_config, run_sweep

__version__ = "0.1.0"
