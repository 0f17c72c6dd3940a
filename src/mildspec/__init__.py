"""Time-frequency analysis on finite abelian groups.

Finite models Z_N1 x ... x Z_Nd carry the whole duality apparatus exactly:
sampling against periodization, Poisson summation, Dirac-comb transforms,
STFT concentration norms, Gabor frames with canonical dual windows, and
computable surrogates for weak-star convergence of distributions.
"""

import os as _os

# MILDSPEC_THREADS caps BLAS/FFT worker pools; must land before numpy loads
_threads = _os.environ.get("MILDSPEC_THREADS")
if _threads and _threads.isdigit():
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from types import ModuleType as _ModuleType

from .approx import (
    BUPU,
    BUPU_SHAPES,
    QuasiResult,
    SamplingBound,
    make_bupu,
    quasi_interpolate,
    sampling_bound,
    semidiscrete_extension,
    tensor_extension,
)
from .errors import (
    DomainError,
    GroupMismatchError,
    NotAFrame,
    NotPeriodic,
    SchemaError,
    SupportViolation,
)
from .fourier import (
    COUNTING,
    UNITARY,
    DualityResult,
    FourierConvention,
    PoissonResult,
    adjoint_restriction,
    comb_ft,
    dft,
    dft_quotient,
    dft_subgroup,
    duality_sampling_periodization,
    idft,
    mild_ft,
    pair,
    poisson_check,
    restriction,
    weil_map,
)
from .gabor import (
    FRAME_TOL,
    CoefficientArray,
    GaborSystem,
    TFLattice,
    gabor_coefficients,
    gabor_synthesis,
    s0_norm,
    s0prime_norm,
    stft,
)
from .groups import (
    GroupElement,
    GroupSpec,
    QuotientSpec,
    Subgroup,
    all_subgroups,
    annihilator,
    character,
    character_vector,
    full_subgroup,
    grid_subgroup,
    quotient,
    subgroup_generated,
    trivial_subgroup,
)
from .mild import (
    ConvergenceReport,
    DistributionSequence,
    PeriodicReport,
    convergence_report,
    default_probes,
    mild_deviation_coeff,
    mild_deviation_pairing,
    mild_deviation_stft,
    periodize_analysis,
    refining_comb_sequence,
    support,
)
from .signals import (
    QuotientSignal,
    Signal,
    SubgroupSignal,
    dirac,
    dirac_comb,
    finite_gaussian,
    modulate,
    pure_frequency,
    random_signal,
    signal_to_comb,
    tf_shift,
    translate,
)

__version__ = "0.1.0"

# the submodules that the imports above bind are not part of the star import
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
