"""zetalab: a numerical laboratory for Hurwitz-type series.

Evaluation of zeta(s, alpha) and L(s, f, alpha) with periodic coefficients,
simultaneous Diophantine approximation, the annulus calculus of unimodular
sums, quadratic-field ideal factorization with private-prime censuses,
twisted-series constructions, and argument-principle / Rouche zero
certificates.
"""

from .annulus import AnnulusSpec, contains, radii, realize, realize_phases, \
    sample_oracle
from .errors import ZetalabError
from .kronecker import KroneckerProblem, KroneckerSolution, SearchBudget, \
    solve, verify
from .quadfield import CasselsBlock, IdealFactorization, PrimeIdeal, \
    factor_shift, ideal_denominator, private_primes
from .series import Alpha, PeriodicFunction, hurwitz_zeta, lfunction, \
    series_head, series_tail
from .twist import BlockSchedule, ScheduleReport, TwistedSeries, \
    choose_case_sigma, find_sigma0, greedy_step, run_schedule, \
    truncation_index
from .zerofinder import Circle, PipelineBudget, PipelineResult, Rectangle, \
    RoucheCertificate, ZeroRecord, argument_count, find_zero_pipeline, \
    newton_refine, rouche_certificate, rouche_check

__version__ = "0.1.0"
