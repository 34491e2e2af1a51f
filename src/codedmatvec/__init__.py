"""Coded distributed matrix-vector multiplication over a serial channel.

Simulates and analyzes master-worker matrix-vector multiplication where
worker computation times are shifted exponentials and results return one
at a time over a shared channel: MDS/random-linear coding of the matrix,
an exact discrete-event channel schedule, closed-form latency brackets,
and a Monte Carlo harness for regime sweeps and coded-vs-uncoded speedup
curves.
"""

from .analysis import (
    LatencyBracket,
    RegimeFamily,
    classify_regime,
    expectation_bracket_coded,
    expectation_bracket_uncoded,
    expected_runtime_regime3,
    optimize_k,
    pipeline_index,
)
from .channel import (
    CommModel,
    Timeline,
    TimelineMetrics,
    TrialArrays,
    compute_metrics,
    run_coded_trial,
    run_trials,
    run_uncoded_trial,
    schedule_serial_channel,
)
from .coding import (
    AnyKCheck,
    CodedJob,
    DecodeResult,
    check_any_k,
    decode_from_workers,
    encode_random_linear,
    encode_systematic_mds,
    recovery_error,
    worker_compute,
)
from .config import ConfigError, RunConfig, parse_config
from .experiments import (
    AggregateMetrics,
    LemmaReport,
    MCStats,
    SpeedupPoint,
    SweepRow,
    default_r_rule,
    loglinear_fit,
    monotone_with_slack,
    monte_carlo,
    round_k,
    speedup_curve,
    sweep_regime,
    transmission_counts,
    verify_transmission_lemmas,
)
from .rng import RngStream
from .timing import (
    ClusterParams,
    CompTimes,
    expected_order_stat,
    inject_comp_times,
    sample_comp_times,
    variance_order_stat,
)

__version__ = "0.1.0"
