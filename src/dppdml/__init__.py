"""Differentially pairwise-private distance metric learning."""

from .dataio import (
    SampleSet,
    load_csv,
    normalize,
    sample_pairs,
    save_samples_csv,
    synth_two_gaussians,
    toy_pairs,
)
from .dml import (
    Cell,
    MetricModel,
    StackTrace,
    TrainConfig,
    TrainTrace,
    clip_gradient,
    contrastive_loss,
    gradient_row,
    sensitivity_basic,
    sensitivity_reduced,
    step_size,
    train,
)
from .evaluation import ExperimentReport, knn_accuracy, project, run_experiment
from .kappa import (
    KappaReport,
    compute_kappa,
    kappa_exact,
    kappa_intransitive,
    kappa_node_dp,
    kappa_upper,
    max_edge_disjoint_paths,
    pair_terms,
)
from .mechanisms import (
    duchi_randomize,
    gaussian_sigma,
    input_perturb,
    laplace_sample,
    staircase_optimal_gamma,
    staircase_sample,
)
from .pairgraph import (
    PairGraph,
    PairSet,
    PairwiseDatum,
    build_graph,
    read_pairs_file,
    write_pairs_file,
)

__version__ = "0.1.0"
