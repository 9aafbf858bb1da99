"""NTT kernels: golden models, algorithm variants, ring arithmetic."""

from .bluestein import bluestein_intt, bluestein_ntt, naive_dft
from .dataflow import Butterfly, all_butterflies, independent_blocks, stage_butterflies
from .incomplete import (
    IncompleteNttParams,
    incomplete_basemul,
    incomplete_intt,
    incomplete_ntt,
    incomplete_params,
)
from .merged import (
    block_zeta,
    block_zeta_exponent,
    merged_negacyclic_intt,
    merged_negacyclic_ntt,
    merged_pointwise_multiply,
)
from .negacyclic import (
    NegacyclicParams,
    naive_negacyclic_convolution,
    negacyclic_convolution,
    negacyclic_intt,
    negacyclic_ntt,
    psi_power_table,
)
from .polynomial import Polynomial
from .reference import (
    cyclic_convolution,
    direct_ntt,
    intt,
    naive_cyclic_convolution,
    ntt,
    ntt_dif_natural_input,
    ntt_dit_bitrev_input,
    recursive_ntt,
)
from .twiddle import (
    TwiddleGenerator,
    TwiddleTable,
    lane_twiddles,
    stage_step,
    twiddle_exponent,
)
from .variants import four_step_ntt, pease_ntt, shuffle_stage_count, stockham_ntt

__all__ = [
    "bluestein_intt",
    "bluestein_ntt",
    "naive_dft",
    "IncompleteNttParams",
    "incomplete_basemul",
    "incomplete_intt",
    "incomplete_ntt",
    "incomplete_params",
    "block_zeta",
    "block_zeta_exponent",
    "merged_negacyclic_intt",
    "merged_negacyclic_ntt",
    "merged_pointwise_multiply",
    "Butterfly",
    "all_butterflies",
    "independent_blocks",
    "stage_butterflies",
    "NegacyclicParams",
    "naive_negacyclic_convolution",
    "negacyclic_convolution",
    "negacyclic_intt",
    "negacyclic_ntt",
    "psi_power_table",
    "Polynomial",
    "cyclic_convolution",
    "direct_ntt",
    "intt",
    "naive_cyclic_convolution",
    "ntt",
    "ntt_dif_natural_input",
    "ntt_dit_bitrev_input",
    "recursive_ntt",
    "TwiddleGenerator",
    "TwiddleTable",
    "lane_twiddles",
    "stage_step",
    "twiddle_exponent",
    "four_step_ntt",
    "pease_ntt",
    "shuffle_stage_count",
    "stockham_ntt",
]
