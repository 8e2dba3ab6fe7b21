"""factorpack: pack edge-disjoint regular factors into degree-sequence realizations."""

from .coloring import (
    BLACK,
    RESIDUAL,
    WHITE,
    Color,
    ColoredRealization,
    DegreeSequence,
    FactorCertificate,
    SwitchTrace,
    certificate_from_realization,
    make_colored_realization,
    one_factor,
    replay_trace,
    two_factor,
)
from .factorize import (
    convert_two_factor,
    four_ones,
    four_ones_realization,
    half_k,
    half_k_realization,
    merge_odd_cycle_pair,
    monotone_triple,
    peel_one_factor,
    petersen_two_factorize,
)
from .graphs import SimpleGraph, edge
from .matching import (
    Matching,
    OddCycleCertificate,
    lemma_odd_certificate,
    maximum_matching,
    toggle_alternating_path,
)
from .oracle import (
    VerifyReport,
    bf_conjecture_search,
    bf_disjoint_one_factors,
    bf_max_matching,
    enumerate_graphic,
    verify_certificate,
)
from .realize import (
    erdos_gallai_graphic,
    havel_hakimi_realize,
    kundu_realize,
    switch_randomize,
)
from .switching import MultiSwitchReport, multi_switch, parallel_two_switch

__all__ = [
    "BLACK", "RESIDUAL", "WHITE", "Color", "ColoredRealization", "DegreeSequence",
    "FactorCertificate", "SwitchTrace", "certificate_from_realization",
    "make_colored_realization", "one_factor", "replay_trace", "two_factor",
    "convert_two_factor", "four_ones", "four_ones_realization", "half_k",
    "half_k_realization", "merge_odd_cycle_pair", "monotone_triple", "peel_one_factor",
    "petersen_two_factorize", "SimpleGraph", "edge", "Matching", "OddCycleCertificate",
    "lemma_odd_certificate", "maximum_matching", "toggle_alternating_path",
    "VerifyReport", "bf_conjecture_search", "bf_disjoint_one_factors",
    "bf_max_matching", "enumerate_graphic", "verify_certificate",
    "erdos_gallai_graphic", "havel_hakimi_realize", "kundu_realize", "switch_randomize",
    "MultiSwitchReport", "multi_switch", "parallel_two_switch",
]
__version__ = "0.1.0"
