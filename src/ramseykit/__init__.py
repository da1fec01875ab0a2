"""Tight-cycle constructions, the ordered building game, and the
counting machinery backing them.

The package splits into: seeded random lifts whose tight-cycle lengths
are forced into one residue class (`construction`), exact cycle and
independence scans over small hypergraphs (`hypergraph`, pure Python
over bitmask vertex sets), an exhaustively verifiable vertex-insertion game
(`game`), per-edge-injective homomorphism search (`homomorphism`), and
iterated ideal posets with width certificates (`poset`).  Everything
randomized consumes one explicit 64-bit seed.
"""

from __future__ import annotations

from .construction import (
    AlphaRow,
    SpectrumReport,
    TriplePacking,
    alpha_experiment,
    alpha_rows_to_csv,
    build_h3,
    build_hk,
    greedy_steiner_packing,
    mod_spectrum_report,
    sample_graph,
    union_bound_threshold,
)
from .game import (
    GameAborted,
    GameStats,
    PainterAborted,
    SafetyCapReached,
    VerificationError,
    VerificationReport,
    all_blue,
    all_red,
    exhaustive_verify,
    greedy_saver,
    random_painter,
    resource_caps,
    run_game,
    scripted_painter,
    transcript_to_jsonl,
    upper_bound_estimate,
)
from .homomorphism import (
    blowup,
    clone_vertex,
    embeds_in_blowup,
    exists_homomorphism,
    validate_homomorphism,
)
from .hypergraph import (
    Hypergraph,
    complete,
    contains_tight_cycle,
    cycle_spectrum,
    find_tight_cycle,
    independence_number_exact,
    load,
    save,
    tight_cycle,
)
from .poset import (
    IdealCapExceeded,
    Poset,
    SymbolicTower,
    antichain_witness,
    build_J,
    ideals,
    j4_log2_lower_bound,
    max_antichain,
    tower,
    two_chains,
)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"

__all__ = [
    "AlphaRow",
    "GameAborted",
    "GameStats",
    "Hypergraph",
    "IdealCapExceeded",
    "PainterAborted",
    "Poset",
    "SafetyCapReached",
    "SpectrumReport",
    "SplitMix64",
    "SymbolicTower",
    "TriplePacking",
    "VerificationError",
    "VerificationReport",
    "all_blue",
    "all_red",
    "alpha_experiment",
    "alpha_rows_to_csv",
    "antichain_witness",
    "blowup",
    "build_J",
    "build_h3",
    "build_hk",
    "clone_vertex",
    "complete",
    "contains_tight_cycle",
    "cycle_spectrum",
    "derive_seed",
    "embeds_in_blowup",
    "exhaustive_verify",
    "exists_homomorphism",
    "find_tight_cycle",
    "greedy_saver",
    "greedy_steiner_packing",
    "ideals",
    "independence_number_exact",
    "j4_log2_lower_bound",
    "load",
    "max_antichain",
    "mod_spectrum_report",
    "random_painter",
    "resource_caps",
    "run_game",
    "sample_graph",
    "save",
    "scripted_painter",
    "tight_cycle",
    "tower",
    "transcript_to_jsonl",
    "two_chains",
    "union_bound_threshold",
    "upper_bound_estimate",
    "validate_homomorphism",
]
