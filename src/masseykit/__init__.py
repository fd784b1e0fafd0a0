"""Exact cohomology and higher Massey products for graded Lie algebras,
Stanley-Reisner rings and moment-angle complexes."""

from .fields import GF, QQ, Field, Fp
from .dga import CohomologyClass, DGAlgebra, MultiDegree, cup
from .linalg import QuotientBasis, rank
from .massey import (ConnectionFamily, FormalConnection, KStepOutcome,
                     MasseyEngine, MasseyOutcome, conjugate, lift_obstruction,
                     mc_defect, related_cocycle, strong_mc_check)
from .lie import (CEAlgebra, GradedLie, OmegaCocycle, ce_window,
                  classify_1d_massey, d1, d_minus1, goncharova_table, m0,
                  m0_product, omega, witt_plus)
from .simplicial import (BettiTable, SimplicialComplex, from_facets,
                         hochster_table, induced, is_chordal, is_flag, join,
                         skeleton1)
from .facerings import (RKAlgebra, ZkClass, cup_length, generator_class,
                        golod_test, mainlemma_check, rk_cohomology,
                        triple_massey_scan, zk_cup, zk_massey)
from .monomial import (KoszulAlgebra, MonomialQuotient, golod_series_check,
                       koszul_homology, minimal_resolution_betti,
                       polarization, serre_bound)
from . import generators

__all__ = [
    "GF", "QQ", "Field", "Fp",
    "CohomologyClass", "DGAlgebra", "MultiDegree", "cup",
    "QuotientBasis", "rank",
    "ConnectionFamily", "FormalConnection", "KStepOutcome", "MasseyEngine",
    "MasseyOutcome", "conjugate", "lift_obstruction", "mc_defect",
    "related_cocycle", "strong_mc_check",
    "CEAlgebra", "GradedLie", "OmegaCocycle", "ce_window",
    "classify_1d_massey", "d1", "d_minus1", "goncharova_table", "m0",
    "m0_product", "omega", "witt_plus",
    "BettiTable", "SimplicialComplex", "from_facets", "hochster_table",
    "induced", "is_chordal", "is_flag", "join", "skeleton1",
    "RKAlgebra", "ZkClass", "cup_length", "generator_class", "golod_test",
    "mainlemma_check", "rk_cohomology", "triple_massey_scan", "zk_cup",
    "zk_massey",
    "KoszulAlgebra", "MonomialQuotient", "golod_series_check",
    "koszul_homology", "minimal_resolution_betti", "polarization",
    "serre_bound",
    "generators",
]
