"""quasimix: quasi-randomness degrees and mixing-inequality certification for finite groups."""

__version__ = "0.1.0"

from .groups import (
    CayleyTableError,
    ConjugacyStructure,
    FiniteGroup,
    build_alternating,
    build_cyclic,
    build_psl2,
    build_sl2,
    build_symmetric,
    commutator_subgroup,
    conjugacy_classes,
    format_cayley_table,
    group_from_table,
    load_cayley_table,
)
from .spectra import (
    CharacterTable,
    DegenerateSpectrumError,
    QuasiRandomnessDegree,
    SpectralData,
    SpectralInconsistencyError,
    character_table,
    class_algebra,
    conjugation_multiplicity,
    isotypic_project,
    quasirandomness_degree,
    spectral_data,
)
from .harmonic import (
    BoundCheck,
    ConstraintError,
    GroupFunction,
    Harmonic,
    centered,
    sample_disc,
    sample_unit,
)
from .adversary import (
    SearchConfig,
    SearchResult,
    evaluate_inputs,
    maximize,
)
from .report import (
    CHECK_ORDER,
    canonical_json,
    group_summary,
    run_verification,
)
