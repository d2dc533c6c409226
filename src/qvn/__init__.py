"""qvn: a numerically exact simulator of a stored-program quantum
architecture built on channel-state duality.

Programs are held as dual (Choi) states in an addressed memory unit,
composed by universal quantum gate teleportation, executed on tailed
circuits with measurement-based input injection, and protected by a
Knill-Laflamme error-correction toolkit with logical ebits.
"""

__version__ = "0.1.0"

from .control import (
    Compose,
    ExecutionResult,
    Inject,
    Readout,
    Restore,
    SampleTail,
    Schedule,
    controlled_unknown_channel,
    execute,
    ideal_controlled,
)
from .duality import (
    ChoiState,
    Comb,
    Superchannel,
    apply_comb,
    apply_superchannel,
    apply_via_choi,
    bell_state,
    choi_of_channel,
    choi_of_unitary,
    kraus_from_choi,
    unvec,
    vectorize,
)
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    EstimationError,
    KlConditionError,
    NotCptpError,
    NotRestorableError,
    NumericalError,
    OutOfCopiesError,
    ParseError,
    QvnError,
    SlotNotFoundError,
    ValidationError,
)
from .kernel import (
    DEFAULT_TOL,
    DensityOperator,
    KrausChannel,
    Observable,
    PureState,
    RngStream,
    UnitaryOp,
    apply_channel,
    eig_unitary,
    expectation,
    haar_random_unitary,
    partial_trace,
    purity,
    random_cptp_channel,
    random_density,
    random_pure_state,
    state_fidelity,
    trace_distance,
)
from .memory import (
    GateRecord,
    MemorySlot,
    MemoryUnit,
    ProgramDescription,
    deserialize,
    serialize,
    synthesize,
)
from .qec import (
    Code,
    LogicalProgram,
    Recovery,
    bit_flip_code,
    build_recovery,
    check_detection,
    check_kl,
    logical_compose,
    logical_ebit,
    logical_program,
    parse_code,
    phase_flip_code,
    serialize_code,
)
from .tailed import (
    InjectionSpec,
    ReadoutSpec,
    RunResult,
    TopoDiagram,
    TopoVertex,
    contract,
    eval_topological,
    inject,
    run_algorithm,
    toffoli_cascade,
)
from .uqt import (
    BellBasis,
    ByproductStrategy,
    StoredProgram,
    SymmetricFactors,
    bell_measure_pair,
    bell_probabilities,
    byproduct_correction,
    compose,
    stored_program,
    symmetric_decompose,
    teleport,
)
