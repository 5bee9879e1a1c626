"""stepcrn: threshold circuits compiled to stepwise annihilation-rule
reaction programs, with randomized and exhaustive execution and
end-to-end verification against direct evaluation."""

from .circuits import (
    Circuit,
    CircuitError,
    CircuitStats,
    Gate,
    GateKind,
    NetlistParseError,
    demand_analysis,
    evaluate,
    parse_circuit,
    stats,
    to_netlist,
)
from .crn import (
    Alphabet,
    Configuration,
    Rule,
    RuleTable,
    parse_rule,
)
from .engine import (
    RunResult,
    Schedule,
    StateCapExceeded,
    StepProgram,
    decode_output,
    enumerate_program_terminals,
    program_from_text,
    program_to_text,
    run_program,
)
from .lowering import (
    CompilationReport,
    GateLowering,
    LoweringError,
    NormalizationInfo,
    compile_backend,
    compile_circuit_catalyst,
    compile_circuit_exp,
    compile_formula,
    lower_gate,
    normalize,
)
from .lowerbound import (
    StageSpec,
    build_stage_chain,
    check_demand_growth,
    fibonacci,
    min_copy_bounds,
)
from .corpus import CorpusSpec, generate_circuits

__version__ = "0.1.0"
