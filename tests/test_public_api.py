import types

import stepcrn

# Every public name the package exports.  Removing or renaming one is a
# break: edit this list and name the break in CHANGES.md.
PUBLIC_NAMES = [
    "Alphabet", "Circuit", "CircuitError", "CircuitStats", "CompilationReport",
    "Configuration", "CorpusSpec", "Gate", "GateKind", "GateLowering",
    "LoweringError", "NetlistParseError", "NormalizationInfo", "Rule",
    "RuleTable", "RunResult", "Schedule", "StageSpec", "StateCapExceeded",
    "StepProgram", "build_stage_chain", "check_demand_growth",
    "compile_backend", "compile_circuit_catalyst", "compile_circuit_exp",
    "compile_formula", "decode_output", "demand_analysis",
    "enumerate_program_terminals", "evaluate", "fibonacci",
    "generate_circuits", "lower_gate", "min_copy_bounds", "normalize", "parse_circuit",
    "parse_rule", "program_from_text", "program_to_text", "run_program", "stats",
    "to_netlist",
]


def test_public_names_are_pinned():
    names = sorted(
        n for n in dir(stepcrn)
        if not n.startswith("_") and not isinstance(getattr(stepcrn, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
