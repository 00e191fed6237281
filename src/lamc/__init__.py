"""lamc: a Krivine-machine toolkit for the lambda-c calculus.

Classical realizers are lambda-terms with call/cc and primitive numerals,
evaluated as processes against stacks.  The package provides the machine,
four witness-extraction drivers for classical proofs of existential
statements, and a negative/CPS translation into an intuitionistic term
language whose reduction engine checks the simulation of machine
evaluation by weak reduction.
"""

from .arith import (
    ArithExpr,
    EApp,
    ENat,
    EVar,
    Equation,
    Pattern,
    PrimRecSignature,
    default_signature,
    eval_expr,
    expr_of_nat,
    nat_of_expr,
    normalize_expr,
    parse_expr,
    print_expr,
)
from .extract import (
    ExtractionReport,
    check_decider_samples,
    check_independence,
    check_refuter_samples,
    extract_decidable,
    extract_kamikaze,
    extract_naive,
    extract_sigma01,
    make_decider_sigma01,
    sigma01_refuter,
)
from .formulas import (
    Formula,
    expand_abbreviation,
    normalize_formula_ha2,
    normalize_formula_pa2,
    parse_formula,
    parse_hformula,
    print_formula,
    relativize_nat,
)
from .ha2 import (
    EqResult,
    enumerate_weak_redexes,
    inner_equal,
    parse_hterm,
    read_witness,
    weak_reduce,
    weak_step,
)
from .machine import (
    BindNumeral,
    BindTerm,
    Guard,
    InstructionRule,
    LitNumeral,
    MachineConfig,
    RunOutcome,
    macro_rule,
    register_batch,
    register_instruction,
    run,
    step,
)
from .negtrans import (
    ReturnFormula,
    cps_process,
    cps_stack,
    cps_term,
    formula_bot,
    formula_nn,
    inline_instructions,
    sigma01_return_formula,
)
from .script import Script, parse_script, run_script, run_script_text
from .simulate import simulate_one_step, simulate_run
from .stdlib import (
    catalog,
    church,
    compile_primrec,
    lazy_numeral,
    make_pair,
    min_principle_realizers,
    peano_axiom_terms,
    test_le_term,
    turing_fixpoint,
)
from .syntax import (
    App,
    BOTTOM,
    Bottom,
    Inst,
    Kont,
    Lam,
    Numeral,
    ParseError,
    Process,
    Push,
    Stack,
    Term,
    Var,
    extend_stack_bottom,
    free_vars,
    is_closed,
    is_proof_like,
    parse_process,
    parse_stack,
    parse_term,
    print_process,
    print_stack,
    print_term,
    substitute,
)

__version__ = "0.1.0"
