"""Call-by-value lambda calculus workbench under the size-difference cost model.

Each reduction step costs max(1, growth-of-the-term), so the time of a
normalizing term accounts for every intermediate result.  The package
bundles an instrumented reduction engine, string/numeral encodings with a
call-by-value recursion operator, a Turing machine compiler with a native
simulator as oracle, a nine-tape string-machine normalizer, and costed
combinators over closed values.  Everything is pure and deterministic
given explicit seeds.
"""

from .terms import (
    Abs, App, BoundVar, FreeVar, Term,
    TermError, ParseError, InvalidPositionError,
    ap, free_names, fv, is_closed, lam, parse_term, print_term, substitute_top,
)
from .theta import (
    MalformedThetaError, decode_theta, encode_theta, theta_to_ascii,
    canonical_theta, true_length,
)
from .reduction import (
    ARG, DEFAULT_FUEL, FUN, LEFTMOST, RANDOM, RIGHTMOST, STRATEGIES,
    CostTrace, ReductionOutcome, TraceStep,
    is_redex, normalize, random_closed_term, redex_path, step_at, time_of,
    write_trace_csv,
)
from .encodings import (
    Alphabet, NotAStringEncoding, UnknownSymbolError,
    build_append, build_convert, church_numeral, decode_string,
    encode_string, encode_symbol, fixpoint_h,
)
from .turing import (
    CompiledRun, FuelExhausted, OracleMismatchError, TMConfig,
    TMDefinitionError, TMParseError, TMRun, TuringMachine,
    build_final, build_function, build_init, build_trans,
    encode_config, even_palindrome_machine, flip_machine, initial_config,
    parse_tm, project, run_compiled, simulate_tm, tm_step,
)
from .machine_r import (
    A_LAM, F_APP, FOUND, NO_REDEX, S_APP,
    IterationStats, MachineRError, MachineRResult, MachineRState,
    find_redex_pass, mr_normalize, reassemble_pass, substitute_pass,
)
from .pca import (
    COMBINATOR_NAMES, AppResult, XiValue,
    apply_in_xi, build_combinator, pair,
)

__version__ = "0.1.0"
