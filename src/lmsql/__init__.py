"""lmsql: question answering over tables with SQL extended by model calls.

Pipeline: sample candidate programs from a completion backend, resolve each
program's model-call expressions bottom-up against the table, execute the
rewritten plain SQL deterministically, and majority-vote the answers.
"""

from .backend import (Backend, CompletionRequest, HttpBackend, MockBackend,
                      NullBackend, approx_tokens, mock_from_fixtures, with_cache)
from .engine import Answer, EMPTY_ANSWER, canonical_value, execute_sql
from .errors import (BackendError, BadResponse, BudgetExhausted, ConfigError,
                     DuplicateColumn, EvalError, FormatError, IoError,
                     LengthMismatch, LexError, LmSqlError, MalformedResponse,
                     ParseError, ResolutionError, RoleAmbiguity, TransportError,
                     UnknownColumn, UnsupportedFeature)
from .interp import (build_map_prompt, default_exec_demos, load_exec_demos,
                     parse_map_response, retrieve_exec_demos, run_program)
from .metrics import JUDGES, evaluate_dataset, semantic_em
from .prompts import (GenerationConfig, INSTRUCTIONS, load_exemplars,
                      parse_candidates, plan_parse_prompt, sample_candidates)
from .syntax import (ApiCall, Program, api_calls_bottom_up, assign_roles, parse,
                     print_program)
from .table import (Cell, Column, Table, augment, linearize, load_table,
                    normalize, project, table_from_json)
from .voting import STRATEGIES, Candidate, vote

__version__ = "0.1.0"
