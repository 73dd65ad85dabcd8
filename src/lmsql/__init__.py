"""lmsql: question answering over tables with SQL extended by model calls.

Pipeline: sample candidate programs from a completion backend, resolve each
program's model-call expressions bottom-up against the table, execute the
rewritten plain SQL deterministically, and majority-vote the answers.
"""

from .backend import (Backend, CachingBackend, CompletionRequest, HttpBackend,
                      MockBackend, NullBackend, approx_tokens,
                      mock_from_fixtures, with_cache)
from .engine import (Answer, Denotation, EMPTY_ANSWER, canonical_value,
                     denotation_to_answer, execute_sql)
from .errors import (BackendError, BadResponse, BudgetExhausted, ConfigError,
                     DuplicateColumn, EvalError, FormatError, IoError,
                     LengthMismatch, LexError, LmSqlError, MalformedResponse,
                     ParseError, RateLimited, ResolutionError, RoleAmbiguity,
                     TransportError, UnknownColumn, UnsupportedFeature)
from .interp import (ExecDemo, ExecutionConfig, Resolution, build_map_prompt,
                     build_val_prompt, default_exec_demos, load_exec_demos,
                     ngram_similarity, parse_map_response, resolve_call,
                     retrieve_exec_demos, run_program)
from .metrics import (EvalOutcome, EvalReport, JUDGES, evaluate_dataset,
                      official_em, semantic_em, string_em)
from .prompts import (Exemplar, GenerationConfig, INSTRUCTIONS, load_exemplars,
                      parse_candidates, plan_parse_prompt, sample_candidates)
from .syntax import (ApiCall, Program, api_calls_bottom_up, assign_roles, parse,
                     print_program, tokenize)
from .table import (Cell, Column, Table, augment, linearize, load_table,
                    normalize, project, table_from_json)
from .voting import STRATEGIES, Candidate, VoteReport, vote

__version__ = "0.1.0"
